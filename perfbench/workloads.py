"""Seeded inputs, operations and truth checks of the four workloads.

Inputs are generated with numpy alone, so the program under test receives
nothing but raw matrices, files and argument lists.  Each workload is a
fixed list of operation shapes (a *cycle*); the seed draws the values that
fill the shapes, so one cycle costs about the same for every seed and a run
always ends on a cycle boundary.  That keeps throughput and percentiles
steady across seeds while the values still change.

Every operation returns the program's outputs; its check compares them with
the truth known from how the input was built and says OK, WRONG or
KNOWN_DEFECT (a wrong answer with a documented cause, still a failure).
The package is always reached through module attributes at call time, so
the tracer's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lazystates import bloch, dynamics, gaussian, laziness, su_algebra

OK, WRONG, KNOWN_DEFECT = "ok", "wrong", "known_defect"

#: distinct cycles of inputs generated per run; runs reuse them in order
POOL_CYCLES = 8

#: the package's verdict tolerance (`laziness.DEFAULT_TOL`)
VERDICT_TOL = 1e-10

#: relative tolerance of the commutator/criterion norm identity
IDENTITY_RTOL = 1e-11

#: `dynamics_audit` defaults the truth checks rely on
AUDIT_TRIALS = 100
LAZY_RATE_TOL = 1e-8

#: below this a lazy pure-marginal audit failure is finite-difference noise
#: (observed floor about 1.2e-8 at FD_STEP = 1e-5), not a real rate
FD_NOISE_CEILING = 1e-6

#: release tolerance of both Gaussian kernel identities
KERNEL_TOL = 1e-9
FORM_RTOL = 1e-9

#: thermal-parameter and squeezing ranges whose truncation deficit stays
#: below `MAX_TRACE_DEFICIT` (1e-6) at each Fock cutoff
FOCK_RANGES = {20: (1.5, 0.3), 30: (1.8, 0.4), 40: (2.4, 0.5)}


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    state: tuple | None = None  # (dim_a, dim_b, data) where the op has one


# --------------------------------------------------------------------------
# state generators (numpy only)
# --------------------------------------------------------------------------

def _normalized(m):
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def wishart_state(rng, d):
    """Full-rank G G^dag / tr, G complex Gaussian: generically non-lazy."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _normalized(g @ g.conj().T)


def pure_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def local_rotation(rng, data, na, nb):
    u = np.kron(haar_unitary(rng, na), haar_unitary(rng, nb))
    return _normalized(u @ data @ u.conj().T)


def isotropic_state(rng, d, p=None):
    """p |Phi+><Phi+| + (1 - p) I / d^2; both marginals are I / d."""
    if p is None:
        p = rng.uniform(0.2, 0.9)
    phi = np.eye(d).reshape(d * d) / math.sqrt(d)
    return _normalized(p * np.outer(phi, phi) + (1.0 - p) * np.eye(d * d) / (d * d))


def gell_mann(n):
    """Generalized Gell-Mann matrices, tr(g_i g_j) = 2 delta_ij."""
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            gens += [s, a]
    for l in range(1, n):
        g = np.diag([1.0] * l + [-float(l)] + [0.0] * (n - l - 1)).astype(complex)
        gens.append(g * math.sqrt(2.0 / (l * (l + 1))))
    return gens


_SU3 = gell_mann(3)


def diagonal_qutrit(rng, x_zero, y_zero):
    """(I + x.s (x) I + y.I (x) s + sum_k c_k s_k (x) s_k) / 9, all c_k != 0.

    Lazy on A exactly when x = 0 and on B exactly when y = 0.  Coefficients
    are redrawn until the matrix is positive.
    """
    eye = np.eye(3)
    while True:
        c = rng.uniform(0.03, 0.12, 8) * rng.choice([-1.0, 1.0], 8)
        x = np.zeros(8) if x_zero else rng.uniform(-0.15, 0.15, 8)
        y = np.zeros(8) if y_zero else rng.uniform(-0.15, 0.15, 8)
        m = np.eye(9, dtype=complex)
        for k, s in enumerate(_SU3):
            m += x[k] * np.kron(s, eye) + y[k] * np.kron(eye, s) + c[k] * np.kron(s, s)
        m = _normalized(m)
        if np.linalg.eigvalsh(m)[0] > 1e-3:
            return m


def lazy_product(rng, na, nb):
    """Locally rotated product of full-rank marginals: lazy on both sides."""
    return local_rotation(rng, np.kron(wishart_state(rng, na), wishart_state(rng, nb)), na, nb)


# --------------------------------------------------------------------------
# verdict_scan: DensityMatrix + is_lazy on sides A and B
# --------------------------------------------------------------------------

#: (family, dim_a, dim_b); mostly small states with a tail of 6x6 and 8x8
VERDICT_CYCLE = (
    [("product", 2, 2), ("product", 2, 3), ("product", 3, 2), ("product", 2, 4),
     ("product", 4, 3), ("product", 4, 4),
     ("max_entangled", 2, 2), ("max_entangled", 3, 3), ("max_entangled", 4, 4),
     ("isotropic", 2, 2), ("isotropic", 3, 3), ("isotropic", 4, 4)]
    + [("diag_lazy", 3, 3)] * 4
    + [("diag_nonlazy", 3, 3)] * 4
    + [("random", 2, 2), ("random", 2, 3), ("random", 3, 2), ("random", 3, 3),
       ("random", 2, 4), ("random", 4, 2), ("random", 3, 4), ("random", 4, 3),
       ("random", 4, 4), ("random", 4, 4)]
    + [("random", 2, 2), ("product", 3, 3), ("random", 3, 3), ("product", 2, 2),
       ("random", 2, 3), ("product", 3, 2), ("random", 3, 2), ("product", 2, 3)]
    + [("tail", 6, 6), ("tail", 8, 8)]
)

_TAIL_FAMILIES = ("random", "product", "max_entangled", "isotropic")


def verdict_state(rng, family, na, nb, cycle):
    """(data, lazy on A, lazy on B) for one family."""
    if family == "tail":
        family = _TAIL_FAMILIES[cycle % len(_TAIL_FAMILIES)]
    if family == "product":
        return lazy_product(rng, na, nb), True, True
    if family == "max_entangled":
        return local_rotation(rng, isotropic_state(rng, na, 1.0), na, nb), True, True
    if family == "isotropic":
        return local_rotation(rng, isotropic_state(rng, na), na, nb), True, True
    if family in ("diag_lazy", "diag_nonlazy"):
        y_zero = bool(rng.integers(2))
        return diagonal_qutrit(rng, family == "diag_lazy", y_zero), family == "diag_lazy", y_zero
    return wishart_state(rng, na * nb), False, False


def verdict_op(family, na, nb, data, lazy_a, lazy_b):
    def run():
        rho = bloch.DensityMatrix(na, nb, data)
        return laziness.is_lazy(rho, "A"), laziness.is_lazy(rho, "B")

    def check(out):
        return OK if (out[0].is_lazy, out[1].is_lazy) == (lazy_a, lazy_b) else WRONG

    return Op(family, run, check, (na, nb, data))


def verdict_scan(rng, workdir):
    return [
        [verdict_op(family, na, nb, *verdict_state(rng, family, na, nb, cycle))
         for family, na, nb in VERDICT_CYCLE]
        for cycle in range(POOL_CYCLES)
    ]


def norm_identity_gate(ops):
    """Check ||[rho, rho_A (x) I]||_F = (4/(n_A^2 n_B)) ||G||_F on each side.

    Returns (checks, mismatches).  Where both sides of the identity are
    below the verdict tolerance they agree on a lazy state; otherwise they
    must agree to IDENTITY_RTOL relative.
    """
    checks = mismatches = 0
    for op in ops:
        na, nb, data = op.state
        rho = bloch.DensityMatrix(na, nb, data)
        form = bloch.decompose(rho)
        for side, dim in (("A", na), ("B", nb)):
            direct = laziness.commutator_residual(rho, side)
            g = laziness.criterion_matrix(form, su_algebra.build_su_basis(dim), side)
            via = laziness.criterion_prefactor(na, nb, side) * float(np.linalg.norm(g))
            checks += 1
            if max(direct, via) < VERDICT_TOL:
                continue
            if abs(direct - via) > IDENTITY_RTOL * max(direct, via):
                mismatches += 1
    return checks, mismatches


# --------------------------------------------------------------------------
# entropy_dynamics: dynamics_audit on sides A and B
# --------------------------------------------------------------------------

#: (family, dim_a, dim_b).  Cheap analytic audits fill the lower 57% of a
#: cycle, and five 5x5 pure-marginal audits sit just below the one 6x6, so
#: the p50 and p90 ranks fall inside clusters of one cost.
_LIGHT_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (2, 6), (4, 4))
DYNAMICS_CYCLE = (
    [("lazy_full", na, nb) for na, nb in _LIGHT_DIMS]
    + [("nonlazy", na, nb) for na, nb in _LIGHT_DIMS] + [("nonlazy", 2, 4)]
    + [("lazy_full", 5, 5), ("nonlazy", 6, 6)]
    + [("lazy_pure_a", na, nb) for na, nb in ((2, 2), (2, 3), (3, 3), (4, 3), (2, 6))]
    + [("lazy_pure_a", 5, 5)] * 5 + [("lazy_pure_a", 6, 6)]
)


def dynamics_state(rng, family, na, nb, cycle):
    if family == "lazy_full":
        if na == nb and cycle % 2:
            return local_rotation(rng, isotropic_state(rng, na), na, nb), True
        return lazy_product(rng, na, nb), True
    if family == "lazy_pure_a":
        # pure A marginal: side A takes the finite-difference rate path
        return np.kron(pure_state(rng, na), wishart_state(rng, nb)), True
    return wishart_state(rng, na * nb), False


def audit_op(family, na, nb, data, lazy, seed):
    def run():
        rho = bloch.DensityMatrix(na, nb, data)
        return (
            dynamics.dynamics_audit(rho, "A", AUDIT_TRIALS, seed),
            dynamics.dynamics_audit(rho, "B", AUDIT_TRIALS, seed + 1),
        )

    def check(out):
        right = [
            audit.consistent_with_laziness and (audit.max_rate < LAZY_RATE_TOL) == lazy
            for audit in out
        ]
        if all(right):
            return OK
        if (family == "lazy_pure_a" and right == [False, True]
                and out[0].max_rate < FD_NOISE_CEILING):
            return KNOWN_DEFECT
        return WRONG

    return Op(family, run, check)


def entropy_dynamics(rng, workdir):
    pool = []
    for cycle in range(POOL_CYCLES):
        ops = []
        for family, na, nb in DYNAMICS_CYCLE:
            data, lazy = dynamics_state(rng, family, na, nb, cycle)
            ops.append(audit_op(family, na, nb, data, lazy, int(rng.integers(2**31))))
        pool.append(ops)
    return pool


# --------------------------------------------------------------------------
# gaussian_fock: covariance -> standard form -> verdict -> kernels [-> Fock]
# --------------------------------------------------------------------------

def standard_matrix(n, m, c, cp):
    return np.array([[n, 0, c, 0], [0, n, 0, cp], [c, 0, m, 0], [0, cp, 0, m]], dtype=float)


def nu_minus(n, m, c, cp):
    delta = n * n + m * m + 2.0 * c * cp
    det = (n * m - c * c) * (n * m - cp * cp)
    return math.sqrt(max((delta - math.sqrt(max(delta * delta - 4.0 * det, 0.0))) / 2.0, 0.0))


def squeezed_thermal(a, b, r):
    ch, sh = math.cosh(r), math.sinh(r)
    c = (a + b) * ch * sh
    return a * ch * ch + b * sh * sh, a * sh * sh + b * ch * ch, c, -c


def canonical_form(n, m, c, cp):
    """The package's convention: c >= |c'|, c >= 0, c c' = det C kept."""
    big, small = max(abs(c), abs(cp)), min(abs(c), abs(cp))
    return n, m, big, math.copysign(small, c * cp) if c * cp else 0.0


def _local_symplectic(rng):
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    s = rng.uniform(-0.6, 0.6)
    return rot(rng.uniform(0, 2 * math.pi)) @ np.diag([math.exp(s), math.exp(-s)]) @ rot(
        rng.uniform(0, 2 * math.pi))


def scrambled_covariance(rng, params):
    """Standard form under independent random local symplectics."""
    s = np.zeros((4, 4))
    s[:2, :2] = _local_symplectic(rng)
    s[2:, 2:] = _local_symplectic(rng)
    v = s @ standard_matrix(*params) @ s.T
    return (v + v.T) / 2.0


def gaussian_params(rng, family, cutoff=None):
    """(n, m, c, c') of one family; lazy exactly when c = c' = 0."""
    if family == "general":
        while True:
            n, m = rng.uniform(1.0, 4.0, 2)
            c, cp = rng.uniform(-2.0, 2.0, 2)
            if nu_minus(n, m, c, cp) > 1.05:
                return n, m, c, cp
    if family == "product":
        n, m = rng.uniform(1.0, 4.0, 2)
        return n, m, 0.0, 0.0
    top_a, top_r = FOCK_RANGES[cutoff or 20]
    a, b = rng.uniform(1.0, top_a, 2)
    r = 0.0 if family == "thermal" else rng.uniform(0.1, top_r)
    return squeezed_thermal(a, b, r)


def kernel_quadratic_truth(n, m, c, cp, u, v):
    gap = 2.0 * (1.0 + m) * (2.0 + n)
    return (8j * cp / (cp * cp - gap)) * u.imag * v.real - (8j * c / (c * c - gap)) * u.real * v.imag


def _close(value, truth, rtol):
    return abs(value - truth) <= rtol * max(1.0, abs(truth))


def gaussian_op(family, v, params, probes, cutoff=None):
    truth = canonical_form(*params)
    lazy = params[2] == 0.0 and params[3] == 0.0

    def run():
        form = gaussian.standard_form_from_covariance(gaussian.CovarianceState(v))
        verdict = gaussian.is_lazy_gaussian(form)
        pair = gaussian.commutator_kernels(form)
        det = gaussian.kernel_determinant(form)
        quad = [gaussian.kernel_quadratic_difference(form, u, w) for u, w in probes]
        fock = None
        if cutoff is not None:
            fock = laziness.commutator_residual(gaussian.fock_truncate(form, cutoff), "A")
        return form, verdict, pair, det, quad, fock

    def check(out):
        form, verdict, pair, det, quad, fock = out
        got = (form.n, form.m, form.c, form.c_prime)
        ok = all(_close(g, t, FORM_RTOL) for g, t in zip(got, truth)) and verdict == lazy
        ok = ok and all(
            abs(np.linalg.det(k) - det) <= KERNEL_TOL * abs(det) for k in (pair.plus, pair.minus)
        )
        ok = ok and all(
            abs(q - kernel_quadratic_truth(*truth, u, w)) <= KERNEL_TOL
            for q, (u, w) in zip(quad, probes)
        )
        if cutoff is not None:
            ok = ok and (fock < VERDICT_TOL) == lazy
        return OK if ok else WRONG

    return Op(family if cutoff is None else f"fock{cutoff}", run, check)


#: (family, Fock cutoff or None).  Standard-form decisions are 85% of a
#: cycle; the four cutoff-20 Fock checks span its 5-15% rank band, so p90
#: lands in their middle.  Cutoffs 30 and 40 alternate squeezed and thermal.
#: The standard-form ops come in groups between the Fock ops, so their
#: latencies sample several moments of each cycle.
_SF_GROUP = [("general", None)] * 2 + [("product", None)] + [("squeezed", None)] * 2
GAUSSIAN_CYCLE = (
    _SF_GROUP + [("general", None), ("squeezed", 20)]
    + _SF_GROUP + [("thermal", 20)]
    + _SF_GROUP + [("general", None), ("alternate", 30)]
    + _SF_GROUP + [("squeezed", 20)]
    + _SF_GROUP + [("general", None), ("alternate", 40)]
    + _SF_GROUP + [("general", None), ("squeezed", 20)]
)


def gaussian_fock(rng, workdir):
    pool = []
    for cycle in range(POOL_CYCLES):
        ops = []
        for family, cutoff in GAUSSIAN_CYCLE:
            if family == "alternate":
                family = ("squeezed", "thermal")[cycle % 2]
            params = gaussian_params(rng, family, cutoff)
            probes = [complex(*rng.standard_normal(2)) for _ in range(4)]
            probes = list(zip(probes[::2], probes[1::2]))
            v = scrambled_covariance(rng, params)
            ops.append(gaussian_op(family, v, params, probes, cutoff))
        pool.append(ops)
    return pool


# --------------------------------------------------------------------------
# cli_manifest: lazystates.cli.main(argv) over pre-written files
# --------------------------------------------------------------------------

def _write_state(path, na, nb, data):
    pairs = [[[float(z.real), float(z.imag)] for z in row] for row in data]
    path.write_text(json.dumps({"dimA": na, "dimB": nb, "matrix": pairs}))


def _write_covariance(path, v):
    path.write_text(json.dumps({"V": v.tolist(), "d": [0.0] * 4}))


def _run_cli(argv):
    from lazystates import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, buf.getvalue()


def _manifest(out, code):
    got, text = out
    if got != code:
        return None
    return json.loads(text)["results"]


def _check_basis(results, dim):
    gens = [np.array(g)[..., 0] + 1j * np.array(g)[..., 1] for g in results["generators"]]
    count = dim * dim - 1
    if len(gens) != count:
        return False
    g = np.array(gens)
    gram = np.einsum("aij,bji->ab", g, g)
    if np.abs(gram - 2 * np.eye(count)).max() > 1e-12:
        return False
    f = np.zeros((count,) * 3)
    for entry in results["f"]:
        i, j, k = (x - 1 for x in entry["ijk"])
        val = entry["value"]
        f[i, j, k] = f[j, k, i] = f[k, i, j] = val
        f[j, i, k] = f[i, k, j] = f[k, j, i] = -val
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = prod - prod.transpose(1, 0, 2, 3)
    return np.abs(comm - 2j * np.einsum("abk,kij->abij", f, g)).max() < 1e-12


def _check_decompose(results, na, nb, data, product):
    """Basis-independent purity identities of the Bloch form."""
    x, y, t = (np.array(results[k]) for k in ("x", "y", "T"))
    r = data.reshape(na, nb, na, nb)
    rho_a = np.einsum("abcb->ac", r)
    rho_b = np.einsum("abad->bd", r)
    pur = lambda m: float(np.vdot(m, m).real)  # noqa: E731
    xx, yy = x @ x, y @ y
    tt = ((na * nb) ** 2 * pur(data) - na * nb - 2 * nb * xx - 2 * na * yy) / 4.0
    ok = (abs(xx - (na * na * pur(rho_a) - na) / 2.0) < 1e-10
          and abs(yy - (nb * nb * pur(rho_b) - nb) / 2.0) < 1e-10
          and abs(float(np.sum(t * t)) - tt) < 1e-10)
    return ok and (not product or np.abs(t - np.outer(x, y)).max() < 1e-12)


def cli_op(kind, argv, check_results, code):
    def run():
        return _run_cli(argv)

    def check(out):
        results = _manifest(out, code)
        return OK if results is not None and check_results(results) else WRONG

    return Op(kind, run, check)


#: subcommands in one cycle; the three dynamics runs span the 4-17% rank
#: band below the one Fock check, so p90 lands in their middle
CLI_CYCLE = (
    ["check"] * 9 + ["decompose"] * 4 + ["gaussian_cov"] * 4 + ["basis"] * 3
    + ["dynamics"] * 3 + ["fock"]
)
_CHECK_STATES = (("product", 2, 3), ("random", 2, 2), ("isotropic", 3, 3),
                 ("max_entangled", 2, 2), ("random", 3, 2), ("product", 4, 2),
                 ("diag_lazy", 3, 3), ("diag_nonlazy", 3, 3), ("random", 2, 4))


def cli_manifest(rng, workdir):
    workdir = Path(workdir)
    pool = []
    for cycle in range(POOL_CYCLES):
        ops = []
        for index, kind in enumerate(CLI_CYCLE):
            path = workdir / f"c{cycle}-{index}.json"
            if kind == "check":
                family, na, nb = _CHECK_STATES[index % len(_CHECK_STATES)]
                data, lazy_a, lazy_b = verdict_state(rng, family, na, nb, cycle)
                _write_state(path, na, nb, data)
                want = {"A": lazy_a, "B": lazy_b}
                ops.append(cli_op(
                    kind, ["check", "--state", str(path), "--side", "both", "--quiet"],
                    lambda res, want=want: all(res[s]["isLazy"] == want[s] for s in "AB"),
                    0 if lazy_a and lazy_b else 1))
            elif kind == "decompose":
                na, nb = ((2, 3), (3, 3), (4, 2), (2, 2))[index % 4]
                product = index % 2 == 0
                data = lazy_product(rng, na, nb) if product else wishart_state(rng, na * nb)
                _write_state(path, na, nb, data)
                ops.append(cli_op(
                    kind, ["decompose", "--state", str(path), "--quiet"],
                    lambda res, a=(na, nb, data, product): _check_decompose(res, *a), 0))
            elif kind == "gaussian_cov":
                family = ("general", "product", "squeezed", "general")[index % 4]
                params = gaussian_params(rng, family)
                _write_covariance(path, scrambled_covariance(rng, params))
                truth = canonical_form(*params)
                lazy = family == "product"
                ops.append(cli_op(
                    kind, ["gaussian", "--cov", str(path), "--quiet"],
                    lambda res, t=truth: (
                        all(_close(res["standardForm"][k], v, FORM_RTOL)
                            for k, v in zip(("n", "m", "c", "cPrime"), t))
                        and res["detIdentityResidual"] <= KERNEL_TOL
                        and res["quadraticIdentityResidual"] <= KERNEL_TOL),
                    0 if lazy else 1))
            elif kind == "basis":
                dim = 2 + index % 3
                ops.append(cli_op(
                    kind, ["basis", "--dim", str(dim), "--emit-f", "--quiet"],
                    lambda res, dim=dim: _check_basis(res, dim), 0))
            elif kind == "dynamics":
                na, nb = 3, 3
                lazy = (index + cycle) % 2 == 0
                data = lazy_product(rng, na, nb) if lazy else wishart_state(rng, na * nb)
                _write_state(path, na, nb, data)
                ops.append(cli_op(
                    kind, ["dynamics", "--state", str(path), "--side", "A", "--trials",
                           str(AUDIT_TRIALS), "--seed", str(int(rng.integers(2**31))), "--quiet"],
                    lambda res, lazy=lazy: res["consistentWithLaziness"]
                    and (res["maxRate"] < LAZY_RATE_TOL) == lazy, 0))
            else:
                lazy = cycle % 2 == 1
                params = gaussian_params(rng, "thermal" if lazy else "squeezed", 20)
                form = ",".join(repr(float(p)) for p in params)
                ops.append(cli_op(
                    kind, ["gaussian", "--form", form, "--fock-check", "20", "--quiet"],
                    lambda res, lazy=lazy: (res["fockResidual"] < VERDICT_TOL) == lazy
                    and res["isLazy"] == lazy,
                    0 if lazy else 1))
        pool.append(ops)
    return pool


WORKLOADS = {
    "verdict_scan": verdict_scan,
    "entropy_dynamics": entropy_dynamics,
    "gaussian_fock": gaussian_fock,
    "cli_manifest": cli_manifest,
}
