"""Shared fixtures and independent oracle helpers.

The oracle helpers recompute quantities through deliberately naive index
loops so that tests never compare an implementation against itself.
"""

import json
import math
import types

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

import lazystates as lz
from lazystates import bloch, gaussian
from lazystates.su_algebra import ZERO_CUTOFF, StructureConstants


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def su2():
    return lz.build_su_basis(2)


@pytest.fixture(scope="session")
def su3():
    return lz.build_su_basis(3)


@pytest.fixture(scope="session")
def bell():
    return lz.maximally_entangled(2)


@pytest.fixture(scope="session")
def witness():
    """Real two-qubit mixture that is not lazy on either side."""
    return make_witness()


def make_witness():
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    pz = np.outer(zero, zero.conj())
    pp = np.outer(plus, plus.conj())
    return lz.DensityMatrix(2, 2, 0.5 * np.kron(pz, pp) + 0.5 * np.kron(pp, pz))


def marginal_asymmetric_state(side):
    """Accepted state whose raw `side` marginal is beyond the hermiticity tolerance.

    Side A: random_density_matrix(2, 4, 3) plus 0.9e-12 on <0,b|rho|1,b> for
    every b; side B mirrors it on 4 x 2 with <a,0|rho|a,1> for every a.  Each
    entry stays within HERMITICITY_TOL (1e-12), but the partial trace sums
    four of them into a marginal asymmetry of 3.6e-12.
    """
    if side == "A":
        data = lz.random_density_matrix(2, 4, 3).data.copy()
        data[[0, 1, 2, 3], [4, 5, 6, 7]] += 0.9e-12
        return lz.DensityMatrix(2, 4, data)
    data = lz.random_density_matrix(4, 2, 3).data.copy()
    data[[0, 2, 4, 6], [1, 3, 5, 7]] += 0.9e-12
    return lz.DensityMatrix(4, 2, data)


#: a physical c' = -c standard form at r = 3.99 whose exact nu_minus, by
#: 50-digit mpmath, is 0.999999999054612: its thermal parameter
#: b = (root - (n - m)) / 2 = 0.99999999896 is within 9.5e-11 of it, while
#: the form's own nu_minus = 1.0000000375 is off by 3.8e-8
NEAR_PURE_FORM = (
    2163.828176286357, 2162.857215813163, 2163.342186039997, -2163.342186039997
)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def naive_partial_trace(matrix, dim_a, dim_b, side):
    """Index-summed partial trace straight from the definition."""
    matrix = np.asarray(matrix)
    if side == "A":
        out = np.zeros((dim_a, dim_a), dtype=complex)
        for a in range(dim_a):
            for c in range(dim_a):
                for b in range(dim_b):
                    out[a, c] += matrix[a * dim_b + b, c * dim_b + b]
    else:
        out = np.zeros((dim_b, dim_b), dtype=complex)
        for b in range(dim_b):
            for d in range(dim_b):
                for a in range(dim_a):
                    out[b, d] += matrix[a * dim_b + b, a * dim_b + d]
    return out


#: maximum allowed deviation of the Gram matrix tr(g_i g_j) from 2*I
GRAM_TOL = 1e-10


def structure_constants(generators):
    """Structure constants f_ijk = tr([g_i, g_j] g_k) / (4i) of a basis.

    The generators must satisfy tr(g_i g_j) = 2 delta_ij; anything with a
    larger Gram deviation than GRAM_TOL is rejected.  The analytically
    vanishing imaginary parts of the traces are discarded.  This builds the
    dense (N, N, N) triple-product tensor and serves as the generic oracle
    for the closed forms used by `build_su_basis`.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {gens.shape}")
    count = gens.shape[0]
    gram = np.einsum("aij,bji->ab", gens, gens)
    gram_dev = np.abs(gram - 2.0 * np.eye(count)).max()
    if gram_dev > GRAM_TOL:
        raise ValueError(
            f"generators are not orthonormal: max Gram deviation {gram_dev:.3e}"
        )
    # tr(g_a g_b g_c) for all triples; antisymmetrize the first pair.
    triple = np.einsum("aij,bjk,cki->abc", gens, gens, gens)
    f = ((triple - np.transpose(triple, (1, 0, 2))) / 4j).real
    a, b, c = np.indices(f.shape)
    canonical = (a < b) & (b < c) & (np.abs(f) > ZERO_CUTOFF)
    index = np.stack([a[canonical], b[canonical], c[canonical]], axis=1)
    return StructureConstants(count, index, f[canonical])


def naive_commutator_residual(rho, side="A"):
    """Dense commutator norm without reusing any library helpers."""
    na, nb = rho.dim_a, rho.dim_b
    red = naive_partial_trace(rho.data, na, nb, side)
    d = na * nb
    big = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            if side == "A":
                a, b = divmod(r, nb)
                ap, bp = divmod(c, nb)
                if b == bp:
                    big[r, c] = red[a, ap]
            else:
                a, b = divmod(r, nb)
                ap, bp = divmod(c, nb)
                if a == ap:
                    big[r, c] = red[b, bp]
    comm = rho.data @ big - big @ rho.data
    return float(np.sqrt((np.abs(comm) ** 2).sum()))


def reference_sector_residual(rho, side="A"):
    """Commutator norm of a sector state, one sector at a time.

    Each sector block times its own outer difference of the marginal
    diagonal, summed by one `vdot` per sector, with no grouping.
    """
    p = np.diag(rho._partial_trace(side))
    total = 0.0
    for shift, block in rho.sectors.items():
        lo = max(shift, 0) if side == "A" else max(-shift, 0)
        ps = p[lo : lo + len(block)]
        y = block * (ps - ps[:, None])
        total += np.vdot(y, y)
    return math.sqrt(total)


def gathered_levels(shifts, size, side):
    """(2, g, size) levels on `side` of the entries of layers read as the
    sectors +shifts (row 0) and -shifts (row 1); the padding points past
    the box.  Formed afresh on every call."""
    lift = (1, 0) if side == "A" else (0, 1)
    return np.multiply.outer(lift, shifts)[:, :, None] + np.arange(size)


def gathered_terms(rho, side):
    """(levels, terms) of the diagonal of the marginal of a sector state:
    weights times the stack diagonals and the `gathered_levels` they lie
    on, flat in stack order, the padding's levels past the box."""
    levels = np.concatenate(
        [gathered_levels(shifts, stack.shape[1], side) for stack, shifts, _ in rho._stacks],
        axis=None,
    )
    terms = np.concatenate(
        [weights[:, :, None] * stack.diagonal(0, 1, 2) for stack, _, weights in rho._stacks],
        axis=None,
    )
    return levels, terms


def gathered_level_sums(rho, side):
    """Diagonal of the marginal of a sector state: one `bincount` of the
    `gathered_terms`, in stack order."""
    dim = rho.dim_a if side == "A" else rho.dim_b
    return np.bincount(*gathered_terms(rho, side), minlength=dim)[:dim]


def exact_level_sums(rho, side):
    """(fsum, fsum of |terms|, count of terms) of each level of the
    diagonal of the marginal of a sector state: the exactly rounded sum of
    its `gathered_terms`, and what bounds the rounding of any other sum."""
    dim = rho.dim_a if side == "A" else rho.dim_b
    per_level = [[] for _ in range(dim)]
    for level, term in zip(*(part.tolist() for part in gathered_terms(rho, side))):
        if level < dim:
            per_level[level].append(term)
    return (
        np.array([math.fsum(terms) for terms in per_level]),
        np.array([math.fsum(map(abs, terms)) for terms in per_level]),
        np.array([len(terms) for terms in per_level]),
    )


def gathered_residual(rho, side):
    """Commutator residual of a sector state, one `vdot` per stack, with p
    gathered at the `gathered_levels` of each stack from the state's own
    kept diagonal, padded.  Its bits are those `commutator_residual` must
    reproduce."""
    p = np.concatenate((rho._diagonal(side), np.zeros(rho.dim_a + rho.dim_b)))
    total = 0.0
    for stack, shifts, weights in rho._stacks:
        ps = p[gathered_levels(shifts, stack.shape[1], side)] * weights[:, :, None]
        y = ps[:, :, None, :] - ps[:, :, :, None]
        y *= stack
        total += np.vdot(y, y)
    return math.sqrt(total)


def fock_stacks(cutoff, form=(1.2, 1.1, 0.3)):
    """Writable copies of the stacks of `fock_truncate` on the
    squeezed-thermal `form` (a, b, r), with their shifts and weights, to
    plant a defect in."""
    rho = lz.fock_truncate(lz.squeezed_thermal_form(*form), cutoff)
    return [(stack.copy(), shifts, weights.copy()) for stack, shifts, weights in rho._stacks]


def fock_state(stacks):
    """The sector state of Fock `stacks`, planted or not, made as
    `fock_truncate` makes it."""
    keep = stacks[0][0].shape[1]
    return lz.SectorDensityMatrix._of(keep, keep, stacks)


def products(stacks):
    """{d: (S[k], weights[:, k])} of Fock `stacks`: views of the product of
    shift d and of the weights of its sectors d and -d."""
    return {
        d: (stack[k], weights[:, k])
        for stack, shifts, weights in stacks
        for k, d in enumerate(shifts.tolist())
    }


def mapping_order(shift):
    """Sort key of the order 0, 1, -1, 2, -2, ..."""
    return abs(shift), shift < 0


def read_layers(stacks):
    """(shift, weight, stack, layer index) of every sector of Fock `stacks`:
    row 0 of the weights reads layer k as sector d, row 1 as sector -d
    unless d = 0."""
    return [
        (sign * d, weight, stack, k)
        for stack, shifts, weights in stacks
        for sign, row in ((1, weights[0]), (-1, weights[1]))
        for k, (d, weight) in enumerate(zip(shifts.tolist(), row))
        if sign > 0 or d
    ]


def stack_sectors(stacks, keep):
    """The sectors of `stacks` on a (keep, keep) box, the corners of their
    scaled layers w * S[k], in the order 0, 1, -1, 2, -2, ..."""
    sectors = {}
    with np.errstate(invalid="ignore"):
        for shift, weight, stack, k in read_layers(stacks):
            size = keep - abs(shift)
            sectors[shift] = (weight * stack[k])[:size, :size]
    return {shift: sectors[shift] for shift in sorted(sectors, key=mapping_order)}


def kron_commutator_residual(rho, side="A"):
    """Frobenius norm of [rho, rho_side (x) I] with the operator built by kron."""
    na, nb = rho.dim_a, rho.dim_b
    red = naive_partial_trace(rho.data, na, nb, side)
    big = np.kron(red, np.eye(nb)) if side == "A" else np.kron(np.eye(na), red)
    return float(np.linalg.norm(rho.data @ big - big @ rho.data))


def naive_decompose(rho, gens_a, gens_b):
    """(x, y, T) from the defining traces, one explicit kron per coefficient."""
    na, nb = rho.dim_a, rho.dim_b
    x = [na / 2.0 * np.trace(rho.data @ np.kron(s, np.eye(nb))).real for s in gens_a]
    y = [nb / 2.0 * np.trace(rho.data @ np.kron(np.eye(na), t)).real for t in gens_b]
    t = [
        [na * nb / 4.0 * np.trace(rho.data @ np.kron(s, t)).real for t in gens_b]
        for s in gens_a
    ]
    return np.array(x), np.array(y), np.array(t).reshape(len(gens_a), len(gens_b))


def product_decompose(rho):
    """(x, y, T) as three scalings of the real product S_A m S_B^T, cut apart.

    `decompose` scales the whole product at once into one matrix C; the
    bits must be those of these three products.
    """
    na, nb = rho.dim_a, rho.dim_b
    sa, sb = bloch._change_of_basis(na, None), bloch._change_of_basis(nb, None)
    c = (sa @ bloch._realign(rho.data, na, nb) @ sb.T).real
    return na / 2.0 * c[1:, 0], nb / 2.0 * c[0, 1:], na * nb / 4.0 * c[1:, 1:]


def block_reconstruct(x, y, t):
    """Dense matrix of (x, y, T), with [[1, y], [x, T]] reassembled by np.block."""
    na, nb = math.isqrt(len(x) + 1), math.isqrt(len(y) + 1)
    sa, sb = bloch._change_of_basis(na, None), bloch._change_of_basis(nb, None)
    coeffs = np.block([[np.ones((1, 1)), y[None]], [x[:, None], t]])
    m = sa.T @ coeffs @ sb
    d = na * nb
    return m.reshape(na, na, nb, nb).transpose(0, 2, 1, 3).reshape(d, d) / d


def einsum_reconstruct(form, gens_a, gens_b):
    """Density matrix of a Bloch form from local krons and one 3-operand einsum.

    Takes generator stacks, so a trivial side is an empty (0, 1, 1) stack.
    """
    na, nb = gens_a.shape[1], gens_b.shape[1]
    d = na * nb
    local_a = np.einsum("i,iab->ab", form.x, gens_a)
    local_b = np.einsum("j,jab->ab", form.y, gens_b)
    cross = np.einsum("ij,iac,jbd->abcd", form.T, gens_a, gens_b).reshape(d, d)
    return (
        np.eye(d, dtype=complex)
        + np.kron(local_a, np.eye(nb))
        + np.kron(np.eye(na), local_b)
        + cross
    ) / d


def kron_rate_operator(rho, side):
    """K = i [rho, log2(rho_side) (x) I] with the operator built by kron.

    log2 on the support, from the index-summed partial trace.
    """
    na, nb = rho.dim_a, rho.dim_b
    w, q = np.linalg.eigh(naive_partial_trace(rho.data, na, nb, side))
    keep = w > 0.0
    log2_red = (q[:, keep] * np.log2(w[keep])) @ q[:, keep].conj().T
    if side == "A":
        big = np.kron(log2_red, np.eye(nb))
    else:
        big = np.kron(np.eye(na), log2_red)
    return 1j * (rho.data @ big - big @ rho.data)


def reference_entropy_rate(rho, coupling, side):
    """`entropy_rate` as it was with K = i c formed: Re vdot(K, H)."""
    from lazystates.dynamics import _rate_commutator

    c = _rate_commutator(rho, rho._partial_trace(side), side)
    return float(np.vdot(1j * c, coupling.hamiltonian).real)


def herm_1i(g):
    """herm((1+i) G) = (X + X^dag) / 2 with X = (1+i) G, in complex arithmetic."""
    x = (1 + 1j) * g
    return (x + x.conj().swapaxes(-1, -2)) / 2


def reference_dynamics_audit(rho, side="A", trials=100, seed=0):
    """`dynamics_audit` from dense factors and the realigned rate operator.

    Each factor stack is `herm_1i` of its half of the draw rows;
    `commutator_residual` and the rate operator each form their own raw
    marginal; and the rates are the real part of vec(A)^T m vec(B), with m
    the realigned K = i c.  `trials`, `rate_bound` and the verdict must
    match `dynamics_audit` bit for bit; `rate_bound` is K reduced by the
    package's one norm, `bloch._frobenius`, so the match pins the audit's
    c to K.  The rates are summed in another order, so they agree to
    rounding only.
    """
    from lazystates._scalars import _scalar
    from lazystates.bloch import _check_side, _realign
    from lazystates.dynamics import LAZY_RATE_TOL, NONLAZY_RATE_FLOOR, DynamicsAudit
    from lazystates.laziness import DEFAULT_TOL, commutator_residual

    def rate_operator(rho, side):
        w, q = np.linalg.eigh(rho._partial_trace(side))
        keep = w > 0.0
        log2_red = (q[:, keep] * np.log2(w[keep])) @ q[:, keep].conj().T
        return 1j * rho._commutator(log2_red, side)

    side = _check_side(side)
    trials = _scalar(trials, "trials must be an integer >= 1", lambda v: v >= 1, int)
    seed = _scalar(seed, "seed must be an integer >= 0", lambda v: v >= 0, int)
    na, nb = rho.dim_a, rho.dim_b
    draws = np.random.default_rng(seed).standard_normal(
        (trials, na * na + nb * nb)
    )
    a = herm_1i(draws[:, : na * na].reshape(-1, na, na))
    b = herm_1i(draws[:, na * na:].reshape(-1, nb, nb))
    lazy = commutator_residual(rho, side) < DEFAULT_TOL
    k = rate_operator(rho, side)
    m = _realign(k, na, nb)
    rates = np.einsum("ij,ij->i", a.reshape(trials, -1) @ m, b.reshape(trials, -1)).real
    max_rate = float(np.abs(rates).max())
    consistent = max_rate < LAZY_RATE_TOL if lazy else max_rate > NONLAZY_RATE_FLOOR
    return DynamicsAudit(
        max_rate=max_rate,
        trials=trials,
        per_trial_rates=tuple(rates.tolist()),
        consistent_with_laziness=consistent,
        rate_bound=bloch._frobenius(k),
    )


#: padded levels per mode of `dense_fock_reference`
FOCK_ORACLE_PAD = 12


def dense_fock_reference(a, b, r, cutoff, pad=FOCK_ORACLE_PAD):
    """Squeezed-thermal state from one dense expm on the padded two-mode space.

    Thermal product weights are squeezed by exp(r (adag adag - a a)) built
    with kron, then truncated to cutoff + 1 levels per mode and renormalized.
    The squeezer is distorted near the edge of the padded space; at the
    default pad the kept block has converged to below 1e-15, where pad 8 is
    still 3.8e-14 off at (a, b, r) = (1, 1, 0.4), cutoff 10.
    """
    dim = cutoff + 1 + pad
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    gen = r * (np.kron(lower.T, lower.T) - np.kron(lower, lower))
    squeezer = expm(gen)

    def thermal(nu):
        nbar = (nu - 1.0) / 2.0
        return np.array([nbar**k / (nbar + 1.0) ** (k + 1) for k in range(dim)])

    weights = np.kron(thermal(a), thermal(b))
    full = squeezer @ np.diag(weights) @ squeezer.T
    keep = cutoff + 1
    kept = [n1 * dim + n2 for n1 in range(keep) for n2 in range(keep)]
    block = full[np.ix_(kept, kept)]
    return block / np.trace(block)


class _ExpEverywhere(types.ModuleType):
    """numpy, except that `exp` evaluates every entry and ignores `where`."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(x, out=None, where=True):
        return np.exp(x, out=out)


def exp_everywhere_stacks(form, cutoff):
    """The (S, shifts, weights) stacks of `fock_truncate(form, cutoff)` with
    exp taken at every log entry, the -inf ones included."""
    saved = gaussian.np
    gaussian.np = _ExpEverywhere("numpy")
    try:
        rho = lz.fock_truncate(form, cutoff)
    finally:
        gaussian.np = saved
    return rho._stacks


def mp_fock_sector(a, b, r, cutoff, shift, pad=6, dps=30):
    """Unnormalized kept blocks of the sectors +shift and -shift, in mpmath.

    The sector's tridiagonal squeezer generator, with raising weight
    r sqrt((k + shift + 1)(k + 1)), is exponentiated by `mp.expm` on
    cutoff + 1 + pad - shift states at `dps` digits, and U W U^T is kept on
    the first cutoff + 1 - shift states, W the thermal product weights
    (1 - q) q^n, q = (x - 1)/(x + 1), on |k + shift, k> (sector +shift) or
    |k, k + shift> (sector -shift).  At (1.2, 1.1, 0.3), cutoff 30, pad 6 is
    within 1e-22 of pad 10.  Returns both blocks as float64 arrays (the
    same block twice for shift 0).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        size = cutoff + 1 + pad - shift
        r = mp.mpf(r)
        gen = mp.zeros(size, size)
        for k in range(size - 1):
            coupling = r * mp.sqrt((k + shift + 1) * (k + 1))
            gen[k + 1, k] = coupling
            gen[k, k + 1] = -coupling
        u = mp.expm(gen)
        q_a, q_b = ((mp.mpf(x) - 1) / (mp.mpf(x) + 1) for x in (a, b))
        norm = (1 - q_a) * (1 - q_b)
        keep = cutoff + 1 - shift
        blocks = []
        for q_shift in (q_a, q_b) if shift else (q_a,):
            w = [norm * q_shift**shift * (q_a * q_b) ** j for j in range(size)]
            blocks.append(
                np.array(
                    [
                        [
                            float(mp.fsum(u[k, j] * w[j] * u[l, j] for j in range(size)))
                            for l in range(keep)
                        ]
                        for k in range(keep)
                    ]
                )
            )
    return blocks[0], blocks[-1]


def finite_difference_rate(rho, hamiltonian, side, step=1e-5):
    """Central finite difference of the subsystem entropy at t = 0."""
    w, q = np.linalg.eigh(hamiltonian)

    def evolved_entropy(t):
        u = (q * np.exp(-1j * w * t)) @ q.conj().T
        data = u @ rho.data @ u.conj().T
        red = naive_partial_trace(data, rho.dim_a, rho.dim_b, side)
        vals = np.clip(np.linalg.eigvalsh(red), 0.0, None)
        vals = vals[vals > 0.0]
        return float(-(vals * np.log2(vals)).sum())

    return (evolved_entropy(step) - evolved_entropy(-step)) / (2.0 * step)


def reference_canonical_json(obj) -> str:
    """The element-by-element writer that `canonical_json` replaced.

    Every float is formatted on its own after a finiteness check; its bytes
    are the ones `canonical_json` must reproduce.
    """
    out: list[str] = []
    _reference_write_json(obj, out)
    return "".join(out)


def _reference_write_json(obj, out: list[str]) -> None:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} is not representable in JSON")
        # + 0.0 turns -0.0 into 0.0, which prints as the integer 0 reads back
        out.append(format(obj + 0.0, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if pos:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _reference_write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(",")
            _reference_write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def golden_su3_contraction(x):
    """Hard-coded transcription of the su(3) contraction matrix F(x)."""
    x1, x2, x3, x4, x5, x6, x7, x8 = x
    s3 = np.sqrt(3.0)
    return np.array(
        [
            [0, x6 / 2, x5 / 2, -x7, -x3 / 2, -x2 / 2, x4, 0],
            [-x6 / 2, 0, x4 / 2, -x3 / 2, -x7 / 2 - s3 * x8 / 2, x1 / 2, x5 / 2, s3 * x5 / 2],
            [-x5 / 2, -x4 / 2, 0, x2 / 2, x1 / 2, x7 / 2 - s3 * x8 / 2, -x6 / 2, s3 * x6 / 2],
            [x7, x3 / 2, -x2 / 2, 0, x6 / 2, -x5 / 2, -x1, 0],
            [x3 / 2, x7 / 2 + s3 * x8 / 2, -x1 / 2, -x6 / 2, 0, x4 / 2, -x2 / 2, -s3 * x2 / 2],
            [x2 / 2, -x1 / 2, -x7 / 2 + s3 * x8 / 2, x5 / 2, -x4 / 2, 0, x3 / 2, -s3 * x3 / 2],
            [-x4, -x5 / 2, x6 / 2, x1, x2 / 2, -x3 / 2, 0, 0],
            [0, -s3 * x5 / 2, -s3 * x6 / 2, 0, s3 * x2 / 2, s3 * x3 / 2, 0, 0],
        ]
    )


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def locally_rotated(data, ua, ub):
    """(U_A (x) U_B) data (U_A (x) U_B)^dag, Hermitized, one local factor at
    a time on the tensor data[(a, b), (c, d)], with no d x d unitary formed."""
    na, nb = len(ua), len(ub)
    r = data.reshape(na, nb, na, nb)
    r = np.einsum("ai,bj,ijkl,ck,dl->abcd", ua, ub, r, ua.conj(), ub.conj(), optimize=True)
    out = r.reshape(na * nb, na * nb)
    return (out + out.conj().T) / 2.0


def lazy_state(na, nb, side, rng):
    """An exactly lazy state on `side`, with Haar local unitaries.

    Side A: (U_A (x) U_B)(sum_i p_i |i><i| (x) sigma_i)(U_A (x) U_B)^dag,
    with p a random distribution over the levels of A and each sigma_i a
    random full-rank state of B, so rho_A = U_A diag(p) U_A^dag and rho
    commutes with rho_A (x) I.  Side B mirrors it: sum_j p_j sigma_j (x)
    |j><j|.  U_A and U_B are drawn by `scipy.stats.unitary_group`.
    """
    levels, other = (na, nb) if side == "A" else (nb, na)
    p = rng.dirichlet(np.ones(levels))
    g = rng.standard_normal((levels, other, other)) + 1j * rng.standard_normal(
        (levels, other, other)
    )
    sigma = g @ g.conj().transpose(0, 2, 1)
    sigma *= (p / np.trace(sigma, axis1=1, axis2=2).real)[:, None, None]
    # core[i, x, i, y] = p_i sigma_i[x, y], block-diagonal over the levels i
    core = np.zeros((levels, other, levels, other), dtype=complex)
    core[np.arange(levels), :, np.arange(levels), :] = sigma
    if side == "B":
        core = core.transpose(1, 0, 3, 2)
    ua = unitary_group.rvs(na, random_state=rng)
    ub = unitary_group.rvs(nb, random_state=rng)
    return lz.DensityMatrix(na, nb, locally_rotated(core.reshape(na * nb, -1), ua, ub))


def degenerate_lazy_state(na, nb, dims, rng):
    """A lazy entangled state on side A whose marginal is degenerate.

    Block k is the maximally entangled pure state between the k-th run of
    dims[k] columns of a Haar U_A and the first dims[k] columns of a Haar
    U_B of its own, weighted by a Dirichlet draw p_k.  So rho_A has the
    eigenvalue p_k / dims[k] on run k, and 0 beyond the runs when
    sum(dims) < na; each block is an eigenvector of rho_A (x) I, so rho
    commutes with it.  The blocks' B subspaces overlap at random, so rho_B
    commutes with rho only when each block fills B.  U_A and U_B are drawn
    by `scipy.stats.unitary_group`.
    """
    p = rng.dirichlet(np.ones(len(dims)))
    ua = unitary_group.rvs(na, random_state=rng)
    data = np.zeros((na * nb, na * nb), dtype=complex)
    start = 0
    for weight, dim in zip(p, dims):
        ub = unitary_group.rvs(nb, random_state=rng)[:, :dim]
        psi = (ua[:, start : start + dim] @ ub.T).reshape(-1) / np.sqrt(dim)
        data += weight * np.outer(psi, psi.conj())
        start += dim
    return lz.DensityMatrix(na, nb, (data + data.conj().T) / 2.0)


def sample_physical_diagonal_states(count, rng, lazy_fraction=0.5, min_corr=0.01):
    """Physical diagonal-correlation states with |correlation| >= min_corr.

    Roughly `lazy_fraction` of them have x = 0 exactly; the rest carry a
    generic nonzero x.  Rejection-samples against positivity.
    """
    states = []
    while len(states) < count:
        corr = rng.uniform(min_corr, 0.15, size=8) * rng.choice([-1.0, 1.0], size=8)
        make_lazy = rng.random() < lazy_fraction
        x = np.zeros(8) if make_lazy else rng.normal(0.0, 0.05, size=8)
        if not make_lazy and np.abs(x).max() < 1e-3:
            continue
        y = rng.normal(0.0, 0.05, size=8)
        state = lz.diagonal_correlation_state(x, y, corr)
        if state.is_physical:
            states.append((state, x))
    return states
