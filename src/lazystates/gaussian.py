"""Two-mode Gaussian states in covariance standard form.

A two-mode Gaussian state is fixed, up to local unitaries and displacement,
by the quadruple (n, m, c, c') of its standard-form covariance matrix

    M = [[n, 0,  c,  0 ],
         [0, n,  0,  c'],
         [c, 0,  m,  0 ],
         [0, c', 0,  m ]],     n >= 1, m >= 1,

written in (Im l1, Re l1, Im l2, Re l2) ordering of the characteristic
function chi(l1, l2) = exp(-xi^T M xi / 2), with the vacuum normalized to
M = I.  Physicality is the symplectic condition nu_minus >= 1, where

    nu_pm^2 = (Delta pm sqrt(Delta^2 - 4 det M)) / 2,
    Delta   = n^2 + m^2 + 2 c c',
    det M   = (n m - c^2)(n m - c'^2).

Such a state commutes with its reduced state exactly when c = c' = 0,
i.e. when it is a product state.  The decision is cross-checked here in
two independent ways:

* through a pair of 6x6 complex kernels of the phase-space overlap
  integrals behind the commutator: their determinants share a closed form
  and the difference of the induced quadratic forms has the closed form

      8i c'/(c'^2 - 2(1+m)(2+n)) uI vR - 8i c/(c^2 - 2(1+m)(2+n)) uR vI,

  which vanishes for all u, v exactly when c = c' = 0;

* by truncating the squeezed-thermal subfamily (c' = -c) to a finite
  number basis and handing it to the finite-dimensional commutator test.
  The truncated state is real and block-diagonal over the sectors of fixed
  shift n1 - n2, so it is stored and validated as a `SectorDensityMatrix`
  that maps each shift to its real symmetric sector block, and the
  commutator test reads the sectors without the dense (cutoff + 1)^2-square
  matrix.  Each sector block comes from the normal-ordered su(1,1) closed
  form of the squeezed thermal state (see `fock_truncate`), which is exact
  on the kept levels, so no padded levels and no matrix exponential are
  needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import SectorDensityMatrix, _check_tolerance, _require_finite
from .errors import TruncationError, UnphysicalFormError
from .laziness import DEFAULT_TOL

__all__ = [
    "GaussianStandardForm",
    "CovarianceState",
    "UncertaintyCheck",
    "KernelPair",
    "characteristic_function",
    "standard_form_from_covariance",
    "check_uncertainty",
    "commutator_kernels",
    "kernel_determinant",
    "kernel_quadratic_closed_form",
    "kernel_quadratic_difference",
    "is_lazy_gaussian",
    "squeezed_thermal_parameters",
    "squeezed_thermal_form",
    "fock_truncate",
    "random_standard_form",
]

#: slack allowed below the exact nu_minus >= 1 physicality boundary
PHYSICALITY_TOL = 1e-9

#: maximum trace allowed outside the requested Fock block
MAX_TRACE_DEFICIT = 1e-6

COVARIANCE_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianStandardForm:
    """Standard-form parameters (n, m, c, c') of a two-mode covariance."""

    n: float
    m: float
    c: float
    c_prime: float

    def __post_init__(self):
        for name in ("n", "m", "c", "c_prime"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"non-finite standard-form parameter {name} = {value}")
            object.__setattr__(self, name, value)
        if self.n < 1.0 - PHYSICALITY_TOL or self.m < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalFormError(
                f"local variances must be >= 1, got n={self.n}, m={self.m}"
            )

    def matrix(self) -> np.ndarray:
        """The 4x4 standard-form covariance matrix."""
        n, m, c, cp = self.n, self.m, self.c, self.c_prime
        return np.array(
            [
                [n, 0.0, c, 0.0],
                [0.0, n, 0.0, cp],
                [c, 0.0, m, 0.0],
                [0.0, cp, 0.0, m],
            ]
        )


class CovarianceState:
    """General two-mode covariance matrix with displacement vector.

    The displacement is stored but plays no role in the laziness decision,
    which depends only on the second moments.
    """

    def __init__(self, V, d=None):
        V = np.array(V, dtype=float)
        if V.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got {V.shape}")
        _require_finite(V, "covariance matrix V")
        dev = float(np.abs(V - V.T).max())
        if dev > COVARIANCE_SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric: deviation {dev:.3e}")
        if d is None:
            d = np.zeros(4)
        else:
            d = np.array(d, dtype=float)
            if d.shape != (4,):
                raise ValueError(f"displacement must have 4 entries, got shape {d.shape}")
            _require_finite(d, "displacement d")
        V.setflags(write=False)
        d.setflags(write=False)
        self.V = V
        self.d = d


@dataclass(frozen=True)
class UncertaintyCheck:
    physical: bool
    nu_minus: float
    nu_plus: float


@dataclass(frozen=True)
class KernelPair:
    """The two overlap kernels; `minus` is the entrywise conjugate of `plus`."""

    plus: np.ndarray
    minus: np.ndarray


def characteristic_function(
    form: GaussianStandardForm, lambda1: complex, lambda2: complex
) -> float:
    """chi(l1, l2) = exp(-xi^T M xi / 2) at zero displacement."""
    lambda1 = complex(lambda1)
    lambda2 = complex(lambda2)
    xi = np.array([lambda1.imag, lambda1.real, lambda2.imag, lambda2.real])
    return float(np.exp(-0.5 * xi @ form.matrix() @ xi))


def check_uncertainty(form: GaussianStandardForm) -> UncertaintyCheck:
    """Symplectic eigenvalues of the standard form and the physicality verdict."""
    n, m, c, cp = form.n, form.m, form.c, form.c_prime
    delta = n * n + m * m + 2.0 * c * cp
    det_m = (n * m - c * c) * (n * m - cp * cp)
    inner = delta * delta - 4.0 * det_m
    if inner < -1e-9 * max(1.0, delta * delta):
        raise ValueError(
            "malformed standard form: complex symplectic spectrum "
            f"(discriminant {inner:.3e})"
        )
    root = math.sqrt(max(inner, 0.0))
    nu_minus = math.sqrt(max((delta - root) / 2.0, 0.0))
    nu_plus = math.sqrt((delta + root) / 2.0)
    return UncertaintyCheck(
        physical=nu_minus >= 1.0 - PHYSICALITY_TOL,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
    )


def _unit_det_whitener(block: np.ndarray, label: str) -> np.ndarray:
    """Unit-determinant congruence taking a PD 2x2 block to sqrt(det) I."""
    w, q = np.linalg.eigh(block)
    if w[0] <= 0.0:
        raise UnphysicalFormError(
            f"covariance block {label} is not positive definite "
            f"(eigenvalue {w[0]:.3e})"
        )
    scale = math.sqrt(math.sqrt(w[0] * w[1]))
    return (q / np.sqrt(w)) @ q.T * scale


def standard_form_from_covariance(cov: CovarianceState) -> GaussianStandardForm:
    """Standard form of a general covariance via its local invariants.

    With V = [[A, C], [C^T, B]] the parameters satisfy n = sqrt(det A),
    m = sqrt(det B), c c' = det C, and (nm - c^2)(nm - c'^2) = det V.
    They are computed by an explicit unit-determinant local reduction (an
    SVD of the whitened cross block) rather than by solving the invariant
    equations, which loses half the working precision whenever |c| and
    |c'| nearly coincide.  The sign/order ambiguity left by local
    operations is resolved by the convention c >= |c'| with c >= 0.
    """
    v = cov.V
    block_a, block_b, block_c = v[:2, :2], v[2:, 2:], v[:2, 2:]
    det_a = float(np.linalg.det(block_a))
    det_b = float(np.linalg.det(block_b))
    if det_a < 1.0 - PHYSICALITY_TOL or det_b < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalFormError(
            f"local determinant below vacuum: det A = {det_a:.6g}, "
            f"det B = {det_b:.6g}"
        )
    s1 = _unit_det_whitener(block_a, "A")
    s2 = _unit_det_whitener(block_b, "B")
    cross = s1 @ block_c @ s2.T
    u, sing, vt = np.linalg.svd(cross)
    orientation = float(np.sign(np.linalg.det(u) * np.linalg.det(vt)))
    form = GaussianStandardForm(
        n=math.sqrt(det_a),
        m=math.sqrt(det_b),
        c=float(sing[0]),
        c_prime=float(orientation * sing[1]),
    )
    chk = check_uncertainty(form)
    if not chk.physical:
        raise UnphysicalFormError(
            f"covariance violates the uncertainty relation: nu_minus = "
            f"{chk.nu_minus:.6g}"
        )
    return form


def commutator_kernels(form: GaussianStandardForm) -> KernelPair:
    """The 6x6 overlap kernels of the two commutator orderings."""
    n, m, c, cp = form.n, form.m, form.c, form.c_prime
    two_i = 2.0j
    plus = np.array(
        [
            [2 * n + 1, 0, c, 0, 1, two_i],
            [0, 2 * n + 1, 0, cp, -two_i, 1],
            [c, 0, m + 1, 0, 0, 0],
            [0, cp, 0, m + 1, 0, 0],
            [1, -two_i, 0, 0, 1, 0],
            [two_i, 1, 0, 0, 0, 1],
        ],
        dtype=complex,
    )
    minus = plus.conj()
    plus.setflags(write=False)
    minus.setflags(write=False)
    return KernelPair(plus=plus, minus=minus)


def kernel_determinant(form: GaussianStandardForm) -> float:
    """Closed form shared by det(plus) and det(minus)."""
    gap = 2.0 * (1.0 + form.m) * (2.0 + form.n)
    return (form.c**2 - gap) * (form.c_prime**2 - gap)


def kernel_quadratic_closed_form(
    form: GaussianStandardForm, u: complex, v: complex
) -> complex:
    """Closed form of the quadratic-form difference between the kernels."""
    u = complex(u)
    v = complex(v)
    gap = 2.0 * (1.0 + form.m) * (2.0 + form.n)
    return (8.0j * form.c_prime / (form.c_prime**2 - gap)) * u.imag * v.real - (
        8.0j * form.c / (form.c**2 - gap)
    ) * u.real * v.imag


def kernel_quadratic_difference(
    form: GaussianStandardForm, u: complex, v: complex
) -> complex:
    """B^T (plus^-1 - minus^-1) B with B = (uI, uR, vI, vR, uI, uR).

    minus is the complex conjugate of plus and B is real, so the two terms
    are conjugate and the difference is 2i Im(B^T plus^-1 B): one dense
    solve, independent of `kernel_quadratic_closed_form`; the CLI reports
    the gap between the two as `quadraticIdentityResidual`.
    """
    u = complex(u)
    v = complex(v)
    det = kernel_determinant(form)
    if abs(det) < 1e-12:
        raise np.linalg.LinAlgError("singular overlap kernels")
    b = np.array([u.imag, u.real, v.imag, v.real, u.imag, u.real])
    return 2j * float((b @ np.linalg.solve(commutator_kernels(form).plus, b)).imag)


def is_lazy_gaussian(form: GaussianStandardForm, tol: float = DEFAULT_TOL) -> bool:
    """Lazy iff both cross-correlations vanish, i.e. the state is a product."""
    tol = _check_tolerance(tol)
    chk = check_uncertainty(form)
    if not chk.physical:
        raise UnphysicalFormError(
            f"standard form violates the uncertainty relation: "
            f"nu_minus = {chk.nu_minus:.6g}"
        )
    return abs(form.c) < tol and abs(form.c_prime) < tol


def squeezed_thermal_parameters(form: GaussianStandardForm) -> tuple[float, float, float]:
    """Thermal parameters (a, b) and squeezing r realizing a c' = -c form.

    Solves n = a cosh^2(r) + b sinh^2(r), m = a sinh^2(r) + b cosh^2(r),
    c = (a + b) cosh(r) sinh(r).  Raises ValueError outside the subfamily
    or when the solution would need a thermal parameter below vacuum.
    """
    n, m, c, cp = form.n, form.m, form.c, form.c_prime
    if abs(c + cp) > 1e-9 * max(1.0, abs(c)):
        raise ValueError(
            f"standard form outside the squeezed-thermal family: c'={cp} != -c={-c}"
        )
    total = n + m
    if abs(c) < 1e-15:
        a, b, r = n, m, 0.0
    else:
        inner = total * total - 4.0 * c * c
        if inner <= 0:
            raise ValueError(
                f"no squeezed-thermal solution: |c|={abs(c)} too large for n+m={total}"
            )
        root = math.sqrt(inner)
        a = (root + (n - m)) / 2.0
        b = (root - (n - m)) / 2.0
        r = 0.5 * math.atanh(2.0 * c / total)
    if a < 1.0 - PHYSICALITY_TOL or b < 1.0 - PHYSICALITY_TOL:
        raise ValueError(
            f"no squeezed-thermal solution: thermal parameters a={a:.6g}, "
            f"b={b:.6g} below vacuum"
        )
    return a, b, r


def squeezed_thermal_form(a: float, b: float, r: float) -> GaussianStandardForm:
    """Standard form of a two-mode squeezer acting on two thermal states."""
    if a < 1.0 or b < 1.0:
        raise ValueError(f"thermal parameters must be >= 1, got a={a}, b={b}")
    ch, sh = math.cosh(r), math.sinh(r)
    c = (a + b) * ch * sh
    return GaussianStandardForm(
        n=a * ch * ch + b * sh * sh,
        m=a * sh * sh + b * ch * ch,
        c=c,
        c_prime=-c,
    )


def _thermal_ratio(a: float) -> float:
    """Boltzmann ratio q = nbar / (nbar + 1) = (a - 1) / (a + 1), 0 at vacuum.

    Thermal parameters within rounding of the vacuum (a recovered form can
    land just below a = 1) clamp to q = 0.
    """
    nbar = (a - 1.0) / 2.0
    return 0.0 if nbar < 1e-15 else nbar / (nbar + 1.0)


def _log_or_minus_inf(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def fock_truncate(form: GaussianStandardForm, cutoff: int) -> SectorDensityMatrix:
    """Truncated number-basis representation of a squeezed-thermal form.

    The state S(r) (rho_th(a) (x) rho_th(b)) S(r)^dag, S(r) the two-mode
    squeezer, is built from its normal-ordered closed form on the kept
    levels (cutoff + 1 per mode), then renormalized.  Raises
    TruncationError when the trace outside the block exceeds
    MAX_TRACE_DEFICIT, and ValueError for forms outside the c' = -c subfamily.

    With K+ = adag bdag, K- = a b and K0 = (N_a + N_b + 1)/2, a thermal
    state is (1 - q) q^N with q = (a - 1)/(a + 1), and multiplying in the
    2x2 representation of su(1,1) gives

        rho = (1 - q_a)(1 - q_b) q_a^d exp(alpha K+) (q_a q_b / D^2)^(N_b)
              D^-(d + 1) exp(alpha K-)

    on the sector of fixed d = n1 - n2 >= 0, where D = cosh^2 r -
    sinh^2 r q_a q_b and alpha = cosh r sinh r (1 - q_a q_b) / D.  On its
    states |k + d, k> the sector block is (1 - q_a)(1 - q_b) q_a^d L W L^T
    with the lower-triangular

        L[k, j] = alpha^(k - j) sqrt(C(k, j) C(k + d, j + d)),   k >= j,

    and W = diag((q_a q_b)^j / D^(2j + d + 1)); the mirror sector -d on
    |k, k + d> has q_b^d in place of q_a^d.  Since L is lower triangular,
    the kept rows are exact before renormalization: no padded levels
    enter, and the trace deficit is the true weight outside the block.

    The result is a `SectorDensityMatrix` that maps each shift d to its real
    block, in the order 0, 1, -1, 2, -2, ..., O(cutoff^3) numbers in all.
    Each block is formed as M M^T with M = L W^(1/2) evaluated in
    logarithms, so it is exactly symmetric, and one product serves the
    mirror sectors d and -d.  The dense
    (cutoff + 1)^2 matrix is assembled only when `.data` is read.
    """
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff}")
    a, b, r = squeezed_thermal_parameters(form)
    q_a, q_b = _thermal_ratio(a), _thermal_ratio(b)
    qq = q_a * q_b
    ch, sh = math.cosh(r), math.sinh(r)
    denom = ch * ch - sh * sh * qq
    alpha = ch * sh * (1.0 - qq) / denom
    keep = cutoff + 1
    n = np.arange(keep)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(keep)])
    # log of alpha^(k-j) / (k-j)! at k >= j, -inf above the diagonal; the
    # power is taken from n = 1 on, so alpha = 0 leaves 0 on the diagonal
    log_power = np.concatenate(([0.0], n[1:] * _log_or_minus_inf(abs(alpha))))
    lag = n[:, None] - n[None, :]
    log_toeplitz = np.where(lag >= 0, (log_power - log_fact)[np.abs(lag)], -np.inf)
    log_qq = np.concatenate(([0.0], n[1:] * _log_or_minus_inf(qq)))
    products = []
    for shift in range(keep):
        size = keep - shift
        k = n[:size]
        # sqrt(C(k, j) C(k + d, j + d)) (k - j)! = exp(half[k] - half[j])
        half = 0.5 * (log_fact[:size] + log_fact[shift:])
        log_w = log_qq[:size] - (2 * k + shift + 1) * math.log(denom)
        m = np.add.outer(half, 0.5 * log_w - half)
        m += log_toeplitz[:size, :size]
        np.exp(m, out=m)
        if alpha < 0.0:
            # alpha^(k-j) = (-1)^k (-1)^j |alpha|^(k-j); the column signs
            # cancel in M M^T
            m[1::2] *= -1.0
        products.append(m @ m.T)
    scale = (1.0 - q_a) * (1.0 - q_b)
    tr = scale * sum(
        (q_a**shift + (q_b**shift if shift else 0.0)) * np.trace(prod)
        for shift, prod in enumerate(products)
    )
    deficit = 1.0 - tr
    if deficit > MAX_TRACE_DEFICIT:
        raise TruncationError(
            f"truncation trace deficit {deficit:.3e} exceeds {MAX_TRACE_DEFICIT:g}; "
            "increase the cutoff"
        )
    sectors = {}
    for shift, prod in enumerate(products):
        sectors[shift] = prod
        if shift:
            # the mirror sector -shift, on |k, k + shift>, before the
            # sector +shift is scaled in place
            sectors[-shift] = prod * (scale * q_b**shift / tr)
        prod *= scale * q_a**shift / tr
    return SectorDensityMatrix(keep, keep, sectors)


def random_standard_form(
    rng: np.random.Generator, family: str = "mixed"
) -> GaussianStandardForm:
    """Sample a physical standard form for property batteries.

    `family="squeezed_thermal"` draws thermal parameters in [1, 4] and a
    squeezing in [0, 0.8]; `"general"` rejection-samples independent
    (c, c') against the uncertainty relation; `"mixed"` picks either with
    equal probability.
    """
    if family not in ("mixed", "squeezed_thermal", "general"):
        raise ValueError(f"unknown family {family!r}")
    choice = family
    if family == "mixed":
        choice = "squeezed_thermal" if rng.random() < 0.5 else "general"
    if choice == "squeezed_thermal":
        a, b = rng.uniform(1.0, 4.0, size=2)
        r = rng.uniform(0.0, 0.8)
        return squeezed_thermal_form(a, b, r)
    while True:
        n, m = rng.uniform(1.0, 4.0, size=2)
        c, cp = rng.uniform(-2.0, 2.0, size=2)
        form = GaussianStandardForm(n=n, m=m, c=c, c_prime=cp)
        try:
            if check_uncertainty(form).physical:
                return form
        except ValueError:
            continue
