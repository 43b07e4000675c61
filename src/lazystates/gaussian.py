"""Two-mode Gaussian states in covariance standard form.

A two-mode Gaussian state is fixed, up to local unitaries and displacement,
by the quadruple (n, m, c, c') of its standard-form covariance matrix

    M = [[n, 0,  c,  0 ],
         [0, n,  0,  c'],
         [c, 0,  m,  0 ],
         [0, c', 0,  m ]],

written in (Im l1, Re l1, Im l2, Re l2) ordering of the characteristic
function chi(l1, l2) = exp(-xi^T M xi / 2), with the vacuum normalized to
M = I.  The form is physical (M + i Omega >= 0) exactly when M > 0, i.e.
n, m > 0, n m > c^2 and n m > c'^2, and its smaller symplectic eigenvalue
satisfies nu_minus >= 1, where

    nu_pm^2 = (Delta pm sqrt(Delta^2 - 4 det M)) / 2,
    Delta   = n^2 + m^2 + 2 c c',
    det M   = (n m - c^2)(n m - c'^2).

The nu_minus condition alone is not enough: M = (1, 1, 3, 3) has nu = 2, 4
but eigenvalues -2 and 4.  A `GaussianStandardForm` exists only if it is
physical, so nothing downstream checks physicality again.  For M > 0,
nu_minus <= min(n, m), and n, m >= 1 is still checked directly, before
M > 0 and nu_minus, so a sub-vacuum variance is named as such.

Once m^2 dominates Delta, Delta - sqrt(Delta^2 - 4 det M) cancels even
when nm - c^2 keeps all its digits, so nu_minus is taken from the Vieta
form nu_minus^2 = 2 det M / (Delta + root), with the discriminant written
without Delta^2:

    root^2 = Delta^2 - 4 det M = (n^2 - m^2)^2 + 4 (n c + m c')(n c' + m c).

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
  shift n1 - n2, and `fock_truncate` is the one maker of the
  `SectorDensityMatrix` that stores and validates it; the commutator test
  reads the sectors without the dense (cutoff + 1)^2-square matrix.
  Sectors d and -d share one product M_d M_d^T, so the state holds stacks
  of those products with their shifts d >= 0 and one weight per product
  and sign; where each sector lies follows from d alone.  Each
  product comes from the normal-ordered su(1,1) closed form of the
  squeezed thermal state (see `fock_truncate`), which is exact on the kept
  levels, so no padded levels and no matrix exponential are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bloch import (
    SectorDensityMatrix,
    _check_hermitian,
    _check_tolerance,
    _number_array,
    _require_finite,
)
from ._scalars import _scalar
from .errors import TruncationError, UnphysicalFormError
from .laziness import DEFAULT_TOL

__all__ = [
    "GaussianStandardForm",
    "CovarianceState",
    "KernelPair",
    "standard_form_from_covariance",
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

#: largest local variance accepted: nu_minus, nu_plus and the kernel
#: determinant are formed from fourth-degree products of the parameters,
#: at most 17 max(n, m)^4 = 1.7e305 here, within the float range; past
#: about 1e77 they overflow
_MAX_VARIANCE = 1e76

#: largest gap accepted between `kernel_quadratic_difference` and its closed form
QUADRATIC_IDENTITY_TOL = 1e-9

#: maximum trace allowed outside the requested Fock block
MAX_TRACE_DEFICIT = 1e-6

#: entries (64 KiB of float64) of the sectors one stack of Fock products
#: M_d M_d^T is read as, sectors +d and -d alike; a product whose sectors
#: take more is a stack of its own
_GROUP_ENTRIES = 8192


#: the entries of `GaussianStandardForm._kernels`' plus that no form sets
_PLUS_TEMPLATE = np.array(
    [
        [0, 0, 0, 0, 1, 2j],
        [0, 0, 0, 0, -2j, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, -2j, 0, 0, 1, 0],
        [2j, 1, 0, 0, 0, 1],
    ]
)
_PLUS_TEMPLATE.setflags(write=False)


@dataclass(frozen=True)
class GaussianStandardForm:
    """Standard-form parameters (n, m, c, c') of a physical two-mode covariance.

    Construction raises UnphysicalFormError unless n, m >= 1 -
    PHYSICALITY_TOL, M > 0 and nu_minus >= 1 - PHYSICALITY_TOL, and
    ValueError for a parameter that is not a real number (a str or a bool;
    `_scalar`), a non-finite one or a variance n or m above 1e76, whose
    fourth power leaves the float range; the symplectic
    eigenvalues are kept as `nu_minus` and `nu_plus`.  The
    commutator kernels and the imaginary part of the inverse of `plus`
    are built on first read and kept, so every kernel identity checked on
    one form shares them.
    """

    n: float
    m: float
    c: float
    c_prime: float
    nu_minus: float = field(init=False, repr=False, compare=False)
    nu_plus: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _scalar(self.n, "standard-form parameter n must be a real number")
        m = _scalar(self.m, "standard-form parameter m must be a real number")
        c = _scalar(self.c, "standard-form parameter c must be a real number")
        cp = _scalar(self.c_prime, "standard-form parameter c_prime must be a real number")
        if not (math.isfinite(n) and math.isfinite(m) and math.isfinite(c) and math.isfinite(cp)):
            params = zip(("n", "m", "c", "c_prime"), (n, m, c, cp))
            name, value = next((name, value) for name, value in params if not math.isfinite(value))
            raise ValueError(f"non-finite standard-form parameter {name} = {value}")
        if n < 1.0 - PHYSICALITY_TOL or m < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalFormError(f"local variances must be >= 1, got n={n}, m={m}")
        if n > _MAX_VARIANCE or m > _MAX_VARIANCE:
            raise ValueError(f"local variances must be <= {_MAX_VARIANCE:g}, got n={n}, m={m}")
        if not (n * m > c * c and n * m > cp * cp):
            raise UnphysicalFormError(
                f"standard form (n, m, c, c') = ({n:.6g}, {m:.6g}, {c:.6g}, {cp:.6g}) "
                "is not positive definite: needs nm > c^2 and nm > c'^2"
            )
        delta = n * n + m * m + 2.0 * c * cp
        det_m = (n * m - c * c) * (n * m - cp * cp)
        # root^2 >= 0 for M > 0; the clamp only absorbs rounding
        disc = (n * n - m * m) ** 2 + 4.0 * (n * c + m * cp) * (n * cp + m * c)
        root = math.sqrt(max(disc, 0.0))
        # Delta + root > 0 for M > 0, and the sum does not cancel
        nu_minus = math.sqrt(2.0 * det_m / (delta + root))
        if nu_minus < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalFormError(
                f"standard form violates the uncertainty relation: "
                f"nu_minus = {nu_minus:.6g}"
            )
        # frozen: the converted parameters and the eigenvalues go in at once
        self.__dict__.update(
            n=n, m=m, c=c, c_prime=cp,
            nu_minus=nu_minus, nu_plus=math.sqrt((delta + root) / 2.0),
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

    @cached_property
    def _kernels(self) -> KernelPair:
        n, m, c, cp = self.n, self.m, self.c, self.c_prime
        plus = _PLUS_TEMPLATE.copy()
        plus[0, 0] = plus[1, 1] = 2 * n + 1
        plus[0, 2] = plus[2, 0] = c
        plus[1, 3] = plus[3, 1] = cp
        plus[2, 2] = plus[3, 3] = m + 1
        minus = plus.conj()
        plus.setflags(write=False)
        minus.setflags(write=False)
        return KernelPair(plus=plus, minus=minus)

    @cached_property
    def _plus_inverse_imag(self) -> np.ndarray:
        """Im(plus^-1), real and read-only: all the quadratic forms read."""
        imag = np.linalg.inv(self._kernels.plus).imag.copy()
        imag.setflags(write=False)
        return imag


class CovarianceState:
    """General two-mode covariance matrix with displacement vector.

    The displacement is stored but plays no role in the laziness decision,
    which depends only on the second moments.  `V` and `d` are read as real
    numbers (`_number_array`), a boolean or null named by its position,
    e.g. "boolean true at $.V[0][0]".
    """

    def __init__(self, V, d=None):
        V = _number_array(V, "covariance matrix V", "$.V", real=True)
        if V.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got {V.shape}")
        # the one scan rejects a NaN or Inf as well as an asymmetry
        _check_hermitian(V, " of covariance matrix V")
        if d is None:
            d = np.zeros(4)
        else:
            d = _number_array(d, "displacement d", "$.d", real=True)
            if d.shape != (4,):
                raise ValueError(f"displacement must have 4 entries, got shape {d.shape}")
            _require_finite(d, "displacement d")
        V.setflags(write=False)
        d.setflags(write=False)
        self.V = V
        self.d = d


@dataclass(frozen=True)
class KernelPair:
    """The two overlap kernels; `minus` is the entrywise conjugate of `plus`."""

    plus: np.ndarray
    minus: np.ndarray


def _unit_det_whitener(
    a11: float, a12: float, a22: float, root_det: float, label: str
) -> tuple[float, float, float]:
    """Entries (s11, s12, s22) of the symmetric S with S A S^T = sqrt(det A) I.

    For a 2x2 positive definite A with s = sqrt(det A), sqrt(A) = (A + sI)
    / sqrt(tr A + 2s), so S = sqrt(s) A^(-1/2) = adj(A + sI) / (sqrt(s)
    sqrt(tr A + 2s)), and det S = 1.  With det A > 0 already checked, A is
    positive definite exactly when its trace is positive.
    """
    trace = a11 + a22
    if not trace > 0.0:
        raise UnphysicalFormError(
            f"covariance block {label} is not positive definite (trace {trace:.3e})"
        )
    scale = 1.0 / math.sqrt(root_det * (trace + 2.0 * root_det))
    return (a22 + root_det) * scale, -a12 * scale, (a11 + root_det) * scale


def standard_form_from_covariance(cov: CovarianceState) -> GaussianStandardForm:
    """Standard form of a general covariance via an explicit local reduction.

    With V = [[A, C], [C^T, B]] the parameters satisfy n = sqrt(det A),
    m = sqrt(det B), c c' = det C, and (nm - c^2)(nm - c'^2) = det V
    (Simon, PRL 84, 2726 (2000); Serafini, Illuminati & De Siena, J. Phys.
    B 37, L21 (2004)).  Solving those invariant equations loses half the
    working precision whenever |c| and |c'| nearly coincide, so the
    parameters come from a unit-determinant local reduction instead, all
    in closed-form 2x2 arithmetic on Python floats: the whiteners S_A and
    S_B of `_unit_det_whitener` take the cross block to X = S_A C S_B^T,
    whose singular values are Q + R and |Q - R| with

        Q = hypot(x11 + x22, x21 - x12) / 2,
        R = hypot(x11 - x22, x21 + x12) / 2,

    and det X = Q^2 - R^2.  So c = Q + R and c' = Q - R carry the
    convention c >= |c'|, c >= 0 and the sign of det C by construction.
    c' is not taken as det C / c: a pure state lies on the boundary
    nu_minus = 1, where nu_minus has a square-root singularity in the
    parameters, so every extra rounding of c' shows in the verdict, and
    locally scrambled two-mode squeezed vacua near r = 4 are rejected
    more often through that quotient than through Q - R.

    The upper triangle of V is read; `CovarianceState` has checked that V
    is symmetric.  Finite entries can still give a local determinant
    beyond the float range, which raises ValueError naming it and the
    1e76 bound on local variances.
    """
    v = cov.V.tolist()
    a11, a12, c11, c12 = v[0]
    a22, c21, c22 = v[1][1:]
    b11, b12 = v[2][2:]
    b22 = v[3][3]
    det_a = a11 * a22 - a12 * a12
    det_b = b11 * b22 - b12 * b12
    if det_a < 1.0 - PHYSICALITY_TOL or det_b < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalFormError(
            f"local determinant below vacuum: det A = {det_a:.6g}, "
            f"det B = {det_b:.6g}"
        )
    # finite entries whose products overflow: a NaN or Inf determinant would
    # whiten to NaN and surface as a non-finite parameter
    if not (math.isfinite(det_a) and math.isfinite(det_b)):
        raise ValueError(
            f"local determinant beyond the float range: det A = {det_a:.6g}, "
            f"det B = {det_b:.6g}; local variances must be <= {_MAX_VARIANCE:g}"
        )
    n, m = math.sqrt(det_a), math.sqrt(det_b)
    p11, p12, p22 = _unit_det_whitener(a11, a12, a22, n, "A")
    q11, q12, q22 = _unit_det_whitener(b11, b12, b22, m, "B")
    # T = S_A C, then X = T S_B (S_B is symmetric)
    t11, t12 = p11 * c11 + p12 * c21, p11 * c12 + p12 * c22
    t21, t22 = p12 * c11 + p22 * c21, p12 * c12 + p22 * c22
    x11, x12 = t11 * q11 + t12 * q12, t11 * q12 + t12 * q22
    x21, x22 = t21 * q11 + t22 * q12, t21 * q12 + t22 * q22
    q = math.hypot(x11 + x22, x21 - x12) / 2.0
    r = math.hypot(x11 - x22, x21 + x12) / 2.0
    return GaussianStandardForm(n=n, m=m, c=q + r, c_prime=q - r)


def commutator_kernels(form: GaussianStandardForm) -> KernelPair:
    """The 6x6 overlap kernels of the two commutator orderings.

    The pair is built once per form and kept; both arrays are read-only.
    """
    return form._kernels


def kernel_determinant(form: GaussianStandardForm) -> float:
    """Closed form shared by det(plus) and det(minus)."""
    gap = 2.0 * (1.0 + form.m) * (2.0 + form.n)
    return (form.c**2 - gap) * (form.c_prime**2 - gap)


def kernel_quadratic_closed_form(
    form: GaussianStandardForm, u: complex, v: complex
) -> complex:
    """Closed form of the quadratic-form difference between the kernels;
    `u` and `v` are read as complex numbers (`_scalar`)."""
    u = _scalar(u, "u must be a complex number", kind=complex)
    v = _scalar(v, "v must be a complex number", kind=complex)
    gap = 2.0 * (1.0 + form.m) * (2.0 + form.n)
    return (8.0j * form.c_prime / (form.c_prime**2 - gap)) * u.imag * v.real - (
        8.0j * form.c / (form.c**2 - gap)
    ) * u.real * v.imag


def kernel_quadratic_difference(
    form: GaussianStandardForm, u: complex, v: complex
) -> complex:
    """B^T (plus^-1 - minus^-1) B with B = (uI, uR, vI, vR, uI, uR).

    minus is the complex conjugate of plus and B is real, so the two terms
    are conjugate and the difference is 2i B^T Im(plus^-1) B.  plus^-1 is
    one dense numerical inverse per form, computed on first use, and its
    imaginary part is kept and shared by every probe (u, v) of that form;
    it stays independent of `kernel_quadratic_closed_form`, and the CLI
    reports the gap between the two as `quadraticIdentityResidual`.  `u`
    and `v` are read as complex numbers (`_scalar`).
    """
    u = _scalar(u, "u must be a complex number", kind=complex)
    v = _scalar(v, "v must be a complex number", kind=complex)
    b = np.array([u.imag, u.real, v.imag, v.real, u.imag, u.real])
    return 2j * float(b @ form._plus_inverse_imag @ b)


def is_lazy_gaussian(form: GaussianStandardForm, tol: float = DEFAULT_TOL) -> bool:
    """Lazy iff both cross-correlations vanish, i.e. the state is a product."""
    tol = _check_tolerance(tol)
    return abs(form.c) < tol and abs(form.c_prime) < tol


def squeezed_thermal_parameters(form: GaussianStandardForm) -> tuple[float, float, float]:
    """Thermal parameters (a, b) and squeezing r realizing a c' = -c form.

    Solves n = a cosh^2(r) + b sinh^2(r), m = a sinh^2(r) + b cosh^2(r),
    c = (a + b) cosh(r) sinh(r).  Raises ValueError only outside the
    subfamily.  Near a pure state the exact b of the rounded form can lie
    below 1, and b can come back more than PHYSICALITY_TOL below 1;
    `fock_truncate` reads it as the vacuum.
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
        # (n + m)^2 - 4 c^2 = (n - m)^2 + 4 (nm - c^2) > 0 since M > 0
        root = math.sqrt(total * total - 4.0 * c * c)
        a = (root + (n - m)) / 2.0
        b = (root - (n - m)) / 2.0
        r = 0.5 * math.atanh(2.0 * c / total)
    return a, b, r


def squeezed_thermal_form(a: float, b: float, r: float) -> GaussianStandardForm:
    """Standard form of a two-mode squeezer acting on two thermal states.

    Raises ValueError for a thermal parameter below 1 - PHYSICALITY_TOL,
    which the parameters recovered from a near-pure form can be.
    """
    if a < 1.0 - PHYSICALITY_TOL or b < 1.0 - PHYSICALITY_TOL:
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


@lru_cache(maxsize=4)
def _fock_tables(cutoff: int) -> tuple:
    """The tables of `fock_truncate` at `cutoff` that no form changes; cached.

    Returns (n, log_fact, half, clamped, plan), the arrays read-only: n =
    0, ..., cutoff and log_fact its log n!; the half tables clamped[d, k]
    = (log k! + log min(k + d, cutoff)!) / 2 and half, the same with -inf
    where k + d > cutoff; and the plan, one (first, stop) per group of
    shifts first, ..., stop - 1, padded to the size keep - first of the
    first.  The tables take about 1.1 MB at cutoff 200, 2.4 MB at 300, so
    a few cutoffs are kept.
    """
    keep = cutoff + 1
    n = np.arange(keep)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(keep)])
    clamped = 0.5 * (log_fact + log_fact[np.minimum(n[:, None] + n, cutoff)])
    half = np.where(n[:, None] + n > cutoff, -np.inf, clamped)
    plan = []
    first = 0
    while first < keep:
        size = keep - first
        stop = min(keep, first + max(1, (_GROUP_ENTRIES // (size * size) + (first == 0)) // 2))
        plan.append((first, stop))
        first = stop
    for table in (n, log_fact, clamped, half):
        table.setflags(write=False)
    return n, log_fact, half, clamped, tuple(plan)


def fock_truncate(form: GaussianStandardForm, cutoff: int) -> SectorDensityMatrix:
    """Truncated number-basis representation of a squeezed-thermal form.

    The state S(r) (rho_th(a) (x) rho_th(b)) S(r)^dag, S(r) the two-mode
    squeezer, is built from its normal-ordered closed form on the kept
    levels (cutoff + 1 per mode), then renormalized.  Raises
    TruncationError when the trace outside the block exceeds
    MAX_TRACE_DEFICIT, and ValueError for a cutoff that is not an integer
    >= 4 or a form outside the c' = -c subfamily.

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

    The result is a `SectorDensityMatrix` of the real blocks of the shifts
    d = 0, 1, -1, 2, -2, ..., O(cutoff^3) numbers in all.
    Each block is w_d M M^T with M = L W^(1/2) evaluated in logarithms, so
    M M^T is exactly symmetric, and the state holds it once for the two
    mirror sectors: w_d = scale q_a^d / tr for d and scale q_b^d / tr for
    -d, scale = (1 - q_a)(1 - q_b) and tr the truncated trace.  The
    tables no form changes come from `_fock_tables`, built once per
    cutoff; the row and column log terms of every M are rows of its half
    table and of one (cutoff + 1)^2 column table per form.  Consecutive
    shifts d >= 0 are formed a group at a time, padded to the size of the
    first: the log rows past each shift's kept levels are -inf, and exp
    fills a zeroed stack where the log is finite alone, so the padding is
    exact zeros, as the state's scan and sums require.  A group
    is one (g, s, s) stack of the unweighted M M^T, whose sectors take at
    most _GROUP_ENTRIES padded entries unless it is one shift.  It goes
    to the state as it is, with views of its shifts d and of the columns d
    of one (2, cutoff + 1) weight table: row 0 holds w_d for the sectors
    d, row 1 w_-d for their mirrors, and the mirror of sector 0, which is
    no sector, weighs 0.  A vacuum mode (q = 0) zeroes a row but for
    sector 0, so the weights stay off the stack.  A group costs one exp,
    one batched M M^T and one trace, whatever its number of shifts.  The
    blocks w_d M M^T are formed only when `.sectors` is read, and the
    dense (cutoff + 1)^2 matrix only when `.data` is read.
    """
    cutoff = _scalar(cutoff, "cutoff must be an integer >= 4", lambda v: v >= 4, int)
    a, b, r = squeezed_thermal_parameters(form)
    q_a, q_b = _thermal_ratio(a), _thermal_ratio(b)
    qq = q_a * q_b
    ch, sh = math.cosh(r), math.sinh(r)
    denom = ch * ch - sh * sh * qq
    alpha = ch * sh * (1.0 - qq) / denom
    keep = cutoff + 1
    n, log_fact, half, clamped, plan = _fock_tables(cutoff)
    # log of alpha^(k-j) / (k-j)! at k >= j, -inf above the diagonal, as a
    # Toeplitz view of one run: entry (k, j) is lags[cutoff - k + j]; the
    # power is taken from n = 1 on, so alpha = 0 leaves 0 on the diagonal
    log_power = np.concatenate(([0.0], n[1:] * _log_or_minus_inf(abs(alpha))))
    lags = np.full(2 * keep - 1, -np.inf)
    lags[cutoff::-1] = log_power - log_fact
    step = lags.itemsize
    log_toeplitz = np.ndarray(
        (keep, keep), lags.dtype, lags, offset=cutoff * step, strides=(-step, step)
    )
    log_qq = np.concatenate(([0.0], n[1:] * _log_or_minus_inf(qq)))
    # row d of each table serves sector d on its first keep - d entries:
    # sqrt(C(k, j) C(k + d, j + d)) (k - j)! = exp(half[d, k] - half[d, j])
    # with half[d, k] = (log k! + log (k + d)!) / 2, and col[d, j] =
    # log W[d, j] / 2 - half[d, j] with log W[d, j] = j log(q_a q_b) -
    # (2j + d + 1) log D.  Past the kept levels col stays finite (it takes
    # the clamped half), and every M entry it reaches lies above the
    # diagonal or in a padded row; half is -inf in the padded rows
    # col = log_qq / 2 - (j + (d + 1) / 2) log D - clamped, in place
    col = n + 0.5 * (n[:, None] + 1)
    col *= math.log(denom)
    np.subtract(0.5 * log_qq, col, out=col)
    col -= clamped
    stacks = []
    # tr(M M^T) per shift
    norms = np.empty(keep)
    for first, stop in plan:
        size = keep - first
        log_m = half[first:stop, :size, None] + col[first:stop, None, :size]
        log_m += log_toeplitz[:size, :size]
        # exp(-inf) is exactly 0, so exp runs on the finite logs alone
        m = np.zeros_like(log_m)
        np.exp(log_m, out=m, where=log_m > -np.inf)
        if alpha < 0.0:
            # alpha^(k-j) = (-1)^k (-1)^j |alpha|^(k-j); the column signs
            # cancel in M M^T
            m[:, 1::2] *= -1.0
        stack = np.matmul(m, m.transpose(0, 2, 1))
        norms[first:stop] = stack.trace(axis1=1, axis2=2)
        stacks.append(stack)
    # free the per-form tables before the state is checked
    del lags, log_toeplitz, col, log_m, m
    scale = (1.0 - q_a) * (1.0 - q_b)
    # row 0 weighs sector d by q_a^d, row 1 its mirror -d by q_b^d; the
    # mirror of sector 0 is no sector
    powers = np.array([[q_a], [q_b]]) ** n
    powers[1, 0] = 0.0
    tr = scale * float(norms @ powers.sum(axis=0))
    deficit = 1.0 - tr
    if deficit > MAX_TRACE_DEFICIT:
        raise TruncationError(
            f"truncation trace deficit {deficit:.3e} exceeds {MAX_TRACE_DEFICIT:g}; "
            "increase the cutoff"
        )
    weights = powers * scale / tr
    weights.setflags(write=False)
    stacks = [
        (stack, n[first:stop], weights[:, first:stop]) for stack, (first, stop) in zip(stacks, plan)
    ]
    return SectorDensityMatrix._of(keep, keep, stacks)


def random_standard_form(
    rng: np.random.Generator, family: str = "mixed"
) -> GaussianStandardForm:
    """Sample a physical standard form for property batteries.

    `family="squeezed_thermal"` draws thermal parameters in [1, 4] and a
    squeezing in [0, 0.8]; `"general"` draws n, m in [1, 4] and independent
    c, c' in [-2, 2] until the draw is a physical form (M > 0 and
    nu_minus >= 1, as `GaussianStandardForm` requires); `"mixed"` picks
    either with equal probability.
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
        try:
            return GaussianStandardForm(n=n, m=m, c=c, c_prime=cp)
        except UnphysicalFormError:
            continue
