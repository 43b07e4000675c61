"""Subsystem entropy rates under random couplings.

For a lazy state the entropy of the distinguished subsystem is stationary
at t = 0 under *every* joint Hamiltonian; conversely a nonzero rate under
some coupling witnesses non-laziness.  The rate is linear in the coupling,

    dS_A/dt = tr(H K),    K = i [rho, log2(rho_A) (x) I]

(mirrored for B), with log2 taken on the support of the reduced state.
K is the state's commutator kernel, `rho._commutator`, applied to
log2(rho_A) in place of rho_A, with rho_A the raw marginal
`rho._partial_trace(side)` of a checked side, the marginal whose
commutator norm `laziness.commutator_residual` reads (`rho._residual`).  K is
notation only: the code forms c = [rho, log2(rho_A) (x) I] = -i K and
reads every rate off c, tr(H K) = Re vdot(K, H) = Im vdot(c, H).
This is exact for rank-deficient marginals too: rho >= 0 makes the kernel
block of d(rho_A)/dt vanish, so the kernel eigenvalues move only at O(t^2).
A central finite difference of the entropy along the exact unitary
evolution remains only as the `method="fd"` cross-check.

Because the rate is the inner product of H with the fixed Hermitian K,
its supremum over couplings with ||H||_F = 1 is ||K||_F, attained by
H* = K / ||K||_F; `dynamics_audit` reports it as `rate_bound` next to the
sampled maximum.

`dynamics_audit` judges consistency with fixed thresholds: the verdict
tolerance `laziness.DEFAULT_TOL`, LAZY_RATE_TOL for the rates of a lazy
state and NONLAZY_RATE_FLOOR for those of a non-lazy one.

Seeding: an audit with seed s uses the product couplings H_i = A_i (x) B_i
of `product_couplings(dim_a, dim_b, trials, s)`, one draw of n_A^2 + n_B^2
normals per trial from `np.random.default_rng(s)`, so a k-trial audit is a
prefix of any longer one with the same seed.  Row i of the draw holds G_A,
then G_B, each an n x n block in row-major order, and each factor is the
Hermitian part of (1+i) G,

    A = herm((1+i) G) = ((G + G^T) + i (G - G^T)) / 2,

so G holds A's coordinates over the Frobenius-orthonormal basis {E_kk,
((1+i) E_kl + (1-i) E_lk)/2 : k != l}.  This is the law of the GUE factor
(G + G^dag)/2 from n^2 normals instead of 2 n^2, with ||A||_F = ||G||_F.
Products span every coupling and keep the GUE entry covariance, so each
rate has second moment ||K||_F^2.

An audit does each piece of work once and forms no factor.  It checks its
side once and forms the raw marginal `rho._partial_trace(side)` once, for
both the verdict residual and log2(rho_side).  The map from a draw to its
factor is vec(A) = a g + conj(a) P g, with a = (1+i)/2 and P the
transpose, so the rate is a real bilinear form in the draw row, rate_i =
g_i^T R h_i, whose kernel R (n_A^2 x n_B^2) is four strided views of c
(`_rate_kernel`): one real matrix product gives every rate.  R holds the coordinates of K over the
orthonormal product basis, so ||R||_F = ||K||_F = ||c||_F = rate_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bloch import (
    DensityMatrix,
    Side,
    _check_hermitian,
    _check_side,
    _frobenius,
    _number_array,
    reduced_state,
)
from ._scalars import _scalar
from .errors import DimensionMismatchError
from .laziness import DEFAULT_TOL

__all__ = [
    "Coupling",
    "DynamicsAudit",
    "entropy",
    "evolve",
    "entropy_rate",
    "product_couplings",
    "random_coupling",
    "derive_trial_seed",
    "dynamics_audit",
]

#: central finite-difference half-step of the `method="fd"` cross-check
FD_STEP = 1e-5

#: largest audit rate of a lazy state; its exact rates are rounding noise, ~1e-15
LAZY_RATE_TOL = 1e-8
#: a non-lazy audit must sample a rate above this; calibrated on the package's
#: families, whose audit rates have second moment `rate_bound`^2
NONLAZY_RATE_FLOOR = 1e-3

RateMethod = Literal["analytic", "fd"]


def _hamiltonian(value, name: str) -> np.ndarray:
    """`value` as a new complex matrix, checked as a state's matrix is: a
    string, boolean or null entry, a non-square shape, a NaN or Inf and an
    asymmetry above HERMITICITY_TOL each raise an error naming `name`."""
    h = _number_array(value, name).astype(complex, copy=False)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {h.shape}")
    _check_hermitian(h, f" of the {name}")
    return h


def _check_fits(rho: DensityMatrix, h: np.ndarray, name: str) -> None:
    """DimensionMismatchError naming `name` unless `h` has the shape of the state's matrix."""
    if h.shape != rho.data.shape:
        raise DimensionMismatchError(
            f"{name} shape {h.shape} does not match state shape {rho.data.shape}"
        )


@dataclass(frozen=True)
class Coupling:
    """Hermitian joint Hamiltonian with its generating seed.

    Validated as a state's matrix is (`_hamiltonian`): a string, boolean
    or null entry raises InvalidStateError, and a non-finite entry or an
    asymmetry above HERMITICITY_TOL one naming its position.
    `random_coupling` keeps its exactly Hermitian draw through `_of`,
    unchecked.
    """

    hamiltonian: np.ndarray
    seed: int

    def __post_init__(self):
        seed = _scalar(self.seed, "seed must be an integer >= 0", lambda v: v >= 0, int)
        self._hold(_hamiltonian(self.hamiltonian, "coupling"), seed)

    @classmethod
    def _of(cls, hamiltonian: np.ndarray, seed: int) -> "Coupling":
        """The coupling of `hamiltonian`, a fresh complex matrix that is
        exactly Hermitian and finite, kept without a copy or a check, and
        of `seed`, an int >= 0."""
        coupling = object.__new__(cls)
        coupling._hold(hamiltonian, seed)
        return coupling

    def _hold(self, hamiltonian: np.ndarray, seed: int) -> None:
        hamiltonian.setflags(write=False)
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class DynamicsAudit:
    """Entropy-rate statistics over a battery of random couplings.

    `max_rate` is the largest |rate| sampled, over the couplings as drawn:
    ||A (x) B||_F is about n_A n_B, not 1, so it can exceed `rate_bound` =
    ||K||_F, the exact supremum of |rate| over all couplings with unit
    Frobenius norm.
    """

    max_rate: float
    trials: int
    per_trial_rates: tuple[float, ...]
    consistent_with_laziness: bool
    rate_bound: float


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    vals = np.clip(rho.eigenvalues, 0.0, None)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def evolve(rho: DensityMatrix, hamiltonian: np.ndarray, t: float) -> DensityMatrix:
    """Exact unitary evolution exp(-iHt) rho exp(iHt) by eigendecomposition.

    A `t` that is not a finite real number (a str, a bool, NaN or +-Inf;
    `_scalar`) raises ValueError naming `t`, before numpy can warn or blame
    the state.  The Hamiltonian is checked as a `Coupling`'s is, so `eigh`, which reads
    one triangle, never evolves under another matrix.
    """
    t = _scalar(t, "t must be a finite real number", math.isfinite)
    h = _hamiltonian(hamiltonian, "hamiltonian")
    _check_fits(rho, h, "hamiltonian")
    return _evolve(rho, h, t)


def _evolve(rho: DensityMatrix, h: np.ndarray, t: float) -> DensityMatrix:
    """`evolve` under a checked Hermitian `h` of the state's shape and a finite `t`."""
    w, q = np.linalg.eigh(h)
    u = (q * np.exp(-1j * w * t)) @ q.conj().T
    data = u @ rho.data @ u.conj().T
    data = (data + data.conj().T) / 2.0
    return DensityMatrix(rho.dim_a, rho.dim_b, data)


def _rate_commutator(rho: DensityMatrix, red: np.ndarray, side: Side) -> np.ndarray:
    """c = [rho, log2(red) (x) I] = -i K, red = `rho._partial_trace(side)`; rates are read off c.

    log2 acts on the support of the raw marginal only: eigenvalues <= 0 are
    dropped, matching the 0 log 0 = 0 convention of `entropy`.  The
    commutator is `rho._commutator`, the kernel of `commutator_residual`,
    with log2(rho_side) in place of rho_side.
    """
    w, q = np.linalg.eigh(red)
    keep = w > 0.0
    q = q[:, keep]
    return rho._commutator((q * np.log2(w[keep])) @ q.conj().T, side)


def entropy_rate(
    rho: DensityMatrix,
    coupling: Coupling,
    side: Side = "A",
    method: RateMethod = "analytic",
) -> float:
    """dS/dt of one subsystem at t = 0 under the given coupling.

    `method="analytic"` evaluates the exact linear form tr(H K) as
    Im vdot(c, H), reading it off c = [rho, log2(rho_side) (x) I] = -i K,
    rho_side = `rho._partial_trace(side)`, as the audit reads its rates;
    `"fd"` is the independent central finite difference of the entropy
    along the exact evolution, kept as a cross-check.  `side` is checked
    first, before either method does any array work.
    """
    side = _check_side(side)
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown rate method {method!r}")
    h = coupling.hamiltonian
    _check_fits(rho, h, "coupling")
    if method == "analytic":
        c = _rate_commutator(rho, rho._partial_trace(side), side)
        return float(np.vdot(c, h).imag)
    # the coupling was checked when it was made
    s_plus = entropy(reduced_state(_evolve(rho, h, FD_STEP), side))
    s_minus = entropy(reduced_state(_evolve(rho, h, -FD_STEP), side))
    return float((s_plus - s_minus) / (2.0 * FD_STEP))


def _coupling_rng(dim_a, dim_b, seed):
    """(dim_a, dim_b, seed, default_rng(seed)), read as ints (`_scalar`):
    both dimensions >= 2 and seed >= 0."""
    message = "coupling dimension must be an integer >= 2"
    dim_a = _scalar(dim_a, message, lambda v: v >= 2, int)
    dim_b = _scalar(dim_b, message, lambda v: v >= 2, int)
    seed = _scalar(seed, "seed must be an integer >= 0", lambda v: v >= 0, int)
    return dim_a, dim_b, seed, np.random.default_rng(seed)


def _hermitian_factors(g: np.ndarray) -> np.ndarray:
    """herm((1+i) G) = ((G + G^T) + i (G - G^T)) / 2 for a real stack G (..., n, n).

    Exactly Hermitian: the real part is a symmetric sum and the imaginary
    part an antisymmetric difference, so the diagonal is real.
    """
    gt = g.swapaxes(-1, -2)
    factors = np.empty(g.shape, dtype=complex)
    factors.real = (g + gt) / 2
    factors.imag = (g - gt) / 2
    return factors


def product_couplings(
    dim_a: int, dim_b: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """GUE factor stacks (a, b); coupling i is kron(a[i], b[i]), trial i of an audit.

    Row i of `np.random.default_rng(seed).standard_normal((count, dim_a^2 +
    dim_b^2))` holds G_A, then G_B, each n x n block in row-major order,
    and a[i] = herm((1+i) G_A), b[i] = herm((1+i) G_B).  Each factor has the
    law of (G + G^dag)/2, and the first k couplings do not depend on `count`.
    """
    count = _scalar(count, "count must be an integer >= 1", lambda v: v >= 1, int)
    dim_a, dim_b, _, rng = _coupling_rng(dim_a, dim_b, seed)
    draws = rng.standard_normal((count, dim_a**2 + dim_b**2))
    split = dim_a**2
    return (
        _hermitian_factors(draws[:, :split].reshape(-1, dim_a, dim_a)),
        _hermitian_factors(draws[:, split:].reshape(-1, dim_b, dim_b)),
    )


def random_coupling(dim_a: int, dim_b: int, seed: int) -> Coupling:
    """GUE coupling herm((1+i) G) on d = dim_a dim_b, G the d^2 normals of `default_rng(seed)`.

    G is read in row-major order, as each factor of `product_couplings` is.
    The matrix is exactly Hermitian and finite, so it is not checked again.
    """
    dim_a, dim_b, seed, rng = _coupling_rng(dim_a, dim_b, seed)
    d = dim_a * dim_b
    return Coupling._of(_hermitian_factors(rng.standard_normal((d, d))), seed)


def _rate_kernel(c: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Real R (n_A^2, n_B^2) with rate = g^T R h under herm((1+i) G_A) (x) herm((1+i) G_B).

    g = vec(G_A) and h = vec(G_B), row-major.  Let m4[c, a, d, b] =
    c[(a, b), (c, d)], a view of m = `bloch._realign(c)`, for which
    tr(c (A (x) B)) = vec(A)^T m vec(B) and the rate is -Im of that.  Since
    vec(herm((1+i) G)) = a g + conj(a) P g, with a = (1+i)/2 and P the
    transpose, the rate is g^T R h with, for the transposes T1 = (1, 0, 3, 2),
    T2 = (0, 1, 3, 2) and T3 = (1, 0, 2, 3),

        R = (Re m4.T1 - Re m4 - Im m4.T2 - Im m4.T3) / 2.

    R[p, q] is the rate under the unit draws g = e_p, h = e_q: the
    coordinates of K over an orthonormal basis, so ||R||_F = ||K||_F.
    """
    m4 = c.reshape(dim_a, dim_b, dim_a, dim_b).transpose(2, 0, 3, 1)
    re, im = m4.real, m4.imag
    kernel = np.empty((dim_a, dim_a, dim_b, dim_b))
    np.subtract(re.transpose(1, 0, 3, 2), re, out=kernel)
    kernel -= im.transpose(0, 1, 3, 2)
    kernel -= im.transpose(1, 0, 2, 3)
    kernel *= 0.5
    return kernel.reshape(dim_a * dim_a, dim_b * dim_b)


def derive_trial_seed(seed: int, index: int) -> int:
    """Per-index seed derived from (seed, index); schedule-independent.

    `dynamics_audit` does not use it (its trials share one stream); it
    derives independent seeds for callers that draw one `random_coupling`
    per index.
    """
    seed = _scalar(seed, "seed must be an integer >= 0", lambda v: v >= 0, int)
    index = _scalar(index, "index must be an integer >= 0", lambda v: v >= 0, int)
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def dynamics_audit(
    rho: DensityMatrix,
    side: Side = "A",
    trials: int = 100,
    seed: int = 0,
) -> DynamicsAudit:
    """Entropy rates over a battery of seeded product couplings.

    Trial i uses kron(a[i], b[i]) of `product_couplings(rho.dim_a,
    rho.dim_b, trials, seed)`, with `trials` >= 1 and `seed` >= 0 integers.
    The audit forms neither factor: its rate is g^T R h over trial i's draw
    row (g, h), with R = `_rate_kernel(c)` real.

    A state is lazy when its commutator residual is below DEFAULT_TOL.  The
    audit is consistent when a lazy state stays below LAZY_RATE_TOL on
    every trial and a non-lazy one exceeds NONLAZY_RATE_FLOOR on at least
    one.  The floor is calibrated per state family, not universal:
    the couplings witness non-laziness with probability 1, but the rate
    magnitude depends on the state.
    """
    side = _check_side(side)
    trials = _scalar(trials, "trials must be an integer >= 1", lambda v: v >= 1, int)
    na, nb, _, rng = _coupling_rng(rho.dim_a, rho.dim_b, seed)
    draws = rng.standard_normal((trials, na * na + nb * nb))
    # one raw marginal of the side checked above serves the verdict and the rates
    red = rho._partial_trace(side)
    lazy = rho._commutator_norm(red, side) < DEFAULT_TOL
    # a real state has a real c, cast once so that one kernel serves every
    # state and rate_bound reduces the complex c, whose bits the norm of
    # K = i c shares: the zeros it interleaves set the order of the dot
    c = np.asarray(_rate_commutator(rho, red, side), dtype=complex)
    # rate_i = g_i^T R h_i over the draw rows, with no factor formed; adding
    # 0.0 turns an exactly zero rate -0.0 into +0.0
    split = na * na
    rates = np.einsum("ij,ij->i", draws[:, :split] @ _rate_kernel(c, na, nb), draws[:, split:])
    rates += 0.0
    max_rate = float(np.abs(rates).max())
    consistent = max_rate < LAZY_RATE_TOL if lazy else max_rate > NONLAZY_RATE_FLOOR
    return DynamicsAudit(
        max_rate=max_rate,
        trials=trials,
        per_trial_rates=tuple(rates.tolist()),
        consistent_with_laziness=consistent,
        rate_bound=_frobenius(c),
    )
