"""Subsystem entropy rates under random couplings.

For a lazy state the entropy of the distinguished subsystem is stationary
at t = 0 under *every* joint Hamiltonian; conversely a nonzero rate under
some coupling witnesses non-laziness.  The rate is linear in the coupling,

    dS_A/dt = tr(H K),    K = i [rho, log2(rho_A) (x) I]

(mirrored for B), with log2 taken on the support of the reduced state.
K is the state's commutator kernel, `rho._commutator`, applied to
log2(rho_A) in place of rho_A, with rho_A the raw marginal
`rho._marginal(side)` that `laziness.commutator_residual` reads.  K is
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
prefix of any longer one with the same seed.  Each factor is drawn in
Hermitian coordinates, A = sum_p a_p h_p with i.i.d. N(0, 1) coefficients
over the Frobenius-orthonormal basis {E_kk, (E_kl + E_lk)/sqrt2,
i (E_kl - E_lk)/sqrt2 : k < l}: the law of the GUE factor (G + G^dag)/2
from n^2 normals instead of 2 n^2.  Row i of the draw holds A_i's
diagonal, then sqrt2 Re A_kl and sqrt2 Im A_kl for each k < l in
`np.triu_indices` order, then the same for B_i.  One gather over the whole
row builds both factors, so A_i and B_i are views of one complex array.
Products span every coupling and keep the GUE entry covariance, so each
rate has second moment ||K||_F^2.

An audit does each piece of work once.  It forms the raw marginal
`rho._marginal(side)` once, for both the verdict residual and
log2(rho_side).  With c realigned as M[(a, c), (b, d)] = c[(c, d), (a, b)],
rate_i = -Im vec(A_i)^T M vec(B_i), one matrix product for all trials,
and rate_bound = ||K||_F = ||c||_F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .bloch import (
    DensityMatrix,
    Side,
    _check_count,
    _check_dims,
    _check_hermitian,
    _check_side,
    _realign,
    reduced_state,
)
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


@dataclass(frozen=True)
class Coupling:
    """Hermitian joint Hamiltonian with its generating seed.

    Validated as a state's matrix is: a non-finite entry or an asymmetry
    above HERMITICITY_TOL raises InvalidStateError naming its position.
    """

    hamiltonian: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_count(self.seed, "seed"))
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"coupling must be square, got {h.shape}")
        _check_hermitian({" of the coupling": h})
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)


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

    A `t` that is not a finite real number (a str, a bool, NaN or +-Inf)
    raises ValueError naming `t`, before numpy can warn or blame the state.
    """
    if (
        not isinstance(t, (int, float, np.integer, np.floating))
        or isinstance(t, bool)
        or not math.isfinite(t)
    ):
        raise ValueError(f"t must be a finite real number, got {t!r}")
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != rho.data.shape:
        raise DimensionMismatchError(
            f"hamiltonian shape {h.shape} does not match state shape {rho.data.shape}"
        )
    w, q = np.linalg.eigh(h)
    u = (q * np.exp(-1j * w * t)) @ q.conj().T
    data = u @ rho.data @ u.conj().T
    data = (data + data.conj().T) / 2.0
    return DensityMatrix(rho.dim_a, rho.dim_b, data)


def _rate_commutator(rho: DensityMatrix, red: np.ndarray, side: Side) -> np.ndarray:
    """c = [rho, log2(red) (x) I] = -i K, red = `rho._marginal(side)`; rates are read off c.

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
    rho_side = `rho._marginal(side)`, as the audit reads its rates; `"fd"`
    is the independent central finite difference of the entropy along the
    exact evolution, kept as a cross-check.
    """
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown rate method {method!r}")
    h = coupling.hamiltonian
    if h.shape != rho.data.shape:
        raise DimensionMismatchError(
            f"coupling shape {h.shape} does not match state shape {rho.data.shape}"
        )
    if method == "analytic":
        c = _rate_commutator(rho, rho._marginal(side), side)
        return float(np.vdot(c, h).imag)
    s_plus = entropy(reduced_state(evolve(rho, h, FD_STEP), side))
    s_minus = entropy(reduced_state(evolve(rho, h, -FD_STEP), side))
    return float((s_plus - s_minus) / (2.0 * FD_STEP))


def _coupling_rng(dim_a, dim_b, seed):
    """(dim_a, dim_b, default_rng(seed)), with both dimensions >= 2 and seed >= 0."""
    dim_a, dim_b = _check_dims(dim_a, dim_b)
    if dim_a < 2 or dim_b < 2:
        raise DimensionMismatchError(
            f"coupling needs both dimensions >= 2, got ({dim_a}, {dim_b})"
        )
    return dim_a, dim_b, np.random.default_rng(_check_count(seed, "seed"))


def _hermitian_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each float slot of vec(A), A n x n Hermitian: its coordinate and scale.

    Slots 2 (a n + c) and 2 (a n + c) + 1 hold Re and Im of A[a, c].  The
    coordinates are A's diagonal, then sqrt2 Re A_kl and sqrt2 Im A_kl for
    each k < l in `np.triu_indices` order; the imaginary diagonal reads
    coordinate 0 with scale 0.

    Not cached: the table has 2 n^2 entries, with n = dim_a dim_b for
    `random_coupling`.  `_pair_gather` caches its per-split tables.
    """
    d = np.arange(n)
    k, l = np.triu_indices(n, 1)
    half = np.sqrt(0.5)
    pair = n + 2 * np.arange(k.size)
    index = np.zeros((n, n, 2), dtype=np.intp)
    scale = np.zeros((n, n, 2))
    index[d, d, 0], scale[d, d, 0] = d, 1.0
    for rows, cols, sign in ((k, l, 1.0), (l, k, -1.0)):
        index[rows, cols, 0], scale[rows, cols, 0] = pair, half
        index[rows, cols, 1], scale[rows, cols, 1] = pair + 1, sign * half
    return index.ravel(), scale.ravel()


@lru_cache(maxsize=None)
def _pair_gather(dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """`_hermitian_gather` of A, then of B, over one draw row of `product_couplings`.

    B's coordinates follow A's n_A^2 in the row, so its indices are shifted
    by n_A^2.  Cached per split: 2 (n_A^2 + n_B^2) entries each.
    """
    index_a, scale_a = _hermitian_gather(dim_a)
    index_b, scale_b = _hermitian_gather(dim_b)
    index = np.concatenate([index_a, index_b + dim_a * dim_a])
    scale = np.concatenate([scale_a, scale_b])
    index.setflags(write=False)
    scale.setflags(write=False)
    return index, scale


def _gather(coords: np.ndarray, index: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Complex rows whose float slots are coords[i, index] * scale: one take, one multiply."""
    flat = np.take(coords, index, axis=1)
    flat *= scale
    return flat.view(complex)


def _hermitian_stack(coords: np.ndarray, n: int) -> np.ndarray:
    """(count, n, n) stack of A_i = sum_p coords[i, p] h_p, coords (count, n^2)."""
    return _gather(coords, *_hermitian_gather(n)).reshape(-1, n, n)


def product_couplings(
    dim_a: int, dim_b: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """GUE factor stacks (a, b); coupling i is kron(a[i], b[i]), trial i of an audit.

    Row i of `np.random.default_rng(seed).standard_normal((count, dim_a^2 +
    dim_b^2))` holds a[i]'s Hermitian coordinates, then b[i]'s: the
    diagonal, then sqrt2 Re A_kl and sqrt2 Im A_kl for each k < l in
    `np.triu_indices` order.  Each factor has the law of (G + G^dag)/2, and
    the first k couplings do not depend on `count`.

    Both factors come from one gather over the whole row, so `a` and `b`
    are views of one complex array: row i holds vec(a[i]), then vec(b[i]).
    """
    count = _check_count(count, "count", 1)
    dim_a, dim_b, rng = _coupling_rng(dim_a, dim_b, seed)
    draws = rng.standard_normal((count, dim_a**2 + dim_b**2))
    pairs = _gather(draws, *_pair_gather(dim_a, dim_b))
    split = dim_a**2
    return (
        pairs[:, :split].reshape(-1, dim_a, dim_a),
        pairs[:, split:].reshape(-1, dim_b, dim_b),
    )


def random_coupling(dim_a: int, dim_b: int, seed: int) -> Coupling:
    """GUE coupling (G + G^dag)/2 on d = dim_a dim_b, from d^2 normals of `default_rng(seed)`.

    They are its Hermitian coordinates, laid out as in `product_couplings`.
    """
    dim_a, dim_b, rng = _coupling_rng(dim_a, dim_b, seed)
    d = dim_a * dim_b
    hamiltonian = _hermitian_stack(rng.standard_normal((1, d * d)), d)[0]
    return Coupling(hamiltonian=hamiltonian, seed=seed)


def derive_trial_seed(seed: int, index: int) -> int:
    """Per-index seed derived from (seed, index); schedule-independent.

    `dynamics_audit` does not use it (its trials share one stream); it
    derives independent seeds for callers that draw one `random_coupling`
    per index.
    """
    key = (_check_count(seed, "seed"), _check_count(index, "index"))
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def dynamics_audit(
    rho: DensityMatrix,
    side: Side = "A",
    trials: int = 100,
    seed: int = 0,
) -> DynamicsAudit:
    """Entropy rates over a battery of seeded product couplings.

    Trial i uses kron(a[i], b[i]) of `product_couplings(rho.dim_a,
    rho.dim_b, trials, seed)`, with `trials` >= 1 and `seed` >= 0 integers.

    A state is lazy when its commutator residual is below DEFAULT_TOL.  The
    audit is consistent when a lazy state stays below LAZY_RATE_TOL on
    every trial and a non-lazy one exceeds NONLAZY_RATE_FLOOR on at least
    one.  The floor is calibrated per state family, not universal:
    the couplings witness non-laziness with probability 1, but the rate
    magnitude depends on the state.
    """
    side = _check_side(side)
    trials = _check_count(trials, "trials", 1)
    na, nb = rho.dim_a, rho.dim_b
    a, b = product_couplings(na, nb, trials, seed)
    # one raw marginal serves the verdict and the rates
    red = rho._marginal(side)
    lazy = rho._commutator_norm(red, side) < DEFAULT_TOL
    # a real state has a real c, which the product with the complex factors
    # would cast anyway: casting it first casts it once
    c = np.asarray(_rate_commutator(rho, red, side), dtype=complex)
    # tr(K (A (x) B)) = i vec(A)^T m vec(B) with m realigned from c = -i K;
    # the rate, its real part, is -Im of that product and reads only the
    # Hermitian part of K, as `entropy_rate` does.  0 - Im, not -Im, keeps
    # an exactly zero rate +0.0.
    m = _realign(c, na, nb)
    rates = 0.0 - np.einsum("ij,ij->i", a.reshape(trials, -1) @ m, b.reshape(trials, -1)).imag
    max_rate = float(np.abs(rates).max())
    consistent = max_rate < LAZY_RATE_TOL if lazy else max_rate > NONLAZY_RATE_FLOOR
    return DynamicsAudit(
        max_rate=max_rate,
        trials=trials,
        per_trial_rates=tuple(rates.tolist()),
        consistent_with_laziness=consistent,
        rate_bound=float(np.linalg.norm(c)),
    )
