"""Subsystem entropy rates under random couplings.

For a lazy state the entropy of the distinguished subsystem is stationary
at t = 0 under *every* joint Hamiltonian; conversely a nonzero rate under
some coupling witnesses non-laziness.  The rate is linear in the coupling,

    dS_A/dt = tr(H K),    K = i [rho, log2(rho_A) (x) I]

(mirrored for B), with log2 taken on the support of the reduced state.
This is exact for rank-deficient marginals too: rho >= 0 makes the kernel
block of d(rho_A)/dt vanish, so the kernel eigenvalues move only at O(t^2).
A central finite difference of the entropy along the exact unitary
evolution remains only as the `method="fd"` cross-check.

Because the rate is the inner product of H with the fixed Hermitian K,
its supremum over couplings with ||H||_F = 1 is ||K||_F, attained by
H* = K / ||K||_F; `dynamics_audit` reports it as `rate_bound` next to the
sampled maximum.

Seeding: the couplings of an audit with seed s are the stack
`random_couplings(dim_a, dim_b, trials, s)`, drawn from the single stream
`np.random.default_rng(s)`.  Each trial takes 2 d^2 standard normals in the
layout (2, d, d), real part then imaginary part, and is Hermitized as
(G + G^dag)/2.  Trial i is element i of that stack, so the couplings of a
k-trial audit are a prefix of those of any longer audit with the same seed,
and `random_coupling(dim_a, dim_b, s)` is element 0.  The audit never forms
the Hamiltonians: for Hermitian K, Re tr(K (G + G^dag)/2) = Re vdot(K, G)
is the dot product of [Re G, Im G] with [Re K, Im K], so each block of
draws costs one real matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bloch import DensityMatrix, Side, _check_tolerance, partial_trace, reduced_state
from .errors import DimensionMismatchError
from .laziness import DEFAULT_TOL, commutator_residual

__all__ = [
    "Coupling",
    "DynamicsAudit",
    "entropy",
    "evolve",
    "entropy_rate",
    "random_coupling",
    "random_couplings",
    "derive_trial_seed",
    "dynamics_audit",
]

#: central finite-difference half-step of the `method="fd"` cross-check
FD_STEP = 1e-5

COUPLING_HERMITICITY_TOL = 1e-12

#: trials per block of normal draws in `dynamics_audit`; it bounds the
#: memory of one draw and does not change the stream
TRIAL_BLOCK = 16

RateMethod = Literal["analytic", "fd"]


@dataclass(frozen=True)
class Coupling:
    """Hermitian joint Hamiltonian with its generating seed."""

    hamiltonian: np.ndarray
    seed: int

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"coupling must be square, got {h.shape}")
        dev = float(np.abs(h - h.conj().T).max())
        if not math.isfinite(dev):
            raise ValueError("coupling has a non-finite entry")
        if dev > COUPLING_HERMITICITY_TOL:
            raise ValueError(f"coupling is not Hermitian: max asymmetry {dev:.3e}")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)


@dataclass(frozen=True)
class DynamicsAudit:
    """Entropy-rate statistics over a battery of random couplings.

    `max_rate` is the largest |rate| sampled; `rate_bound` = ||K||_F is the
    exact supremum of |rate| over all couplings with unit Frobenius norm.
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
    """Exact unitary evolution exp(-iHt) rho exp(iHt) by eigendecomposition."""
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


def _rate_operator(rho: DensityMatrix, side: Side) -> np.ndarray:
    """K = i [rho, log2(rho_side) (x) I] with dS_side/dt = tr(H K) for every H.

    log2 acts on the support only: eigenvalues <= 0 are dropped, matching
    the 0 log 0 = 0 convention of `entropy`.  As in `commutator_residual`,
    log2(rho_side) (x) I is never formed: each product applies log2(rho_side)
    along one axis of a reshaped view of rho.
    """
    na, nb = rho.dim_a, rho.dim_b
    w, q = np.linalg.eigh(partial_trace(rho.data, na, nb, side))
    keep = w > 0.0
    log2_red = (q[:, keep] * np.log2(w[keep])) @ q[:, keep].conj().T
    r = rho.data
    if side == "A":
        log_rho = log2_red @ r.reshape(na, -1)
        rho_log = log2_red.T @ r.reshape(-1, na, nb)
    else:
        log_rho = log2_red @ r.reshape(na, nb, -1)
        rho_log = r.reshape(-1, nb) @ log2_red
    d = na * nb
    return 1j * (rho_log.reshape(d, d) - log_rho.reshape(d, d))


def entropy_rate(
    rho: DensityMatrix,
    coupling: Coupling,
    side: Side = "A",
    method: RateMethod = "analytic",
) -> float:
    """dS/dt of one subsystem at t = 0 under the given coupling.

    `method="analytic"` evaluates the exact linear form tr(H K);
    `"fd"` is the independent central finite difference of the entropy
    along the exact evolution, kept as a cross-check.
    """
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown rate method {method!r}")
    h = coupling.hamiltonian
    if h.shape != rho.data.shape:
        raise DimensionMismatchError(
            f"coupling shape {h.shape} does not match state shape {rho.data.shape}"
        )
    if method == "analytic":
        return float(np.vdot(_rate_operator(rho, side), h).real)
    s_plus = entropy(reduced_state(evolve(rho, h, FD_STEP), side))
    s_minus = entropy(reduced_state(evolve(rho, h, -FD_STEP), side))
    return float((s_plus - s_minus) / (2.0 * FD_STEP))


def _coupling_draws(dim_a: int, dim_b: int, count: int, seed: int):
    """Blocks of (trials, 2, d, d) normals for `count` couplings, one stream.

    Each trial's draw is the real part, then the imaginary part, of a
    complex Gaussian G; blocks of TRIAL_BLOCK trials are consecutive draws
    from `np.random.default_rng(seed)`, so the stream does not depend on
    the block size.
    """
    if dim_a < 2 or dim_b < 2:
        raise DimensionMismatchError(
            f"coupling needs both dimensions >= 2, got ({dim_a}, {dim_b})"
        )
    rng = np.random.default_rng(seed)
    d = dim_a * dim_b
    return (
        rng.standard_normal((min(TRIAL_BLOCK, count - start), 2, d, d))
        for start in range(0, count, TRIAL_BLOCK)
    )


def random_couplings(dim_a: int, dim_b: int, count: int, seed: int) -> np.ndarray:
    """Stack of `count` Hermitian GUE couplings from one seeded stream.

    Element i is (G_i + G_i^dag)/2, where G_i takes the i-th (2, d, d)
    block of standard normals (real part, then imaginary part) from
    `np.random.default_rng(seed)`; entries have unit variance.  The first
    k elements do not depend on `count`, and element i is the coupling of
    trial i of `dynamics_audit(..., seed=seed)`.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    draws = np.concatenate(list(_coupling_draws(dim_a, dim_b, count, seed)))
    g = draws[:, 0] + 1j * draws[:, 1]
    return (g + g.conj().transpose(0, 2, 1)) / 2.0


def random_coupling(dim_a: int, dim_b: int, seed: int) -> Coupling:
    """Hermitian coupling with Gaussian unitary ensemble statistics.

    Element 0 of `random_couplings(dim_a, dim_b, count, seed)` for any
    count, i.e. the coupling of trial 0 of an audit with this seed.
    Deterministic per seed.
    """
    return Coupling(hamiltonian=random_couplings(dim_a, dim_b, 1, seed)[0], seed=int(seed))


def derive_trial_seed(seed: int, index: int) -> int:
    """Per-index seed derived from (seed, index); schedule-independent.

    `dynamics_audit` does not use it (its trials share one stream); it
    derives independent seeds for callers that draw one `random_coupling`
    per index.
    """
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def dynamics_audit(
    rho: DensityMatrix,
    side: Side = "A",
    trials: int = 100,
    seed: int = 0,
    *,
    laziness_tol: float = DEFAULT_TOL,
    lazy_rate_tol: float = 1e-8,
    nonlazy_rate_floor: float = 1e-3,
) -> DynamicsAudit:
    """Entropy rates over a battery of seeded random couplings.

    Trial i uses element i of `random_couplings(rho.dim_a, rho.dim_b,
    trials, seed)`; the rates are computed from the normal draws in blocks
    of TRIAL_BLOCK trials, one matrix-vector product each, without forming
    the couplings.

    The audit is consistent when a lazy state stays below `lazy_rate_tol`
    on every trial and a non-lazy one exceeds `nonlazy_rate_floor` on at
    least one.  The floor is calibrated per state family, not universal:
    the couplings witness non-laziness with overwhelming probability, but
    the rate magnitude depends on the state.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    laziness_tol = _check_tolerance(laziness_tol)
    lazy_rate_tol = _check_tolerance(lazy_rate_tol)
    nonlazy_rate_floor = _check_tolerance(nonlazy_rate_floor)
    lazy = commutator_residual(rho, side) < laziness_tol
    k = _rate_operator(rho, side)
    k = (k + k.conj().T) / 2.0
    # rate_i = Re vdot(K, G_i) = [Re G_i, Im G_i] . [Re K, Im K]
    weights = np.stack((k.real, k.imag)).reshape(-1)
    rates = []
    for block in _coupling_draws(rho.dim_a, rho.dim_b, trials, seed):
        if not np.isfinite(block).all():
            raise ValueError("coupling draw has a non-finite entry")
        rates.append(block.reshape(len(block), -1) @ weights)
    rates = np.concatenate(rates)
    max_rate = float(np.abs(rates).max())
    consistent = max_rate < lazy_rate_tol if lazy else max_rate > nonlazy_rate_floor
    return DynamicsAudit(
        max_rate=max_rate,
        trials=trials,
        per_trial_rates=tuple(rates.tolist()),
        consistent_with_laziness=consistent,
        rate_bound=float(np.linalg.norm(k)),
    )
