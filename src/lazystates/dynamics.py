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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bloch import DensityMatrix, Side, partial_trace, reduced_state
from .errors import DimensionMismatchError
from .laziness import DEFAULT_TOL, commutator_residual

__all__ = [
    "Coupling",
    "DynamicsAudit",
    "entropy",
    "evolve",
    "entropy_rate",
    "random_coupling",
    "derive_trial_seed",
    "dynamics_audit",
]

#: central finite-difference half-step of the `method="fd"` cross-check
FD_STEP = 1e-5

COUPLING_HERMITICITY_TOL = 1e-12

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
    """Entropy-rate statistics over a battery of random couplings."""

    max_rate: float
    trials: int
    per_trial_rates: tuple[float, ...]
    consistent_with_laziness: bool


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
    the 0 log 0 = 0 convention of `entropy`.
    """
    w, q = np.linalg.eigh(partial_trace(rho.data, rho.dim_a, rho.dim_b, side))
    keep = w > 0.0
    log2_red = (q[:, keep] * np.log2(w[keep])) @ q[:, keep].conj().T
    if side == "A":
        big = np.kron(log2_red, np.eye(rho.dim_b))
    else:
        big = np.kron(np.eye(rho.dim_a), log2_red)
    return 1j * (rho.data @ big - big @ rho.data)


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


def random_coupling(dim_a: int, dim_b: int, seed: int) -> Coupling:
    """Hermitian coupling with Gaussian unitary ensemble statistics.

    Entries are independent standard complex normals, Hermitized as
    (G + G^dag)/2, giving unit variance per entry.  Deterministic per seed.
    """
    if dim_a < 2 or dim_b < 2:
        raise DimensionMismatchError(
            f"coupling needs both dimensions >= 2, got ({dim_a}, {dim_b})"
        )
    rng = np.random.default_rng(seed)
    d = dim_a * dim_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Coupling(hamiltonian=(g + g.conj().T) / 2.0, seed=int(seed))


def derive_trial_seed(seed: int, index: int) -> int:
    """Per-trial seed derived from (seed, index); schedule-independent."""
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

    The audit is consistent when a lazy state stays below `lazy_rate_tol`
    on every trial and a non-lazy one exceeds `nonlazy_rate_floor` on at
    least one.  The floor is calibrated per state family, not universal:
    the couplings witness non-laziness with overwhelming probability, but
    the rate magnitude depends on the state.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lazy = commutator_residual(rho, side) < laziness_tol
    k = _rate_operator(rho, side)
    rates = []
    for index in range(trials):
        coupling = random_coupling(rho.dim_a, rho.dim_b, derive_trial_seed(seed, index))
        rates.append(float(np.vdot(k, coupling.hamiltonian).real))
    max_rate = max(abs(r) for r in rates)
    consistent = max_rate < lazy_rate_tol if lazy else max_rate > nonlazy_rate_floor
    return DynamicsAudit(
        max_rate=max_rate,
        trials=trials,
        per_trial_rates=tuple(rates),
        consistent_with_laziness=consistent,
    )
