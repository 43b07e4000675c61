"""Laziness detectors for finite-dimensional bipartite states.

A state rho is lazy with respect to subsystem A when it commutes with
rho_A (x) I (and correspondingly with I (x) rho_B for side B).  Two
equivalent detectors are provided:

* the Frobenius norm of the commutator itself, and
* a criterion matrix assembled from the Bloch form and the su(n)
  structure constants,

      G[l, j] = sum_{i,k} T[i, j] x[k] f[i, k, l]        (side A),
      G'[i, l] = sum_{j,k} T[i, j] y[k] g[j, k, l]       (side B),

  which vanishes exactly when the commutator does.

The two are tied together by the exact identity

    || [rho, rho_A (x) I] ||_F = (4 / (n_A^2 n_B)) ||G||_F,

(and its mirror with n_A n_B^2 for side B), which follows from expanding
the commutator over the generator products and using their orthogonality.

The state owns the commutator and its marginal: `commutator_residual` is
`rho._residual(side)`, the commutator norm at X = rho_side, the raw
marginal, neither Hermitized nor re-checked.  The truncated Fock state of
`fock_truncate`, a `SectorDensityMatrix`, sums that norm over its sectors
from the kept diagonal of its marginal, without the d x d matrix and
without the diagonal matrix of the marginal; `bloch` describes both
routes.  The criterion matrix is a scatter-add over the nonzero structure
constants.

Arguments are checked once, at the public edge: `is_lazy` checks the side
and the tolerance, `commutator_residual` the side, `criterion_matrix` the
side and the length of the form's coefficient vector against the basis,
`criterion_prefactor` the side and the dimensions, and
`contraction_matrix` its coefficient vector, as finite numbers of the
right length; the state was checked when it was made.  Each then runs
private kernels that check nothing again: `rho._residual`, `_criterion`
and `_contraction`.  So each quantity is computed one way, and
`is_lazy`'s report equals what the public functions give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    BlochForm,
    DensityMatrix,
    Side,
    _check_dims,
    _check_side,
    _check_tolerance,
    _number_array,
    _require_finite,
    reconstruct,
)
from .errors import DimensionMismatchError
from .su_algebra import SuBasis, _su_basis

__all__ = [
    "LazinessReport",
    "commutator_residual",
    "contraction_matrix",
    "criterion_matrix",
    "criterion_prefactor",
    "is_lazy",
    "diagonal_correlation_state",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class LazinessReport:
    """Verdict and residuals of a laziness test for one side.

    `commutator_residual` is the Frobenius norm of the commutator and
    decides the verdict; `criterion_residual` is the max-abs entry of the
    criterion matrix, reported as a secondary diagnostic.
    """

    side: str
    tolerance: float
    commutator_residual: float
    criterion_residual: float
    is_lazy: bool


def commutator_residual(rho: DensityMatrix, side: Side) -> float:
    """Frobenius norm of [rho, rho_side (x) I]; zero iff lazy on that side."""
    return rho._residual(_check_side(side))


def _check_coefficients(coeffs: np.ndarray, basis: SuBasis) -> None:
    """DimensionMismatchError unless `coeffs` has one entry per su(n) generator."""
    count = basis.dim * basis.dim - 1
    if coeffs.shape != (count,):
        raise DimensionMismatchError(
            f"coefficient vector of length {coeffs.size} does not match "
            f"su({basis.dim}) with {count} generators"
        )


def _contraction(coeffs: np.ndarray, basis: SuBasis) -> np.ndarray:
    """`contraction_matrix` of a checked float64 coefficient vector."""
    count = basis.dim * basis.dim - 1
    # F[i, k] = sum_j coeffs[j] f[i, j, k] over the signed permutations
    _, j, _, v = basis.f.permuted
    flat = np.bincount(basis.f.scatter_index, weights=v * coeffs[j], minlength=count * count)
    return flat.reshape(count, count)


def contraction_matrix(coeffs, basis: SuBasis) -> np.ndarray:
    """Contract a coherence vector against the structure tensor.

    Returns the matrix F with F[j, l] = sum_k coeffs[k] f[j, k, l] (0-based
    here; the tensor itself is totally antisymmetric).  For the su(3) basis
    this is the linear map whose kernel condition characterizes laziness of
    the diagonal-correlation family below.  F is a scatter-add over the six
    signed index permutations of every stored triple, so its cost is linear
    in the number of nonzero constants.
    """
    coeffs = _number_array(coeffs, "coefficient vector", real=True)
    _check_coefficients(coeffs, basis)
    _require_finite(coeffs, "coefficient vector")
    return _contraction(coeffs, basis)


def _criterion(form: BlochForm, basis: SuBasis, side: Side) -> np.ndarray:
    """`criterion_matrix` of a checked side and a basis that fits the form."""
    if side == "A":
        return _contraction(form.x, basis).T @ form.T
    return form.T @ _contraction(form.y, basis)


def criterion_matrix(form: BlochForm, basis: SuBasis, side: Side = "A") -> np.ndarray:
    """Criterion matrix whose vanishing is equivalent to laziness.

    Side A contracts x against the su(n_A) constants and applies T from the
    right; side B mirrors this with y, the su(n_B) constants, and T from
    the left.  x and y are the form's own float64 vectors, so only their
    lengths are checked against the basis.
    """
    _check_side(side)
    _check_coefficients(form.x if side == "A" else form.y, basis)
    return _criterion(form, basis, side)


def criterion_prefactor(dim_a: int, dim_b: int, side: Side) -> float:
    """Factor relating ||G||_F to the commutator residual for one side;
    the dimensions are checked as a state's are."""
    _check_side(side)
    dim_a, dim_b = _check_dims(dim_a, dim_b)
    if side == "A":
        return 4.0 / (dim_a * dim_a * dim_b)
    return 4.0 / (dim_a * dim_b * dim_b)


def is_lazy(rho: DensityMatrix, side: Side = "A", tol: float = DEFAULT_TOL) -> LazinessReport:
    """Evaluate both laziness detectors and return a report.

    The verdict comes from the commutator residual compared against `tol`;
    the criterion residual is computed alongside as a diagnostic, and only
    for a decided side of dimension >= 2 (a trivial side reports 0 without
    a Bloch expansion).  The criterion reads the state's cached
    `bloch_form`, so both sides of one state share one expansion.

    `side` and `tol` are checked here, before any array work, and nowhere
    again: the residual and the criterion come from the kernels behind
    `commutator_residual` and `criterion_matrix`, whose values they equal
    exactly.
    """
    _check_side(side)
    tol = _check_tolerance(tol)
    residual = rho._residual(side)
    n = rho.dim_a if side == "A" else rho.dim_b
    criterion = 0.0
    if n >= 2:
        g = _criterion(rho.bloch_form, _su_basis(n), side)
        if g.size:
            criterion = float(np.abs(g).max())
    return LazinessReport(
        side=side,
        tolerance=tol,
        commutator_residual=residual,
        criterion_residual=criterion,
        is_lazy=residual < tol,
    )


def diagonal_correlation_state(x, y, correlations) -> DensityMatrix:
    """Two-qutrit state with local vectors x, y and diagonal correlations.

    Builds (1/9)(I + sum x_k s_k (x) I + sum y_k I (x) s_k
    + sum_k c_k s_k (x) s_k) over the su(3) basis.  With every c_k nonzero
    the state is lazy with respect to A exactly when x = 0 (mirror
    statement for B and y); zero entries in `correlations` void that
    equivalence for the rows they silence.  The result may be unphysical
    for large coefficients; check `is_physical`.
    """
    x, y = _number_array(x, "x", real=True), _number_array(y, "y", real=True)
    correlations = _number_array(correlations, "correlations", real=True)
    if x.shape != (8,) or y.shape != (8,) or correlations.shape != (8,):
        raise DimensionMismatchError(
            "diagonal-correlation family needs three length-8 vectors, got "
            f"{x.shape}, {y.shape}, {correlations.shape}"
        )
    basis = _su_basis(3)
    form = BlochForm(x=x, y=y, T=np.diag(correlations))
    return reconstruct(form, basis, basis)
