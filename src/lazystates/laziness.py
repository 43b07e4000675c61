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

One kernel, `_commutator`, forms [rho, X (x) I] and [rho, I (x) X] for any
local X: X = rho_A here, and X = log2(rho_A) for the entropy rate in
`dynamics`.  It never forms X (x) I: with rho viewed as the tensor
r[a, b, c, d] (A indices a, c slow, B indices b, d fast), left
multiplication by X (x) I contracts X with the row index a alone, right
multiplication with the column index c alone, and I (x) X does the same on
b and d.  Each product is one GEMM over a reshaped view of rho, O(d^2 n)
work instead of the O(d^3) of a dense d x d product.  A real state has a
real reduced state, so both GEMMs then run in real arithmetic.  The
marginal enters raw, neither Hermitized nor re-checked.

A `SectorDensityMatrix` (such as a truncated Fock state) is a direct sum
of real blocks rho^(s), one per shift s = n_A - n_B, whose marginals are
diagonal, rho_A = diag(p).  The k-th state of sector s has the A level
a_k = max(s, 0) + k, so the commutator has the entries
rho_kl (p(a_l) - p(a_k)) inside each sector and zeros elsewhere, and

    || [rho, rho_A (x) I] ||_F^2 = sum_s sum_kl (rho^(s)_kl)^2 (p(a_k) - p(a_l))^2,

summed over the sectors without the d x d matrix.  p is the marginal
diagonal the state keeps, so the sum is one pass over the sectors, each
sector one product with a slice of p and one `vdot` (side B reads the B
levels max(-s, 0) + k and the B marginal).  The criterion matrix is a
scatter-add over the nonzero structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    BlochForm,
    DensityMatrix,
    SectorDensityMatrix,
    Side,
    _check_side,
    _check_tolerance,
    _marginal,
    _sector_blocks,
    reconstruct,
)
from .errors import DimensionMismatchError
from .su_algebra import SuBasis, build_su_basis

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


def _commutator(rho: DensityMatrix, x: np.ndarray, side: Side) -> np.ndarray:
    """[rho, X (x) I] (side A) or [rho, I (x) X] (side B) as a d x d array.

    Both products are formed: rho is Hermitian only to within the tolerance
    `DensityMatrix` accepts.
    """
    na, nb = rho.dim_a, rho.dim_b
    r = rho.data
    if side == "A":
        x_rho = x @ r.reshape(na, -1)
        rho_x = x.T @ r.reshape(-1, na, nb)
    else:
        x_rho = x @ r.reshape(na, nb, -1)
        rho_x = r.reshape(-1, nb) @ x
    d = na * nb
    return rho_x.reshape(d, d) - x_rho.reshape(d, d)


def commutator_residual(rho: DensityMatrix, side: Side) -> float:
    """Frobenius norm of [rho, rho_side (x) I]; zero iff lazy on that side."""
    if isinstance(rho, SectorDensityMatrix):
        # rho_side = diag(p), so the commutator has the entries
        # rho_kl (p_l - p_k) of each sector and zeros elsewhere
        p = rho._diagonal(side)
        total = 0.0
        for lo, block in _sector_blocks(rho, side):
            ps = p[lo : lo + len(block)]
            y = block * (ps - ps[:, None])
            total += np.vdot(y, y)
        return math.sqrt(total)
    return _dense_residual(rho, _marginal(rho, side), side)


def _dense_residual(rho: DensityMatrix, red: np.ndarray, side: Side) -> float:
    """`commutator_residual` of a dense state, given red = `_marginal(rho, side)`.

    A caller that needs the raw marginal as well forms it once and hands it
    here, as `dynamics_audit` does.
    """
    return float(np.linalg.norm(_commutator(rho, red, side)))


def contraction_matrix(coeffs, basis: SuBasis) -> np.ndarray:
    """Contract a coherence vector against the structure tensor.

    Returns the matrix F with F[j, l] = sum_k coeffs[k] f[j, k, l] (0-based
    here; the tensor itself is totally antisymmetric).  For the su(3) basis
    this is the linear map whose kernel condition characterizes laziness of
    the diagonal-correlation family below.  F is a scatter-add over the six
    signed index permutations of every stored triple, so its cost is linear
    in the number of nonzero constants.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    count = basis.dim * basis.dim - 1
    if coeffs.shape != (count,):
        raise DimensionMismatchError(
            f"coefficient vector of length {coeffs.size} does not match "
            f"su({basis.dim}) with {count} generators"
        )
    # F[i, k] = sum_j coeffs[j] f[i, j, k] over the signed permutations
    _, j, _, v = basis.f.permuted
    flat = np.bincount(basis.f.scatter_index, weights=v * coeffs[j], minlength=count * count)
    return flat.reshape(count, count)


def criterion_matrix(form: BlochForm, basis: SuBasis, side: Side = "A") -> np.ndarray:
    """Criterion matrix whose vanishing is equivalent to laziness.

    Side A contracts x against the su(n_A) constants and applies T from the
    right; side B mirrors this with y, the su(n_B) constants, and T from
    the left.
    """
    _check_side(side)
    if side == "A":
        return contraction_matrix(form.x, basis).T @ form.T
    return form.T @ contraction_matrix(form.y, basis)


def criterion_prefactor(dim_a: int, dim_b: int, side: Side) -> float:
    """Factor relating ||G||_F to the commutator residual for one side."""
    _check_side(side)
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
    """
    _check_side(side)
    tol = _check_tolerance(tol)
    residual = commutator_residual(rho, side)
    n = rho.dim_a if side == "A" else rho.dim_b
    criterion = 0.0
    if n >= 2:
        g = criterion_matrix(rho.bloch_form, build_su_basis(n), side)
        criterion = float(np.abs(g).max()) if g.size else 0.0
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    correlations = np.asarray(correlations, dtype=float)
    if x.shape != (8,) or y.shape != (8,) or correlations.shape != (8,):
        raise DimensionMismatchError(
            "diagonal-correlation family needs three length-8 vectors, got "
            f"{x.shape}, {y.shape}, {correlations.shape}"
        )
    basis = build_su_basis(3)
    form = BlochForm(x=x, y=y, T=np.diag(correlations))
    return reconstruct(form, basis, basis)
