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

The commutator never forms rho_A (x) I: with rho viewed as the tensor
r[a, b, c, d] (A indices a, c slow, B indices b, d fast), left
multiplication by rho_A (x) I contracts rho_A with the row index a alone,
right multiplication with the column index c alone, and I (x) rho_B does
the same on b and d.  Each product is one GEMM over a reshaped view of rho,
O(d^2 n) work instead of the O(d^3) of a dense d x d product.  A real
state has a real reduced state, so both GEMMs then run in real arithmetic.

A `SectorDensityMatrix` (such as a truncated Fock state) is a direct sum
of real blocks rho^(s) whose marginals are diagonal, rho_A = diag(p).  The
commutator then has the entries rho_kl (p(a_l) - p(a_k)) inside each
sector and zeros elsewhere, with a_k the A level of the sector's k-th
basis state, so

    || [rho, rho_A (x) I] ||_F^2 = sum_s sum_kl (rho^(s)_kl)^2 (p(a_k) - p(a_l))^2,

summed over the sectors without the d x d matrix (side B reads the B
levels and the B marginal).  The criterion matrix is a scatter-add over
the nonzero structure constants.
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
    decompose,
    reconstruct,
    reduced_state,
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


def commutator_residual(rho: DensityMatrix, side: Side) -> float:
    """Frobenius norm of [rho, rho_side (x) I]; zero iff lazy on that side."""
    _check_side(side)
    red = reduced_state(rho, side).data
    if isinstance(rho, SectorDensityMatrix):
        # rho_side = diag(p), so the commutator has the entries
        # rho_kl (p_l - p_k) of each sector and zeros elsewhere
        p = red.diagonal()
        column = 0 if side == "A" else 1
        total = 0.0
        for sector in rho.sectors:
            ps = p[sector[column]]
            total += float(np.sum(np.square(sector[2] * (ps[None, :] - ps[:, None]))))
        return math.sqrt(total)
    na, nb = rho.dim_a, rho.dim_b
    r = rho.data
    # one GEMM per product over a reshaped view (see the module docstring);
    # both are formed, since rho is only Hermitian to within the tolerance
    # DensityMatrix accepts
    if side == "A":
        red_rho = red @ r.reshape(na, -1)
        rho_red = red.T @ r.reshape(-1, na, nb)
    else:
        red_rho = red @ r.reshape(na, nb, -1)
        rho_red = r.reshape(-1, nb) @ red
    return float(np.linalg.norm(rho_red.reshape(-1) - red_rho.reshape(-1)))


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
    i, j, k, v = basis.f.permuted
    flat = np.bincount(i * count + k, weights=v * coeffs[j], minlength=count * count)
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


def is_lazy(
    rho: DensityMatrix,
    side: Side = "A",
    tol: float = DEFAULT_TOL,
    basis_a: SuBasis | None = None,
    basis_b: SuBasis | None = None,
) -> LazinessReport:
    """Evaluate both laziness detectors and return a report.

    The verdict comes from the commutator residual compared against `tol`;
    the criterion residual is computed alongside as a diagnostic.
    """
    _check_side(side)
    tol = _check_tolerance(tol)
    if basis_a is None and rho.dim_a >= 2:
        basis_a = build_su_basis(rho.dim_a)
    if basis_b is None and rho.dim_b >= 2:
        basis_b = build_su_basis(rho.dim_b)
    form = decompose(rho, basis_a, basis_b)
    residual = commutator_residual(rho, side)
    basis = basis_a if side == "A" else basis_b
    if basis is None:
        criterion = 0.0
    else:
        g = criterion_matrix(form, basis, side)
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
