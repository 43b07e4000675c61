"""Bipartite density matrices and their generator-basis expansion.

A state on an (n_A * n_B)-dimensional product space expands as

    rho = (1/(n_A n_B)) (I + sum_i x_i s_i (x) I + sum_j y_j I (x) t_j
                           + sum_ij T_ij s_i (x) t_j)

over su(n_A) generators s_i and su(n_B) generators t_j.  The real vectors
x and y are the local coherence vectors and the real matrix T is the
correlation matrix; with the tr(s_i s_j) = 2 delta_ij normalization the
coefficients are recovered as

    x_i  = (n_A / 2)       tr(rho (s_i (x) I))
    y_j  = (n_B / 2)       tr(rho (I (x) t_j))
    T_ij = (n_A n_B / 4)   tr(rho (s_i (x) t_j))

Subsystem A indexes the outer (slow) Kronecker factor throughout the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .su_algebra import SuBasis, build_su_basis

__all__ = [
    "Side",
    "DensityMatrix",
    "SectorDensityMatrix",
    "BlochForm",
    "decompose",
    "reconstruct",
    "reduced_state",
    "partial_trace",
    "random_density_matrix",
]

Side = Literal["A", "B"]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
#: eigenvalues above this (slightly negative) floor count as nonnegative
POSITIVITY_TOL = -1e-10
#: side of the square tiles over which the hermiticity of a larger matrix is
#: scanned; a tile and its mirror stay in cache while they are compared
HERMITICITY_TILE = 256


def _check_side(side: str) -> str:
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return side


def _check_tolerance(tol: float) -> float:
    """`tol` as a float; NaN, Inf and nonpositive values are rejected."""
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")
    return tol


def _require_finite(arr: np.ndarray, label: str) -> None:
    """Raise InvalidStateError naming the first NaN or Inf entry of `arr`."""
    if not np.isfinite(arr).all():
        pos = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise InvalidStateError(f"non-finite entry in {label} at {pos}")


def _max_asymmetry(data: np.ndarray) -> float:
    """max |data - data^dagger| over the tile pairs (I, J >= I); NaN propagates.

    Each entry pair meets once, in the tile pair that holds it above the
    diagonal, and both tiles are read row by row, unlike the full transpose.
    """
    t = HERMITICITY_TILE
    tiles = [slice(i, i + t) for i in range(0, data.shape[0], t)]
    maxima = [
        np.abs(data[rows, cols] - data[cols, rows].conj().T).max()
        for k, rows in enumerate(tiles)
        for cols in tiles[k:]
    ]
    return float(np.max(maxima))


def _check_hermitian(data: np.ndarray, where: str = "") -> None:
    """Reject a square matrix that is non-finite or not Hermitian to HERMITICITY_TOL.

    `where` follows the entry position in a message, e.g. " of sector 3".
    """
    d = data.shape[0]
    if d <= HERMITICITY_TILE:
        asym = np.abs(data - data.conj().T)
        max_asym = float(asym.max())
    else:
        max_asym = _max_asymmetry(data)
    if not max_asym <= HERMITICITY_TOL:
        # a rejection is rare: only then locate it on the full matrix
        if d > HERMITICITY_TILE:
            asym = np.abs(data - data.conj().T)
        if not math.isfinite(max_asym):
            # a NaN or Inf entry leaves a non-finite asymmetry at its position
            i, j = np.argwhere(~np.isfinite(asym))[0]
            raise InvalidStateError(f"non-finite entry at ({i}, {j}){where}")
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise InvalidStateError(
            f"hermiticity violation: max asymmetry {max_asym:.3e} "
            f"at entry ({i}, {j}){where}"
        )


def _check_trace(trace: complex) -> None:
    trace_dev = abs(complex(trace) - 1.0)
    if trace_dev > TRACE_TOL:
        raise InvalidStateError(f"trace deviation {trace_dev:.3e}")


def _check_dims(dim_a, dim_b) -> tuple[int, int]:
    dim_a, dim_b = int(dim_a), int(dim_b)
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatchError(
            f"subsystem dimensions must be >= 1, got ({dim_a}, {dim_b})"
        )
    return dim_a, dim_b


class DensityMatrix:
    """Hermitian unit-trace matrix with a bipartite dimension split.

    Real input stays real: it is stored as float64, so the products of a
    real state run in real arithmetic; any other input is stored as
    complex128.  Hermiticity and unit trace are enforced at construction.
    Positivity is *not*: generator expansions with out-of-range coefficients
    legitimately produce indefinite matrices, so it is exposed as the lazy
    `is_physical` flag instead and enforced only where callers demand it
    via `require_physical`.
    """

    def __init__(self, dim_a: int, dim_b: int, data):
        dim_a, dim_b = _check_dims(dim_a, dim_b)
        data = np.asarray(data)
        data = np.array(data, dtype=complex if data.dtype.kind == "c" else float)
        d = dim_a * dim_b
        if data.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {data.shape} does not match dimensions "
                f"({dim_a}, {dim_b}) -> ({d}, {d})"
            )
        _check_hermitian(data)
        _check_trace(np.trace(data))
        data.setflags(write=False)
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.data = data

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order; cached."""
        vals = np.linalg.eigvalsh(self.data)
        vals.setflags(write=False)
        return vals

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def is_physical(self) -> bool:
        return self.min_eigenvalue >= POSITIVITY_TOL

    def require_physical(self) -> "DensityMatrix":
        if not self.is_physical:
            raise InvalidStateError(
                f"positivity violation: smallest eigenvalue {self.min_eigenvalue:.3e}"
            )
        return self

    def __repr__(self) -> str:
        return f"DensityMatrix(dim_a={self.dim_a}, dim_b={self.dim_b})"


class SectorDensityMatrix(DensityMatrix):
    """Real state that is a direct sum of symmetric blocks over sectors.

    `sectors` is a sequence of triples `(labels_a, labels_b, block)`: the
    sector holds the basis states `(labels_a[k], labels_b[k])`, i.e. the
    rows `labels_a[k] * dim_b + labels_b[k]` of the dense matrix, and the
    real block of the state on them.  Entries between two sectors, and on
    basis states in no sector, are zero.

    Within a sector the A labels are distinct and so are the B labels, so
    no two states of one sector share the level of either subsystem: both
    marginals are diagonal, with the sector diagonals summed by label.
    `reduced_state`, `commutator_residual` and the spectrum read the
    sectors directly.
    `data` assembles the dense matrix on first access only.

    Every sector is checked as `DensityMatrix` checks its matrix (finite,
    symmetric to HERMITICITY_TOL), the traces must sum to 1 within
    TRACE_TOL, labels must be in range and distinct within a sector, and
    no basis state may lie in two sectors.  float64 blocks are kept without
    a copy and made read-only.
    """

    def __init__(self, dim_a: int, dim_b: int, sectors):
        dim_a, dim_b = _check_dims(dim_a, dim_b)
        checked = []
        for s, (labels_a, labels_b, block) in enumerate(sectors):
            labels_a, labels_b, block = map(np.asarray, (labels_a, labels_b, block))
            size = len(labels_a)
            if not (
                labels_a.dtype.kind in "iu" and labels_b.dtype.kind in "iu"
                and size and labels_a.shape == labels_b.shape == (size,)
                and block.shape == (size, size)
            ):
                raise DimensionMismatchError(
                    f"sector {s} needs n >= 1 integer A and B labels and an n x n "
                    f"block, got labels shaped {labels_a.shape} and "
                    f"{labels_b.shape} and a block shaped {block.shape}"
                )
            if block.dtype.kind == "c":
                raise InvalidStateError(f"sector {s} is complex; sector blocks are real")
            block = block.astype(float, copy=False)
            _check_hermitian(block, f" of sector {s}")
            block.setflags(write=False)
            checked.append((labels_a.astype(np.intp), labels_b.astype(np.intp), block))
        if not checked:
            raise DimensionMismatchError("a sector state needs at least one sector")
        # the label checks run over all sectors at once, keyed by sector
        sector_of = np.repeat(np.arange(len(checked)), [len(sec[0]) for sec in checked])
        labels = []
        for side, column, dim in (("A", 0, dim_a), ("B", 1, dim_b)):
            lab = np.concatenate([sec[column] for sec in checked])
            outside = (lab < 0) | (lab >= dim)
            if outside.any():
                k = int(outside.argmax())
                raise InvalidStateError(
                    f"{side} label {lab[k]} of sector {sector_of[k]} is out of "
                    f"range [0, {dim})"
                )
            counts = np.bincount(sector_of * dim + lab)
            if counts.max() > 1:
                sector, label = divmod(int(counts.argmax()), dim)
                raise InvalidStateError(
                    f"repeated {side} label {label} in sector {sector}: "
                    "labels must be distinct within a sector"
                )
            labels.append(lab)
        hits = np.bincount(labels[0] * dim_b + labels[1])
        if hits.max() > 1:
            a, b = divmod(int(hits.argmax()), dim_b)
            raise InvalidStateError(f"basis state ({a}, {b}) lies in more than one sector")
        _check_trace(np.concatenate([np.diagonal(sec[2]) for sec in checked]).sum())
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.sectors = tuple(checked)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order; cached.

        The union of the sector spectra and one 0 for each basis state in
        no sector; the dense matrix is not assembled.
        """
        covered = sum(len(labels_a) for labels_a, _, _ in self.sectors)
        vals = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(block) for _, _, block in self.sectors]
                + [np.zeros(self.dim - covered)]
            )
        )
        vals.setflags(write=False)
        return vals

    @cached_property
    def data(self) -> np.ndarray:
        """The dense float64 matrix, assembled once; read-only."""
        data = np.zeros((self.dim, self.dim))
        for labels_a, labels_b, block in self.sectors:
            rows = labels_a * self.dim_b + labels_b
            data[np.ix_(rows, rows)] = block
        data.setflags(write=False)
        return data

    def __repr__(self) -> str:
        return (
            f"SectorDensityMatrix(dim_a={self.dim_a}, dim_b={self.dim_b}, "
            f"sectors={len(self.sectors)})"
        )


@dataclass(frozen=True)
class BlochForm:
    """Coherence vectors x, y and correlation matrix T of a bipartite state."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "T"):
            arr = np.array(getattr(self, name), dtype=float)
            _require_finite(arr, name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x.ndim != 1 or self.y.ndim != 1 or self.T.shape != (
            self.x.size,
            self.y.size,
        ):
            raise DimensionMismatchError(
                f"inconsistent Bloch shapes x{self.x.shape}, y{self.y.shape}, "
                f"T{self.T.shape}"
            )


def _generators_for(dim: int, basis: SuBasis | None) -> np.ndarray:
    """Generator stack for one side; empty stack for a trivial dimension."""
    if dim == 1:
        return np.zeros((0, 1, 1), dtype=complex)
    if basis is None:
        basis = build_su_basis(dim)
    if basis.dim != dim:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match subsystem dimension {dim}"
        )
    return basis.generators


def decompose(
    rho: DensityMatrix,
    basis_a: SuBasis | None = None,
    basis_b: SuBasis | None = None,
) -> BlochForm:
    """Expand a state over the generator basis.

    Bases are built on demand when omitted.  A trivial (dimension-1) side
    contributes empty coherence/correlation blocks, so reduced states pass
    through unchanged.
    """
    na, nb = rho.dim_a, rho.dim_b
    # s[i, c*n + a] = g_i[c, a]: the generator stack flattened, no copy
    sa = _generators_for(na, basis_a).reshape(-1, na * na)
    sb = _generators_for(nb, basis_b).reshape(-1, nb * nb)
    # m[(c,a), (d,b)] = r[a,b,c,d], so T = S_A M S_B^T up to the prefactor
    r = rho.data.reshape(na, nb, na, nb)
    m = r.transpose(2, 0, 3, 1).reshape(na * na, nb * nb)
    # the (b,b) columns of m sum to vec(rho_A), the (a,a) rows to vec(rho_B)
    vec_a = m[:, :: nb + 1].sum(axis=1)
    vec_b = m[:: na + 1].sum(axis=0)
    x = (na / 2.0) * (sa @ vec_a).real
    y = (nb / 2.0) * (sb @ vec_b).real
    t = (na * nb / 4.0) * (sa @ m @ sb.T).real
    return BlochForm(x=x, y=y, T=t)


def reconstruct(
    form: BlochForm,
    basis_a: SuBasis | None = None,
    basis_b: SuBasis | None = None,
) -> DensityMatrix:
    """Assemble the density matrix of a Bloch form.

    The mirror image of `decompose`: the subsystem dimensions follow from
    the sizes of x and y, bases are built on demand when omitted, and a
    trivial (dimension-1) side has empty coherence/correlation blocks.  The
    result is Hermitian with unit trace by construction.  Positivity is not
    guaranteed; inspect `is_physical` on the returned state.
    """
    na, nb = math.isqrt(form.x.size + 1), math.isqrt(form.y.size + 1)
    if na * na != form.x.size + 1 or nb * nb != form.y.size + 1:
        raise DimensionMismatchError(
            f"Bloch form sized ({form.x.size}, {form.y.size}) is not "
            "(n_A^2 - 1, n_B^2 - 1)"
        )
    # the identity joins each generator stack as element 0, so that
    # rho = (1/(n_A n_B)) sum_ij C_ij s_i (x) t_j with C = [[1, y], [x, T]]
    # is the single GEMM S_A^T C S_B over the flattened stacks
    sa = np.concatenate((np.eye(na)[None], _generators_for(na, basis_a)))
    sb = np.concatenate((np.eye(nb)[None], _generators_for(nb, basis_b)))
    coeffs = np.block([[np.ones((1, 1)), form.y[None]], [form.x[:, None], form.T]])
    # m[(a,c), (b,d)] = rho[(a,b), (c,d)] up to the prefactor
    m = sa.reshape(-1, na * na).T @ coeffs @ sb.reshape(-1, nb * nb)
    d = na * nb
    data = m.reshape(na, na, nb, nb).transpose(0, 2, 1, 3).reshape(d, d) / d
    return DensityMatrix(na, nb, data)


def partial_trace(matrix: np.ndarray, dim_a: int, dim_b: int, side: Side) -> np.ndarray:
    """Partial trace of an arbitrary (dim_a*dim_b)-square matrix.

    `side` names the subsystem that is *kept*.
    """
    _check_side(side)
    r = np.asarray(matrix).reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        return np.einsum("abcb->ac", r)
    return np.einsum("abad->bd", r)


def reduced_state(rho: DensityMatrix, side: Side) -> DensityMatrix:
    """Reduced state of one subsystem (the other one is traced out).

    The marginal of a `SectorDensityMatrix` is diagonal: its sector
    diagonals summed by the kept side's labels.
    """
    if isinstance(rho, SectorDensityMatrix):
        _check_side(side)
        column, dim = (0, rho.dim_a) if side == "A" else (1, rho.dim_b)
        labels = np.concatenate([sector[column] for sector in rho.sectors])
        weights = np.concatenate([np.diagonal(sector[2]) for sector in rho.sectors])
        red = np.diag(np.bincount(labels, weights=weights, minlength=dim))
    else:
        red = partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
    if side == "A":
        return DensityMatrix(rho.dim_a, 1, red)
    return DensityMatrix(1, rho.dim_b, red)


def random_density_matrix(dim_a: int, dim_b: int, seed) -> DensityMatrix:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    rng = np.random.default_rng(seed)
    d = dim_a * dim_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return DensityMatrix(dim_a, dim_b, w / np.trace(w).real)
