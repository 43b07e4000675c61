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
from types import MappingProxyType
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


def _check_integer(value, what: str) -> int:
    """`value` as an int; floats, bools and other non-integers are rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise DimensionMismatchError(f"{what} must be an integer, got {value!r}")


def _check_dims(dim_a, dim_b) -> tuple[int, int]:
    dim_a, dim_b = (_check_integer(dim, "subsystem dimension") for dim in (dim_a, dim_b))
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

    `sectors` maps a shift s = n_A - n_B to the real block of the state on
    its sector: the min(dim_a - max(s, 0), dim_b - max(-s, 0)) basis states
    |k + max(s, 0), k + max(-s, 0)>, k = 0, 1, ..., of the (dim_a, dim_b)
    box, so the levels are implied by s.  Entries between two sectors, and
    on the sectors of shifts not given, are zero.

    Within a sector each level of either subsystem occurs once, so both
    marginals are diagonal, each sector diagonal adding into a run of
    levels.  `reduced_state`, `commutator_residual` and the spectrum read
    the sectors directly.
    `data` assembles the dense matrix on first access only.

    A shift must be an integer with a nonempty sector, every block is
    checked as `DensityMatrix` checks its matrix (finite, symmetric to
    HERMITICITY_TOL), and the traces must sum to 1 within TRACE_TOL.
    `sectors` is a read-only mapping in the given order; float64 blocks are
    kept without a copy and made read-only.
    """

    def __init__(self, dim_a: int, dim_b: int, sectors):
        dim_a, dim_b = _check_dims(dim_a, dim_b)
        checked = {}
        for shift, block in sectors.items():
            shift = _check_integer(shift, "sector shift")
            size = min(dim_a - max(shift, 0), dim_b - max(-shift, 0))
            if size < 1:
                raise DimensionMismatchError(
                    f"sector {shift} is empty: shifts run from {1 - dim_b} to {dim_a - 1}"
                )
            block = np.asarray(block)
            if block.shape != (size, size):
                raise DimensionMismatchError(
                    f"sector {shift} needs a {size} x {size} block, got {block.shape}"
                )
            if block.dtype.kind == "c":
                raise InvalidStateError(f"sector {shift} is complex; sector blocks are real")
            block = block.astype(float, copy=False)
            _check_hermitian(block, f" of sector {shift}")
            block.setflags(write=False)
            checked[shift] = block
        _check_trace(sum(np.trace(block) for block in checked.values()))
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.sectors = MappingProxyType(checked)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order; cached.

        The union of the sector spectra and one 0 for each basis state in
        no sector; the dense matrix is not assembled.
        """
        covered = sum(map(len, self.sectors.values()))
        vals = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(block) for block in self.sectors.values()]
                + [np.zeros(self.dim - covered)]
            )
        )
        vals.setflags(write=False)
        return vals

    @cached_property
    def data(self) -> np.ndarray:
        """The dense float64 matrix, assembled once; read-only."""
        data = np.zeros((self.dim, self.dim))
        # consecutive states of a sector lie dim_b + 1 rows apart
        step = self.dim_b + 1
        for shift, block in self.sectors.items():
            start = max(shift, 0) * self.dim_b + max(-shift, 0)
            rows = slice(start, start + len(block) * step, step)
            data[rows, rows] = block
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


def _sector_blocks(rho: SectorDensityMatrix, side: Side) -> list:
    """(first level of `side`, block) per sector: max(s, 0) on A, max(-s, 0) on B."""
    sign = 1 if side == "A" else -1
    return [(max(sign * shift, 0), block) for shift, block in rho.sectors.items()]


def _marginal(rho: DensityMatrix, side: Side) -> np.ndarray:
    """Reduced state of `side` as a plain array, not Hermitized or re-validated.

    For a `SectorDensityMatrix` it is diagonal: each sector diagonal summed
    into the run of the kept side's levels that the sector holds.
    """
    if not isinstance(rho, SectorDensityMatrix):
        return partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
    _check_side(side)
    p = np.zeros(rho.dim_a if side == "A" else rho.dim_b)
    for lo, block in _sector_blocks(rho, side):
        p[lo : lo + len(block)] += np.diagonal(block)
    return np.diag(p)


def reduced_state(rho: DensityMatrix, side: Side) -> DensityMatrix:
    """Reduced state of one subsystem (the other one is traced out).

    Hermitized as (m + m^dagger)/2: the partial trace sums entries that are
    each Hermitian only to within the tolerance `DensityMatrix` accepts.
    """
    red = _marginal(rho, side)
    red = (red + red.conj().T) / 2.0
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
