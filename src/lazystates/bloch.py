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

This is one change of basis.  Each side's basis keeps S = [vec I; vec g_i]
(S = [[1]] on a trivial side), with S S^dagger = diag(n, 2, ..., 2).  The
traces above are the entries of S_A m S_B^T over the realigned state
m[(c,a), (d,b)] = rho[(a,b), (c,d)].  A `BlochForm` is the one coefficient
matrix C = [[1, y], [x, T]], and x, y and T are read-only views of it:
`decompose` is the product C = S_A m S_B^T with its first row and column
rescaled, and `reconstruct` the transposed product m = S_A^T C S_B.

Subsystem A indexes the outer (slow) Kronecker factor throughout the
package.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Literal

import numpy as np

from ._scalars import _scalar
from .errors import DimensionMismatchError, InvalidStateError
from .su_algebra import SuBasis, _su_basis

__all__ = [
    "Side",
    "DensityMatrix",
    "SectorDensityMatrix",
    "BlochForm",
    "decompose",
    "reconstruct",
    "reduced_state",
    "random_density_matrix",
]

Side = Literal["A", "B"]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
#: eigenvalues above this (slightly negative) floor count as nonnegative
POSITIVITY_TOL = -1e-10
#: numpy's size limit for one array, in bytes
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)
#: float64 entries of one dot in `_frobenius`, below the 10^4 from which
#: OpenBLAS splits a dot across threads
_DOT_ENTRIES = 8192


def _check_side(side: str) -> str:
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return side


def _check_tolerance(tol: float) -> float:
    """`tol` as a float (`_scalar`); NaN, Inf and nonpositive values are rejected."""
    return _scalar(tol, "tolerance must be a positive finite number", lambda v: 0.0 < v < math.inf)


def _require_finite(arr: np.ndarray, label: str) -> None:
    """Raise InvalidStateError naming the first NaN or Inf entry of `arr`."""
    if not np.isfinite(arr).all():
        pos = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise InvalidStateError(f"non-finite entry in {label} at {pos}")


def _number_array(value, name: str, where: str | None = None, real: bool = False) -> np.ndarray:
    """`value` as a new float64 array, or complex128 if it holds complex
    numbers; what is not a number raises InvalidStateError naming `name`.

    numpy would read "1" and True as 1.0, and None as NaN.  A boolean or
    object array is read as the nested list it holds, so its numbers are
    typed as a list's would be.  numpy's own errors, on a ragged nesting,
    an object or an integer beyond the float range, follow "malformed
    {name}: ".  A string dtype is rejected; then a boolean or null in a
    list, or in a boolean or object array, is named by its position from
    `where` (default `name`), such as "null at matrix[1][0]"
    (`_reject_boolean_or_null`); a numeric array is not walked.  A
    complex dtype is rejected when `real` is set.
    """
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "bO":
            value = arr.tolist()
            arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"malformed {name}: {exc}") from exc
    kind = arr.dtype.kind
    if kind in "SU" or (kind == "O" and any(isinstance(x, (str, bytes)) for x in arr.flat)):
        raise InvalidStateError(f"malformed {name}: a string where a number belongs")
    if not isinstance(value, np.ndarray):
        _reject_boolean_or_null(value, where or name)
    if kind == "c" and real:
        raise InvalidStateError(f"malformed {name}: a complex number where a real one belongs")
    try:
        return np.array(arr, dtype=complex if kind == "c" else float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidStateError(f"malformed {name}: {exc}") from exc


def _locate(obj, found, where: str = "$"):
    """JSONPath-style location and value of the first item of `obj` that
    `found` holds for, in document order, or None."""
    if found(obj):
        return where, obj
    if isinstance(obj, dict):
        children = ((f"{where}.{key}", value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = ((f"{where}[{pos}]", value) for pos, value in enumerate(obj))
    else:
        return None
    for sub, value in children:
        hit = _locate(value, found, sub)
        if hit is not None:
            return hit
    return None


def _reject_boolean_or_null(value, where: str, suffix: str = "") -> None:
    """Raise InvalidStateError naming the first boolean or null in `value`
    by its JSONPath-style position, `where` for `value` itself.

    numpy would read true and false as 1 and 0, and null as NaN.  `value`
    is a number or a nesting of lists, tuples and dicts; an array in it is
    not walked.  `suffix` follows the position in the message, e.g. " in
    state.json".
    """
    hit = _locate(value, lambda item: item is None or isinstance(item, (bool, np.bool_)), where)
    if hit is not None:
        at, item = hit
        kind = "null" if item is None else f"boolean {'true' if item else 'false'}"
        raise InvalidStateError(f"{kind} at {at}{suffix}")


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a real or complex `x`, from its float64 view v.

    It is the in-order sum of the dots of v's consecutive
    _DOT_ENTRIES-entry chunks: up to _DOT_ENTRIES entries one contiguous
    dot v.v, the sum the sector residual takes.  OpenBLAS splits a longer
    dot across threads, which moves its last bits with the thread count;
    each chunk stays below that cut.
    """
    v = x.reshape(-1).view(np.float64)
    total = 0.0
    for start in range(0, v.size, _DOT_ENTRIES):
        chunk = v[start : start + _DOT_ENTRIES]
        total += chunk.dot(chunk)
    return math.sqrt(total)


@np.errstate(invalid="ignore", over="ignore")
def _check_hermitian(data: np.ndarray, where: str = "") -> None:
    """Reject `data` when it is non-finite or not Hermitian to HERMITICITY_TOL.

    `where` is the text that follows an entry position in a message, e.g.
    " of sector 3".  One scan, max |data - data^dagger|, decides both: a
    NaN or Inf entry leaves a NaN or Inf there and at its mirror, with
    numpy's warnings on `inf - inf` and on overflow off.
    """
    asym = np.abs(data - data.conj().T)
    max_asym = float(asym.max())
    if max_asym <= HERMITICITY_TOL:
        return
    # a rejection is rare: only then tell a non-finite entry from a large asymmetry
    finite = np.isfinite(data)
    if not finite.all():
        # the first position in row order that holds a NaN or Inf or mirrors one
        i, j = np.argwhere(~(finite & finite.T))[0]
        raise InvalidStateError(f"non-finite entry at ({i}, {j}){where}")
    i, j = np.unravel_index(int(asym.argmax()), asym.shape)
    raise InvalidStateError(
        f"hermiticity violation: max asymmetry {max_asym:.3e} "
        f"at entry ({i}, {j}){where}"
    )


def _check_trace(trace: complex) -> None:
    trace_dev = abs(complex(trace) - 1.0)
    # `not <=` also rejects a NaN, from opposite overflowed sums
    if not trace_dev <= TRACE_TOL:
        raise InvalidStateError(f"trace deviation {trace_dev:.3e}")


def _check_dense_size(dim: int, what: str) -> None:
    """ValueError naming `what` when a dense dim x dim complex matrix is too big.

    Checked before allocating, so numpy's own message (which names neither
    the parameter nor the limit) is never reached.
    """
    nbytes = 16 * dim * dim
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(
            f"{what}: a dense {dim} x {dim} complex matrix would take "
            f"{nbytes:.3g} bytes, over numpy's limit of {MAX_ARRAY_BYTES} bytes per array"
        )


def _check_dims(dim_a, dim_b) -> tuple[int, int]:
    """Both subsystem dimensions as ints >= 1 (`_scalar`)."""
    message = "subsystem dimension must be an integer >= 1"
    return (
        _scalar(dim_a, message, lambda v: v >= 1, int),
        _scalar(dim_b, message, lambda v: v >= 1, int),
    )


class DensityMatrix:
    """Hermitian unit-trace matrix with a bipartite dimension split.

    Real input stays real: it is stored as float64, so the products of a
    real state run in real arithmetic; complex input is stored as
    complex128 (`_number_array`, which rejects strings, booleans and
    nulls).  Hermiticity and unit trace are enforced at construction.
    Positivity is *not*: generator expansions with out-of-range coefficients
    legitimately produce indefinite matrices, so it is exposed as the lazy
    `is_physical` flag instead and enforced only where callers demand it
    via `require_physical`.

    The matrix is read-only, so two derived quantities are computed on
    first read and kept: `eigenvalues` and `bloch_form`, the expansion over
    the canonical bases that both sides' laziness verdicts read.

    The state also owns the two pieces that both laziness characterizations
    read: its raw marginal `_partial_trace(side)` and the kernel
    `_commutator(X, side)`, [rho, X (x) I] or [rho, I (x) X] for any local
    X: X = rho_A for the verdict, X = log2(rho_A) for the entropy rate.
    The kernel never forms X (x) I: with rho viewed as the tensor
    r[a, b, c, d] (A indices a, c slow, B indices b, d fast), left
    multiplication by X (x) I contracts X with the row index a alone, right
    multiplication with the column index c alone, and I (x) X does the same
    on b and d.  Each product is one GEMM over a reshaped view of rho,
    O(d^2 n) work instead of the O(d^3) of a dense d x d product.  A real
    state has a real marginal, so both GEMMs then run in real arithmetic.
    `_commutator_norm(X, side)` is its Frobenius norm, and `_residual(side)`
    that norm at X = the raw marginal, the commutator residual; the norm is
    one dot of the commutator's float64 view, `_frobenius`.

    `_partial_trace`, `_commutator` and `_residual` take a side their
    caller has checked, as `is_lazy`, `commutator_residual` and
    `reduced_state` do once per call, and run the numpy arithmetic alone.
    """

    def __init__(self, dim_a: int, dim_b: int, data):
        dim_a, dim_b = _check_dims(dim_a, dim_b)
        data = _number_array(data, "matrix")
        d = dim_a * dim_b
        if data.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {data.shape} does not match dimensions "
                f"({dim_a}, {dim_b}) -> ({d}, {d})"
            )
        _check_hermitian(data)
        # a sum of Python numbers overflows to inf without a numpy warning
        _check_trace(sum(data.diagonal().tolist()))
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

    @cached_property
    def bloch_form(self) -> "BlochForm":
        """`decompose(self)` over the canonical bases; cached."""
        return decompose(self)

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

    def _partial_trace(self, side: Side) -> np.ndarray:
        """Reduced state of a checked `side` as a plain array, not
        Hermitized or re-validated."""
        r = self.data.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return np.einsum("abcb->ac" if side == "A" else "abad->bd", r)

    def _commutator(self, x: np.ndarray, side: Side) -> np.ndarray:
        """[rho, X (x) I] (side A) or [rho, I (x) X] (side B) as a d x d array.

        Both products are formed: rho is Hermitian only to within the
        tolerance `DensityMatrix` accepts.
        """
        na, nb = self.dim_a, self.dim_b
        r = self.data
        if side == "A":
            x_rho = x @ r.reshape(na, -1)
            rho_x = x.T @ r.reshape(-1, na, nb)
        else:
            x_rho = x @ r.reshape(na, nb, -1)
            rho_x = r.reshape(-1, nb) @ x
        d = na * nb
        # in place: both products are this call's own arrays
        c = rho_x.reshape(d, d)
        return np.subtract(c, x_rho.reshape(d, d), out=c)

    def _commutator_norm(self, x: np.ndarray, side: Side) -> float:
        """Frobenius norm of `_commutator(x, side)`."""
        return _frobenius(self._commutator(x, side))

    def _residual(self, side: Side) -> float:
        """The commutator residual of a side the caller has checked: the
        norm of `_commutator` at X = `_partial_trace(side)`."""
        return _frobenius(self._commutator(self._partial_trace(side), side))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim_a={self.dim_a}, dim_b={self.dim_b})"


class SectorDensityMatrix(DensityMatrix):
    """Real state of a square (keep, keep) box that is a direct sum of
    symmetric blocks over its 2 keep - 1 sectors.

    Only `fock_truncate` makes one, through `_of`: calling the class raises
    TypeError.  Sector s = n_A - n_B holds the keep - |s| basis states
    |k + max(s, 0), k + max(-s, 0)>, k = 0, 1, ...; entries between two
    sectors are zero.

    The state keeps its sectors as stacks of products, each read as the
    sectors +d and -d: a list of (S, shifts, weights) triples.  S is a
    read-only float64 (g, s, s) stack, each layer exactly zero outside a
    leading corner; shifts holds the d >= 0 of its layers, 0, 1, ...,
    keep - 1 over the stacks in order; weights is one read-only float64
    (2, g) table of weights w >= 0.  Row 0 reads layer k as sector
    +shifts[k], the (keep - d)-square corner of weights[0, k] * S[k], and
    row 1 as sector -shifts[k], that of weights[1, k] * S[k]; the mirror of
    sector 0 is no sector and weighs 0.  Entry k of row 0 lies on the A
    level d + k and the B level k, entry k of row 1 on the A level k and
    the B level d + k.  Each step below walks a stack once, both rows
    together, and the padding adds nothing to it.

    Within a sector each level of either subsystem occurs once, so both
    marginals are diagonal.  The shifts of each stack are consecutive, so
    its first shift and its shape locate all its entries: `_hold` keeps
    them as the state's `_plan`, (first, g, s) per stack.  `_of` sums the
    diagonal of rho_A and keeps it read-only; the diagonal of rho_B is
    summed on its first read and kept too.  Each sum (`_level_sums`)
    copies the product diagonals into row d of a zeroed (keep, 2 keep)
    buffer, shifted right by d, through a skewed (keep, keep) view D of
    it, and takes two vector-matrix products: the weights of the sectors
    on the unshifted levels times D, and those of the sectors d levels up
    times the buffer's first keep columns, where entry (d, i) of D lands
    on level d + i.  `_partial_trace` is the diagonal matrix of the kept
    diagonal; the commutator residual (`_residual`) reads the kept
    diagonal itself and forms no such matrix.  For a diagonal X =
    diag(p), such as the marginal, [rho, X (x) I] has the entries
    rho_kl (p(a_l) - p(a_k)) inside each sector and zeros elsewhere, and

        || [rho, X (x) I] ||_F^2 = sum_s sum_kl (rho^(s)_kl)^2 (p(a_k) - p(a_l))^2,

    which `_diagonal_commutator_norm` sums per stack, S times the
    differences of ps = p(levels) * weights over both rows, with one
    `vdot` (side B reads the B levels).  p is read padded with dim_a +
    dim_b zeros, which the padding's levels past the box read.  No level
    is gathered: by the plan, the shifted levels d + k of the layers of
    a stack are rows first, ..., first + g - 1 of the strided window
    window[d] = p[d:d + keep] of the padded p, and the others are p[:s].

    w S has the spectrum of S times w >= 0, so `eigenvalues` is one
    `eigvalsh` per product corner, scaled by the weight of each of its
    sectors, and `data` is scattered from w S[k].  Neither forms
    `sectors`, the read-only mapping of shift to block in the order 0, 1,
    -1, 2, -2, ..., formed on first read only.

    Each sector w S[k] is checked as `DensityMatrix` checks its matrix
    (finite, symmetric to HERMITICITY_TOL): each stack is scanned once for
    its largest asymmetry per layer, which |weights| scales and sums per
    row, and the sums of all stacks are compared with HERMITICITY_TOL at
    once; a NaN or Inf in S or in a weight leaves a NaN or Inf there.
    The stacks that fail go back through `_check_hermitian` on their
    sectors in mapping order, so the error names the first bad sector and
    the entry the scan of that block alone names.  The trace, the sum of
    the rho_A diagonal, must be 1 within TRACE_TOL.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a SectorDensityMatrix is made by fock_truncate(form, cutoff) only")

    @classmethod
    def _of(cls, dim_a: int, dim_b: int, stacks: list) -> "SectorDensityMatrix":
        """The state of `stacks`, (S, shifts, weights) triples kept without a
        copy; the caller guarantees the layout the class describes, the
        shifts of each stack consecutive among them."""
        state = object.__new__(cls)
        state._hold(dim_a, dim_b, stacks)
        return state

    @np.errstate(invalid="ignore", over="ignore")
    def _hold(self, dim_a: int, dim_b: int, stacks: list) -> None:
        """Check `stacks` as the state's sectors and keep them, with the
        rho_A diagonal: one scan per stack, one comparison per state."""
        self.dim_a, self.dim_b = dim_a, dim_b
        self._stacks = stacks
        self._plan = tuple((shifts[0].item(), *stack.shape[:2]) for stack, shifts, _ in stacks)
        # each row's sum bounds every |w_k| times the asymmetry of S[k]
        bounds = np.empty((len(stacks), 2))
        for bound, (stack, _, weights) in zip(bounds, stacks):
            # S - S^T is antisymmetric, so its largest entry is its largest |entry|
            layer_max = (stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
            np.matmul(np.abs(weights), layer_max, out=bound)
        # a NaN or Inf in S or w leaves a NaN or Inf, which `<=` fails
        if not (bounds <= HERMITICITY_TOL).all():
            bad = {
                shift
                for (_, shifts, _), bound in zip(stacks, bounds)
                if not (bound <= HERMITICITY_TOL).all()
                for shift in shifts.tolist()
            }
            for shift, block in self.sectors.items():
                if abs(shift) in bad:
                    _check_hermitian(block, f" of sector {shift}")
            # every sector of the failing stacks passed on its own
        for stack, _, _ in stacks:
            stack.setflags(write=False)
        # finite diagonals can still sum beyond the float range: the trace
        # check names that, so numpy need not warn
        diag_a = self._level_sums("A")
        _check_trace(diag_a.sum())
        diag_a.setflags(write=False)
        self._diagonal_a = diag_a

    def _products(self):
        """(corner, reads) of each product S[k] in the order d = 0, 1, ...:
        the corner of S[k] that holds sectors d and -d, and (shift, weight)
        of each sector it is read as, d before -d."""
        for stack, shifts, weights in self._stacks:
            for d, layer, plus, minus in zip(shifts.tolist(), stack, *weights.tolist()):
                size = self.dim_a - d
                yield layer[:size, :size], ((d, plus), (-d, minus))[: 2 if d else 1]

    @cached_property
    def sectors(self) -> MappingProxyType:
        """Read-only mapping of shift to block, formed on first read."""
        sectors = {shift: w * corner for corner, reads in self._products() for shift, w in reads}
        for block in sectors.values():
            block.setflags(write=False)
        return MappingProxyType(sectors)

    @np.errstate(over="ignore", invalid="ignore")
    def _level_sums(self, side: Side) -> np.ndarray:
        """Weights times the stack diagonals, summed over the levels of
        `side`: two vector-matrix products over one buffer."""
        keep = self.dim_a
        # row d of `diag` starts d entries into row d of `buffer`: `diag`
        # holds the product diagonals as they stand, row d on levels 0,
        # 1, ..., and `buffer` the same rows d levels up; the padding past
        # the box, and the mirror of sector 0, add zeros
        buffer = np.zeros((keep, 2 * keep))
        diag = np.ndarray((keep, keep), float, buffer, strides=(sum(buffer.strides), 8))
        for (first, g, size), (stack, _, _) in zip(self._plan, self._stacks):
            diag[first : first + g, :size] = stack.diagonal(0, 1, 2)
        weights = np.concatenate([weights for _, _, weights in self._stacks], axis=1)
        # sector +d (row 0) lies d levels up on A, -d (row 1) on B; numpy's
        # matmul warns on overflow, which `_hold` and `_diagonal_b` name
        shifted, unshifted = (0, 1) if side == "A" else (1, 0)
        return weights[shifted] @ buffer[:, :keep] + weights[unshifted] @ diag

    @cached_property
    def _diagonal_b(self) -> np.ndarray:
        """Read-only diagonal of rho_B, accumulated on first read.

        The trace check bounds the sum of the levels, not each B level:
        finite blocks can still sum beyond the float range there, which
        raises InvalidStateError naming the level, with no numpy warning.
        """
        diag_b = self._level_sums("B")
        finite = np.isfinite(diag_b)
        if not finite.all():
            level = int(finite.argmin())
            raise InvalidStateError(
                f"rho_B level {level} sums beyond the float range: {diag_b[level]}"
            )
        diag_b.setflags(write=False)
        return diag_b

    def _diagonal(self, side: Side) -> np.ndarray:
        """Read-only diagonal of the marginal of a checked `side`, kept on the state."""
        return self._diagonal_a if side == "A" else self._diagonal_b

    def _partial_trace(self, side: Side) -> np.ndarray:
        """Reduced state of `side`, the diagonal matrix of the kept diagonal."""
        return np.diag(self._diagonal(side))

    def _residual(self, side: Side) -> float:
        """The commutator residual, read off the kept diagonal of the
        marginal: no marginal matrix is formed."""
        return self._diagonal_commutator_norm(self._diagonal(side), side)

    def _commutator_norm(self, x: np.ndarray, side: Side) -> float:
        """Frobenius norm of [rho, X (x) I] for a diagonal X, of which only
        `x.diagonal()` is read."""
        return self._diagonal_commutator_norm(x.diagonal(), side)

    def _diagonal_commutator_norm(self, p: np.ndarray, side: Side) -> float:
        """Frobenius norm of [rho, diag(p) (x) I] (side A) or
        [rho, I (x) diag(p)] (side B), summed over the stacks."""
        keep = self.dim_a
        p = np.concatenate((p, np.zeros(self.dim_a + self.dim_b)))
        # window[d] = p[d:d + keep], a view: entry i of a layer of shift d
        # lies on the level d + i of one side, past the box in the padding
        window = np.ndarray((keep, keep), p.dtype, p, strides=2 * p.strides)
        # one stack's commutator at a time, in one buffer
        buffer = np.empty(2 * max(stack.size for stack, _, _ in self._stacks))
        total = 0.0
        for (first, g, size), (stack, _, weights) in zip(self._plan, self._stacks):
            shifted, level = window[first : first + g, :size], p[:size]
            # X = diag(p): layer k of the commutator read through row r has
            # the entries w_rk S_ij (p_j - p_i) on its levels, zeros in the
            # padding; sector +d (row 0) lies d levels up on A, -d on B
            ps = np.empty((2, g, size))
            np.multiply(shifted if side == "A" else level, weights[0, :, None], out=ps[0])
            np.multiply(level if side == "A" else shifted, weights[1, :, None], out=ps[1])
            y = buffer[: 2 * stack.size].reshape(2, *stack.shape)
            np.subtract(ps[:, :, None, :], ps[:, :, :, None], out=y)
            y *= stack
            total += np.vdot(y, y)
        return math.sqrt(total)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order; cached.  One `eigvalsh` per
        product corner, times the weight of each of its sectors."""
        spectra = []
        for corner, reads in self._products():
            vals = np.linalg.eigvalsh(corner)
            spectra += (w * vals for _, w in reads)
        vals = np.sort(np.concatenate(spectra))
        vals.setflags(write=False)
        return vals

    @cached_property
    def data(self) -> np.ndarray:
        """The dense float64 matrix, assembled once; read-only."""
        n = self.dim_b
        data = np.zeros((self.dim, self.dim))
        for corner, reads in self._products():
            for shift, w in reads:
                # sector s starts at |max(s, 0), max(-s, 0)>, and its
                # consecutive states lie n + 1 rows apart
                start = max(shift, 0) * n + max(-shift, 0)
                rows = slice(start, start + len(corner) * (n + 1), n + 1)
                np.multiply(corner, w, out=data[rows, rows])
        data.setflags(write=False)
        return data

    def __repr__(self) -> str:
        return (
            f"SectorDensityMatrix(dim_a={self.dim_a}, dim_b={self.dim_b}, "
            f"sectors={2 * self.dim_a - 1})"
        )


class BlochForm:
    """Coherence vectors x, y and correlation matrix T of a bipartite state.

    The form is its coefficient matrix C = [[1, y], [x, T]], float64 and
    read-only; x, y and T are read-only views of it.  `BlochForm(x=..., y=...,
    T=...)` reads each part as real numbers (`_number_array`), checks the
    shapes and copies the parts into a fresh C, while `decompose` hands over
    the C of its own product.  Either way one scan rejects a NaN or Inf, naming
    the part and the entry.  Attributes cannot be set.
    """

    __slots__ = ("C",)

    def __init__(self, x, y, T):
        x, y, T = (_number_array(v, name, real=True) for v, name in ((x, "x"), (y, "y"), (T, "T")))
        if x.ndim != 1 or y.ndim != 1 or T.shape != (x.size, y.size):
            raise DimensionMismatchError(
                f"inconsistent Bloch shapes x{x.shape}, y{y.shape}, T{T.shape}"
            )
        C = np.empty((x.size + 1, y.size + 1))
        C[0, 0] = 1.0
        C[1:, 0], C[0, 1:], C[1:, 1:] = x, y, T
        self._hold(C)

    @classmethod
    def _of(cls, C: np.ndarray) -> "BlochForm":
        """The form whose coefficient matrix is `C`, a fresh float64 array
        that it keeps without a copy."""
        form = object.__new__(cls)
        form._hold(C)
        return form

    def _hold(self, C: np.ndarray) -> None:
        C.setflags(write=False)
        object.__setattr__(self, "C", C)
        if not np.isfinite(C).all():
            for name in ("x", "y", "T"):
                _require_finite(getattr(self, name), name)

    @property
    def x(self) -> np.ndarray:
        return self.C[1:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.C[0, 1:]

    @property
    def T(self) -> np.ndarray:
        return self.C[1:, 1:]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a BlochForm is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a BlochForm is read-only")

    def __reduce__(self):
        return (BlochForm, (self.x, self.y, self.T))

    def __repr__(self) -> str:
        return f"BlochForm(x={self.x!r}, y={self.y!r}, T={self.T!r})"


def _change_of_basis(dim: int, basis: SuBasis | None) -> np.ndarray:
    """`S` of one side, its canonical basis built on demand and a given
    basis checked against `dim`; [[1]] for a trivial side."""
    if dim == 1:
        return np.ones((1, 1))
    if basis is None:
        return _su_basis(dim).S
    if basis.dim != dim:
        raise DimensionMismatchError(
            f"basis dimension {basis.dim} does not match subsystem dimension {dim}"
        )
    return basis.S


def _realign(data: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """m[(c,a), (d,b)] = data[(a,b), (c,d)], so tr(data (A (x) B)) = vec(A)^T m vec(B)."""
    r = data.reshape(dim_a, dim_b, dim_a, dim_b)
    return r.transpose(2, 0, 3, 1).reshape(dim_a * dim_a, dim_b * dim_b)


def decompose(
    rho: DensityMatrix,
    basis_a: SuBasis | None = None,
    basis_b: SuBasis | None = None,
) -> BlochForm:
    """Expand a state over the generator basis by one change of basis.

    The form's C is the real part of S_A m S_B^T, its first column (x)
    scaled by n_A / 2, its first row (y) by n_B / 2, its body (T) by
    n_A n_B / 4, and its corner set to 1.  Bases are built on demand when
    omitted.  A trivial (dimension-1) side contributes empty
    coherence/correlation blocks, so reduced states pass through unchanged.
    """
    na, nb = rho.dim_a, rho.dim_b
    sa, sb = _change_of_basis(na, basis_a), _change_of_basis(nb, basis_b)
    c = (sa @ _realign(rho.data, na, nb) @ sb.T).real * _coefficient_scale(na, nb)
    c[0, 0] = 1.0
    return BlochForm._of(c)


@lru_cache(maxsize=11)
def _coefficient_scale(dim_a: int, dim_b: int) -> np.ndarray:
    """outer([1, n_A/2, ...], [1, n_B/2, ...]), read-only; the eleven
    splits used last are cached, enough for a scan over the splits of local
    dimensions 2-4 with 6 x 6 and 8 x 8: the table takes 8 n_A^2 n_B^2
    bytes, 134 MB at 64 x 64.

    (n_A / 2)(n_B / 2) is exactly n_A n_B / 4, so every coefficient is one
    rounded product.
    """
    scale = np.outer(
        np.r_[1.0, np.full(dim_a * dim_a - 1, dim_a / 2.0)],
        np.r_[1.0, np.full(dim_b * dim_b - 1, dim_b / 2.0)],
    )
    scale.setflags(write=False)
    return scale


def reconstruct(
    form: BlochForm,
    basis_a: SuBasis | None = None,
    basis_b: SuBasis | None = None,
) -> DensityMatrix:
    """Assemble the density matrix of a Bloch form.

    The mirror image of `decompose`, the transposed product S_A^T C S_B on
    the form's C = [[1, y], [x, T]]: the subsystem dimensions follow from the
    sizes of x and y, bases are built on demand when omitted, and a trivial
    side has empty coherence/correlation blocks.  The result is Hermitian
    with unit trace by construction.  Positivity is not guaranteed; inspect
    `is_physical` on the returned state.
    """
    na, nb = math.isqrt(form.x.size + 1), math.isqrt(form.y.size + 1)
    if na * na != form.x.size + 1 or nb * nb != form.y.size + 1:
        raise DimensionMismatchError(
            f"Bloch form sized ({form.x.size}, {form.y.size}) is not "
            "(n_A^2 - 1, n_B^2 - 1)"
        )
    sa, sb = _change_of_basis(na, basis_a), _change_of_basis(nb, basis_b)
    # m[(a,c), (b,d)] = rho[(a,b), (c,d)] up to the prefactor
    m = sa.T @ form.C @ sb
    d = na * nb
    data = m.reshape(na, na, nb, nb).transpose(0, 2, 1, 3).reshape(d, d) / d
    return DensityMatrix(na, nb, data)


def reduced_state(rho: DensityMatrix, side: Side) -> DensityMatrix:
    """Reduced state of one subsystem (the other one is traced out).

    Hermitized as (m + m^dagger)/2: the partial trace sums entries that are
    each Hermitian only to within the tolerance `DensityMatrix` accepts.
    """
    red = rho._partial_trace(_check_side(side))
    dims = (rho.dim_a, 1) if side == "A" else (1, rho.dim_b)
    return DensityMatrix(*dims, (red + red.conj().T) / 2.0)


def random_density_matrix(dim_a: int, dim_b: int, seed) -> DensityMatrix:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    dim_a, dim_b = _check_dims(dim_a, dim_b)
    d = dim_a * dim_b
    _check_dense_size(d, f"dimensions dimA x dimB = {dim_a} x {dim_b} are too large")
    seed = _scalar(seed, "seed must be an integer >= 0", lambda v: v >= 0, int)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return DensityMatrix(dim_a, dim_b, w / np.trace(w).real)
