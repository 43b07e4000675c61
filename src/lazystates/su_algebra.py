"""Generator bases of su(n) and their structure constants.

The basis for dimension n contains, in order, the n(n-1)/2 symmetric
off-diagonal generators, the n(n-1)/2 antisymmetric ones (both blocks in
lexicographic (j, k) order), and the n-1 diagonal generators.  With
P[j,k] = |j><k| (1-based) they read

    u[j,k] = P[j,k] + P[k,j]                          1 <= j < k <= n
    v[j,k] = i (P[j,k] - P[k,j])                      1 <= j < k <= n
    w[l]   = -sqrt(2/(l(l+1))) (P[1,1] + ... + P[l,l] - l P[l+1,l+1])

Note the overall minus sign on the diagonal family and the orientation of
the antisymmetric one: for n = 2 this yields (X, -Y, -Z) rather than the
textbook Pauli triple.  The two sign flips cancel inside every commutator,
so the n = 2 structure constants are still the Levi-Civita symbol.

All generators g_i are Hermitian, traceless, and normalized to
tr(g_i g_j) = 2 delta_ij.  The structure constants are the real, totally
antisymmetric coefficients in [g_i, g_j] = 2i sum_k f_ijk g_k, i.e.
f_ijk = tr([g_i, g_j] g_k) / (4i).

`build_su_basis` takes them from the closed forms of the generalized
Gell-Mann basis (Bertlmann & Krammer, "Bloch vectors for qudits",
J. Phys. A 41, 235303 (2008)).  In the textbook convention (v and w
without the sign flips above) the only nonzero constants are, for
1 <= j < k < l <= n and 1 <= m <= n - 1,

    f(u[j,k], u[j,l], v[k,l]) = f(v[j,k], u[j,l], u[k,l])
        = f(v[j,k], v[j,l], v[k,l]) = 1/2,   f(u[j,k], v[j,l], u[k,l]) = -1/2,
    f(u[j,k], v[j,k], w[m]) = (d[m]_jj - d[m]_kk) / 2,

with d[m] = -w[m] the textbook diagonal generator, together with their
permutations.  This package's signs follow from

    f_here(a, b, c) = s_a s_b s_c f_textbook(a, b, c),

with s = -1 on the v and w families and s = +1 on the u family: every
off-diagonal constant flips sign and the diagonal ones keep theirs.  Only
4 C(n, 3) + O(n^3) of the (n^2 - 1)^3 entries are nonzero; they are stored
as coordinate arrays and never expanded to the dense tensor.
The tests compare them against an independent oracle,
`tests/conftest.py::structure_constants`, which evaluates the trace formula
on an arbitrary basis through the dense (N, N, N) triple-product tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from ._scalars import _scalar

__all__ = [
    "SuBasis",
    "StructureConstants",
    "build_su_basis",
]

#: entries of f with absolute value at or below this are treated as zero
ZERO_CUTOFF = 1e-12


class StructureConstants:
    """Sparse, totally antisymmetric rank-3 tensor in coordinate form.

    Only triples with i < j < k are stored: `index` holds them as 0-based
    rows of an (nnz, 3) integer array in lexicographic order and `data`
    their values.  `permuted` lists every nonzero entry in all six index
    orders, its permutation sign folded into the value: the form the
    contractions consume, and the table `value` reads, so repeated indices
    give zero.  `scatter_index` says where each entry of `permuted` lands.
    The public accessors `value` and `triples` use 1-based indices.
    """

    def __init__(self, size: int, index, data):
        self.size = int(size)
        index = np.array(index, dtype=np.int64).reshape(-1, 3)
        data = np.array(data, dtype=float).reshape(-1)
        if data.shape[0] != index.shape[0]:
            raise ValueError(
                f"{index.shape[0]} index triples but {data.shape[0]} values"
            )
        bad = (index[:, 0] < 0) | (index[:, 0] >= index[:, 1])
        bad |= (index[:, 1] >= index[:, 2]) | (index[:, 2] >= self.size)
        if bad.any():
            raise ValueError(
                f"non-canonical index triple {tuple(index[bad][0] + 1)}"
            )
        keep = np.abs(data) > ZERO_CUTOFF
        index, data = index[keep], data[keep]
        order = np.lexsort(index.T[::-1])
        self.index, self.data = index[order], data[order]
        for arr in (self.index, self.data):
            arr.setflags(write=False)

    def value(self, i: int, j: int, k: int) -> float:
        """f_ijk for any 1-based index order, read off `permuted`."""
        a, b, c, v = self.permuted
        hits = v[(a == i - 1) & (b == j - 1) & (c == k - 1)]
        return float(hits[0]) if hits.size else 0.0

    def triples(self) -> Iterator[tuple[int, int, int, float]]:
        """Nonzero canonical entries as sorted 1-based (i, j, k, value) tuples."""
        return (
            (int(i) + 1, int(j) + 1, int(k) + 1, float(v))
            for (i, j, k), v in zip(self.index, self.data)
        )

    @cached_property
    def permuted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero f_ijk as 0-based arrays (i, j, k, value); cached.

        Holds all six index orders of each stored triple, each with its
        permutation sign folded into the value.
        """
        a, b, c = self.index.T
        v = self.data
        out = (
            np.concatenate([a, b, c, a, b, c]),
            np.concatenate([b, c, a, c, a, b]),
            np.concatenate([c, a, b, b, c, a]),
            np.concatenate([v, v, v, -v, -v, -v]),
        )
        for arr in out:
            arr.setflags(write=False)
        return out

    @cached_property
    def scatter_index(self) -> np.ndarray:
        """i * size + k for every entry of `permuted`: the flat position in a
        (size, size) matrix that a contraction over j scatters it to; cached."""
        i, _, k, _ = self.permuted
        flat = i * self.size + k
        flat.setflags(write=False)
        return flat

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return (
            self.size == other.size
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class SuBasis:
    """Ordered su(n) generator basis together with its structure constants.

    The change of basis S = [vec I; vec g_i] (row-major vec) has
    S S^dagger = diag(n, 2, ..., 2); `generators` is a view of S[1:].
    """

    dim: int
    S: np.ndarray  # (n**2, n**2) complex, read-only
    f: StructureConstants

    @property
    def generators(self) -> np.ndarray:  # (n**2 - 1, n, n), read-only
        return self.S[1:].reshape(-1, self.dim, self.dim)


def _gell_mann_constants(n: int) -> StructureConstants:
    """Closed-form structure constants of the su(n) basis built below."""
    pairs = n * (n - 1) // 2
    pair = np.zeros((n, n), dtype=np.int64)
    row, col = np.triu_indices(n, 1)
    pair[row, col] = np.arange(pairs)
    u, v = pair, pair + pairs  # generator index of u[j,k] and v[j,k]

    # off-diagonal: four triples per j < k < l; the textbook +-1/2 flip
    # sign here, and sorting each triple leaves all four at -1/2
    j, k, l = (
        np.array(list(combinations(range(n), 3)), dtype=np.int64)
        .reshape(-1, 3)
        .T
    )
    off = np.concatenate(
        [
            np.stack([u[j, k], u[j, l], v[k, l]], axis=1),
            np.stack([u[j, k], u[k, l], v[j, l]], axis=1),
            np.stack([u[j, l], u[k, l], v[j, k]], axis=1),
            np.stack([v[j, k], v[j, l], v[k, l]], axis=1),
        ]
    )

    # diagonal: f(u[j,k], v[j,k], w[m]) = (d_m[j] - d_m[k]) / 2, where row
    # m - 1 of `d` holds the diagonal of the textbook generator d_m = -w[m]:
    # c_m on the first m entries, -m c_m on the next one, zero after it
    m = np.arange(1, n)
    c = np.sqrt(2.0 / (m * (m + 1)))
    d = np.where(np.arange(n) < m[:, None], c[:, None], 0.0)
    d[m - 1, m] = -m * c
    diff = (d[:, row] - d[:, col]) / 2.0  # (n - 1, pairs)
    w_at, pair_at = np.nonzero(diff)
    diag = np.stack([pair_at, pairs + pair_at, 2 * pairs + w_at], axis=1)

    index = np.concatenate([off, diag])
    data = np.concatenate([np.full(len(off), -0.5), diff[w_at, pair_at]])
    return StructureConstants(n * n - 1, index, data)


def build_su_basis(n: int) -> SuBasis:
    """Construct the su(n) generator basis in canonical order.

    The order is: symmetric block, antisymmetric block (each lexicographic
    in (j, k)), then the diagonal generators; the identity precedes them in
    `S`.  The structure constants come from their closed forms.  `n` is
    read as an int >= 2 (`_scalar`) before the cache is consulted, so
    np.int64(3) and 3 share one basis.  The returned arrays are read-only
    and safe to share.
    """
    return _su_basis(_scalar(n, "su(n) dimension must be an integer >= 2", lambda v: v >= 2, int))


@lru_cache(maxsize=5)
def _su_basis(n: int) -> SuBasis:
    """`build_su_basis` of an int n >= 2.  The five bases used last are
    cached, enough for a scan over local dimensions 2, 3, 4, 6 and 8
    without a rebuild: S alone takes 16 n^4 bytes, 268 MB at n = 64."""
    pairs = n * (n - 1) // 2
    row, col = np.triu_indices(n, 1)
    stack = np.zeros((n * n, n, n), dtype=complex)
    stack[0] = np.eye(n)
    p = 1 + np.arange(pairs)
    stack[p, row, col] = stack[p, col, row] = 1.0
    stack[pairs + p, row, col] = 1.0j
    stack[pairs + p, col, row] = -1.0j
    for l in range(1, n):
        g = stack[2 * pairs + l]
        g[np.arange(l), np.arange(l)] = 1.0
        g[l, l] = -float(l)
        g *= -np.sqrt(2.0 / (l * (l + 1)))
    S = stack.reshape(n * n, n * n)
    S.setflags(write=False)
    return SuBasis(dim=n, S=S, f=_gell_mann_constants(n))
