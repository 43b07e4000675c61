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
as coordinate arrays.  `structure_constants` evaluates the trace formula on
an arbitrary basis and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

__all__ = [
    "SuBasis",
    "StructureConstants",
    "BasisVerification",
    "build_su_basis",
    "structure_constants",
    "verify_basis",
]

#: entries of f with absolute value at or below this are treated as zero
ZERO_CUTOFF = 1e-12

#: acceptance threshold for the defining basis relations in verify_basis
IDENTITY_TOL = 1e-10

#: maximum allowed deviation of the Gram matrix tr(g_i g_j) from 2*I
GRAM_TOL = 1e-10


def _permutation_sign(triple: tuple[int, int, int]) -> int:
    inversions = sum(
        1 for a in range(3) for b in range(a + 1, 3) if triple[a] > triple[b]
    )
    return -1 if inversions % 2 else 1


class StructureConstants:
    """Sparse, totally antisymmetric rank-3 tensor in coordinate form.

    Only triples with i < j < k are stored: `index` holds them as 0-based
    rows of an (nnz, 3) integer array in lexicographic order and `data`
    their values.  Every other index order is recovered from the
    permutation sign, and repeated indices give zero.  The public accessors
    `value` and `triples` use 1-based indices.
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
        keys = (index[:, 0] * self.size + index[:, 1]) * self.size + index[:, 2]
        order = np.argsort(keys, kind="stable")
        self.index, self.data, self._keys = index[order], data[order], keys[order]
        for arr in (self.index, self.data, self._keys):
            arr.setflags(write=False)
        self._dense: np.ndarray | None = None

    def value(self, i: int, j: int, k: int) -> float:
        """f_ijk for any 1-based index order."""
        if len({i, j, k}) < 3:
            return 0.0
        a, b, c = sorted((i, j, k))
        key = ((a - 1) * self.size + b - 1) * self.size + c - 1
        pos = int(np.searchsorted(self._keys, key))
        if pos == len(self._keys) or self._keys[pos] != key:
            return 0.0
        return _permutation_sign((i, j, k)) * float(self.data[pos])

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

    def dense(self) -> np.ndarray:
        """Full (N, N, N) tensor with 0-based indices; cached, read-only.

        Only basis verification and tests need it: it is O(N^3) memory.
        """
        if self._dense is None:
            f = np.zeros((self.size,) * 3)
            i, j, k, v = self.permuted
            f[i, j, k] = v
            f.setflags(write=False)
            self._dense = f
        return self._dense

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
    """Ordered su(n) generator basis together with its structure constants."""

    dim: int
    generators: np.ndarray  # (n**2 - 1, n, n) complex, read-only
    f: StructureConstants


@dataclass(frozen=True)
class BasisVerification:
    """Worst-case deviations from the defining relations of an SuBasis."""

    max_trace: float
    max_hermiticity: float
    max_orthogonality: float
    max_commutator: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.max_trace,
                self.max_hermiticity,
                self.max_orthogonality,
                self.max_commutator,
            )
            < IDENTITY_TOL
        )


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


@lru_cache(maxsize=None)
def build_su_basis(n: int) -> SuBasis:
    """Construct the su(n) generator basis in canonical order.

    The order is: symmetric block, antisymmetric block (each lexicographic
    in (j, k)), then the diagonal generators.  The structure constants come
    from their closed forms.  Results are cached; the returned arrays are
    read-only and safe to share.
    """
    if n < 2:
        raise ValueError(f"su(n) basis requires n >= 2, got {n}")
    pairs = n * (n - 1) // 2
    row, col = np.triu_indices(n, 1)
    generators = np.zeros((n * n - 1, n, n), dtype=complex)
    p = np.arange(pairs)
    generators[p, row, col] = generators[p, col, row] = 1.0
    generators[pairs + p, row, col] = 1.0j
    generators[pairs + p, col, row] = -1.0j
    for l in range(1, n):
        g = generators[2 * pairs + l - 1]
        g[np.arange(l), np.arange(l)] = 1.0
        g[l, l] = -float(l)
        g *= -np.sqrt(2.0 / (l * (l + 1)))
    generators.setflags(write=False)
    return SuBasis(dim=n, generators=generators, f=_gell_mann_constants(n))


def structure_constants(generators) -> StructureConstants:
    """Structure constants f_ijk = tr([g_i, g_j] g_k) / (4i) of a basis.

    The generators must satisfy tr(g_i g_j) = 2 delta_ij; anything with a
    larger Gram deviation than 1e-10 is rejected.  The analytically
    vanishing imaginary parts of the traces are discarded.  This builds the
    dense (N, N, N) triple-product tensor and serves as the generic oracle
    for the closed forms used by `build_su_basis`.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {gens.shape}")
    count = gens.shape[0]
    gram = np.einsum("aij,bji->ab", gens, gens)
    gram_dev = np.abs(gram - 2.0 * np.eye(count)).max()
    if gram_dev > GRAM_TOL:
        raise ValueError(
            f"generators are not orthonormal: max Gram deviation {gram_dev:.3e}"
        )
    # tr(g_a g_b g_c) for all triples; antisymmetrize the first pair.
    triple = np.einsum("aij,bjk,cki->abc", gens, gens, gens)
    f = ((triple - np.transpose(triple, (1, 0, 2))) / 4j).real
    a, b, c = np.indices(f.shape)
    canonical = (a < b) & (b < c) & (np.abs(f) > ZERO_CUTOFF)
    index = np.stack([a[canonical], b[canonical], c[canonical]], axis=1)
    return StructureConstants(count, index, f[canonical])


def verify_basis(basis: SuBasis) -> BasisVerification:
    """Report worst-case deviations from the defining algebra relations.

    Checks tracelessness, Hermiticity, the orthogonality normalization,
    and the reconstruction of every commutator from the stored structure
    constants.  Report-only: nothing is raised.
    """
    g = basis.generators
    count = g.shape[0]
    max_trace = float(np.abs(np.trace(g, axis1=1, axis2=2)).max())
    max_herm = float(np.abs(g - np.conj(np.transpose(g, (0, 2, 1)))).max())
    gram = np.einsum("aij,bji->ab", g, g)
    max_orth = float(np.abs(gram - 2.0 * np.eye(count)).max())
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = prod - np.transpose(prod, (1, 0, 2, 3))
    recon = 2j * np.einsum("abk,kij->abij", basis.f.dense(), g)
    max_comm = float(np.abs(comm - recon).max())
    return BasisVerification(
        max_trace=max_trace,
        max_hermiticity=max_herm,
        max_orthogonality=max_orth,
        max_commutator=max_comm,
    )
