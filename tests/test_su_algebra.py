import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import structure_constants
from lazystates.su_algebra import StructureConstants, build_su_basis

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# canonical su(3) structure constants under the u-block, v-block, w-block
# ordering (u12 u13 u23 v12 v13 v23 w1 w2); all others follow by
# antisymmetry and everything else vanishes
SU3_CANONICAL = {
    (1, 2, 6): -0.5,
    (1, 3, 5): -0.5,
    (1, 4, 7): 1.0,
    (2, 3, 4): -0.5,
    (2, 5, 7): 0.5,
    (2, 5, 8): np.sqrt(3.0) / 2.0,
    (3, 6, 7): -0.5,
    (3, 6, 8): np.sqrt(3.0) / 2.0,
    (4, 5, 6): -0.5,
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_count_and_families(n):
    basis = build_su_basis(n)
    pair_count = n * (n - 1) // 2
    assert len(basis.generators) == n * n - 1
    sym = basis.generators[:pair_count]
    antisym = basis.generators[pair_count : 2 * pair_count]
    diag = basis.generators[2 * pair_count :]
    assert len(diag) == n - 1
    assert all(np.allclose(g, g.T) and np.allclose(g.imag, 0) for g in sym)
    assert all(np.allclose(g.real, 0) for g in antisym)
    assert all(np.allclose(g, np.diag(np.diagonal(g))) for g in diag)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_defining_relations(n):
    basis = build_su_basis(n)
    g = basis.generators
    count = len(g)
    for gi in g:
        assert abs(np.trace(gi)) < 1e-12
        assert np.abs(gi - gi.conj().T).max() < 1e-12
    gram = np.einsum("aij,bji->ab", g, g)
    assert np.abs(gram - 2.0 * np.eye(count)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_change_of_basis_is_identity_then_generators(n):
    basis = build_su_basis(n)
    s = basis.S
    assert s.shape == (n * n, n * n)
    assert np.array_equal(s[0], np.eye(n).ravel())
    # I and the generators are orthogonal, with tr(I I) = n and tr(g_i g_i) = 2
    gram = s @ s.conj().T
    assert np.abs(gram - np.diag([n] + [2] * (n * n - 1))).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 8])
def test_generators_are_a_read_only_view_of_the_change_of_basis(n):
    basis = build_su_basis(n)
    g = basis.generators
    assert g.shape == (n * n - 1, n, n)
    assert np.shares_memory(g, basis.S)
    assert np.array_equal(g.reshape(n * n - 1, -1), basis.S[1:])
    for arr in (g, basis.S):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_reconstruction(n):
    basis = build_su_basis(n)
    g = basis.generators
    f = basis.f
    for i in range(len(g)):
        for j in range(len(g)):
            direct = g[i] @ g[j] - g[j] @ g[i]
            recon = 2j * sum(
                f.value(i + 1, j + 1, k + 1) * g[k] for k in range(len(g))
            )
            assert np.abs(direct - recon).max() < 1e-12


def test_su2_is_signed_pauli_triple(su2):
    assert_allclose(su2.generators[0], PAULI_X, atol=0)
    assert_allclose(su2.generators[1], -PAULI_Y, atol=0)
    assert_allclose(su2.generators[2], -PAULI_Z, atol=0)


def test_su2_constants_are_levi_civita(su2):
    # the v and w sign flips relative to (X, Y, Z) cancel in every commutator
    assert list(su2.f.triples()) == [(1, 2, 3, 1.0)]
    assert su2.f.value(1, 2, 3) == pytest.approx(1.0, abs=1e-14)
    assert su2.f.value(2, 1, 3) == pytest.approx(-1.0, abs=1e-14)
    assert su2.f.value(2, 3, 1) == pytest.approx(1.0, abs=1e-14)


def test_su3_canonical_constants(su3):
    stored = {(i, j, k): v for i, j, k, v in su3.f.triples()}
    assert set(stored) == set(SU3_CANONICAL)
    for key, expected in SU3_CANONICAL.items():
        assert stored[key] == pytest.approx(expected, abs=1e-12)


def test_su3_listed_orientations(su3):
    f = su3.f
    assert f.value(1, 4, 7) == pytest.approx(1.0, abs=1e-12)
    for ijk in [(2, 1, 6), (3, 1, 5), (3, 2, 4), (2, 5, 7), (3, 7, 6), (5, 4, 6)]:
        assert f.value(*ijk) == pytest.approx(0.5, abs=1e-12)
    for ijk in [(3, 6, 8), (2, 5, 8)]:
        assert f.value(*ijk) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)


def test_repeated_indices_vanish(su3):
    for i in range(1, 9):
        for k in range(1, 9):
            assert su3.f.value(i, i, k) == 0.0
            assert su3.f.value(i, k, i) == 0.0
            assert su3.f.value(k, i, i) == 0.0


def test_dense_tensor_antisymmetry(su3):
    # scatter the signed permutations that contraction_matrix consumes; a
    # repeated (i, j, k) would be summed by add.at and fail the value check
    i, j, k, v = su3.f.permuted
    f = np.zeros((su3.f.size,) * 3)
    np.add.at(f, (i, j, k), v)
    assert len(v) == 6 * len(su3.f)
    assert np.abs(f + np.swapaxes(f, 0, 1)).max() == 0.0
    assert np.abs(f + np.swapaxes(f, 1, 2)).max() == 0.0
    for a, b, c in np.ndindex(f.shape):
        assert f[a, b, c] == su3.f.value(a + 1, b + 1, c + 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_scatter_index_is_the_flat_position_of_each_permuted_entry(n):
    f = build_su_basis(n).f
    i, _, k, _ = f.permuted
    assert np.array_equal(f.scatter_index, i * f.size + k)
    assert f.scatter_index is f.scatter_index
    assert not f.scatter_index.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_closed_form_matches_trace_oracle(n):
    basis = build_su_basis(n)
    oracle = structure_constants(basis.generators)
    assert np.array_equal(basis.f.index, oracle.index)
    assert_allclose(basis.f.data, oracle.data, rtol=0, atol=1e-14)


def test_nonzero_count_is_cubic():
    # 4 C(n, 3) off-diagonal triples plus the diagonal ones
    assert len(build_su_basis(12).f) == 1221


def test_constants_reject_non_canonical_triples():
    with pytest.raises(ValueError, match="non-canonical"):
        StructureConstants(3, [[1, 0, 2]], [1.0])
    with pytest.raises(ValueError, match="non-canonical"):
        StructureConstants(3, [[0, 1, 3]], [1.0])
    with pytest.raises(ValueError, match="values"):
        StructureConstants(3, [[0, 1, 2]], [1.0, 2.0])


def test_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_su_basis(1)


@pytest.mark.parametrize("n", [2.0, "3", True, 1, -1])
def test_rejects_a_dimension_that_is_not_an_integer_of_at_least_two(n):
    build_su_basis(2)  # a cached su(2) must not answer for 2.0
    with pytest.raises(ValueError, match=r"su\(n\) dimension must be an integer >= 2, got "):
        build_su_basis(n)


def test_accepts_a_numpy_integer_dimension():
    basis = build_su_basis(np.int64(3))
    assert type(basis.dim) is int and basis.dim == 3
    np.testing.assert_array_equal(basis.S, build_su_basis(3).S)


def test_a_numpy_integer_dimension_shares_the_cached_basis():
    # n is read before the cache is consulted, so su(3) is built once and
    # takes one of the five cache slots, whatever integer type names it
    assert build_su_basis(np.int64(3)) is build_su_basis(3)
    assert build_su_basis(np.array(3)) is build_su_basis(3)


def test_structure_constants_reject_scaled_generator(su3):
    gens = np.array(su3.generators)
    gens[0] = 2.0 * gens[0]
    with pytest.raises(ValueError, match="Gram"):
        structure_constants(gens)


def test_rebuild_is_deterministic():
    a = structure_constants(build_su_basis(3).generators)
    b = structure_constants(build_su_basis(3).generators)
    assert a == b


def test_su3_constants_stable_at_high_precision(su3):
    """Recompute the trace formula with 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def generators(n):
        gens = []
        for j in range(n):
            for k in range(j + 1, n):
                g = mp.zeros(n, n)
                g[j, k] = mp.mpf(1)
                g[k, j] = mp.mpf(1)
                gens.append(g)
        for j in range(n):
            for k in range(j + 1, n):
                g = mp.zeros(n, n)
                g[j, k] = mp.mpc(0, 1)
                g[k, j] = mp.mpc(0, -1)
                gens.append(g)
        for l in range(1, n):
            g = mp.zeros(n, n)
            for i in range(l):
                g[i, i] = mp.mpf(1)
            g[l, l] = mp.mpf(-l)
            gens.append(-mp.sqrt(mp.mpf(2) / (l * (l + 1))) * g)
        return gens

    def f_entry(gens, i, j, k):
        prod = (gens[i] * gens[j] - gens[j] * gens[i]) * gens[k]
        total = mp.mpc(0)
        for a in range(prod.rows):
            total += prod[a, a]
        return total / (4 * mp.mpc(0, 1))

    gens = generators(3)
    seen = 0
    for i in range(8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                precise = f_entry(gens, i, j, k)
                value = su3.f.value(i + 1, j + 1, k + 1)
                assert abs(float(precise.real) - value) < 1e-12
                assert abs(float(precise.imag)) < 1e-30
                if abs(precise) > mp.mpf("1e-30"):
                    seen += 1
    assert seen == len(su3.f) == 9
