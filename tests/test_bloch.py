import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lazystates as lz
from lazystates import bloch
from conftest import einsum_reconstruct, naive_decompose, naive_partial_trace

DIM_PAIRS = [(2, 2), (2, 3), (3, 3), (3, 4)]


def untiled_rejection(data):
    """The rejection message of the one-pass hermiticity scan, or None."""
    asym = np.abs(data - data.conj().T)
    if not np.isfinite(asym).all():
        i, j = np.argwhere(~np.isfinite(asym))[0]
        return f"non-finite entry at ({i}, {j})"
    if asym.max() > bloch.HERMITICITY_TOL:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        return f"hermiticity violation: max asymmetry {asym.max():.3e} at entry ({i}, {j})"
    return None


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        data = np.eye(4, dtype=complex) / 4.0
        data[0, 1] = 0.1
        with pytest.raises(lz.InvalidStateError, match="asymmetry"):
            lz.DensityMatrix(2, 2, data)

    def test_rejects_non_finite(self):
        data = np.eye(4, dtype=complex) / 4.0
        data[0, 1] = np.nan
        with pytest.raises(lz.InvalidStateError, match="non-finite"):
            lz.DensityMatrix(2, 2, data)

    def test_rejects_bad_trace(self):
        with pytest.raises(lz.InvalidStateError, match="trace deviation"):
            lz.DensityMatrix(2, 2, np.eye(4, dtype=complex) / 5.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(lz.DimensionMismatchError):
            lz.DensityMatrix(2, 3, np.eye(4) / 4.0)

    def test_positivity_is_flagged_not_enforced(self):
        indefinite = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        rho = lz.DensityMatrix(2, 2, indefinite)
        assert not rho.is_physical
        with pytest.raises(lz.InvalidStateError, match="positivity"):
            rho.require_physical()

    @pytest.mark.parametrize(
        "data,dtype",
        [
            (np.eye(4) / 4.0, np.float64),
            ((np.eye(4) / 4.0).tolist(), np.float64),
            (np.eye(4, dtype=np.float32) / 4, np.float64),
            (np.eye(4, dtype=complex) / 4.0, np.complex128),
            (np.eye(4, dtype=np.complex64) / 4, np.complex128),
        ],
    )
    def test_real_input_stays_real(self, data, dtype):
        rho = lz.DensityMatrix(2, 2, data)
        assert rho.data.dtype == dtype
        assert not rho.data.flags.writeable

    def test_input_is_copied(self):
        data = np.eye(4) / 4.0
        rho = lz.DensityMatrix(2, 2, data)
        data[0, 0] = 1.0
        assert rho.data[0, 0] == 0.25 and data.flags.writeable

    @pytest.mark.parametrize("dims", [(257, 1), (20, 30)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "defect,message",
        [
            ("asymmetry", "hermiticity violation: max asymmetry 1.000e-09 at entry (0, {last})"),
            ("nan", "non-finite entry at ({last}, {last})"),
            ("inf", "non-finite entry at (3, {penult})"),
        ],
    )
    def test_tiled_scan_matches_the_full_scan(self, dims, dtype, defect, message):
        d = dims[0] * dims[1]
        assert d > bloch.HERMITICITY_TILE
        g = np.random.default_rng(d).standard_normal((d, 8))
        data = (g @ g.T).astype(dtype)
        data /= np.trace(data)
        lz.DensityMatrix(*dims, data)
        if defect == "asymmetry":
            data[0, d - 1] += 1e-9
        elif defect == "nan":
            data[d - 1, d - 1] = np.nan
        else:
            data[d - 2, 3] = np.inf
        expected = message.format(last=d - 1, penult=d - 2)
        assert untiled_rejection(data) == expected
        with pytest.raises(lz.InvalidStateError) as info:
            lz.DensityMatrix(*dims, data)
        assert str(info.value) == expected

    def test_random_generator_battery(self):
        for trial in range(100):
            rho = lz.random_density_matrix(2, 3, trial)
            assert rho.is_physical
            assert abs(np.trace(rho.data) - 1.0) < 1e-12
            assert np.abs(rho.data - rho.data.conj().T).max() < 1e-12

    def test_random_generator_deterministic(self):
        a = lz.random_density_matrix(3, 3, 77)
        b = lz.random_density_matrix(3, 3, 77)
        assert np.array_equal(a.data, b.data)


class TestDecompose:
    def test_maximally_mixed_is_origin(self):
        rho = lz.DensityMatrix(2, 3, np.eye(6) / 6.0)
        form = lz.decompose(rho)
        assert np.abs(form.x).max() < 1e-14
        assert np.abs(form.y).max() < 1e-14
        assert np.abs(form.T).max() < 1e-14

    def test_bell_correlations_match_direct_traces(self, bell, su2):
        form = lz.decompose(bell)
        assert np.abs(form.x).max() < 1e-14
        assert np.abs(form.y).max() < 1e-14
        assert_allclose(form.T, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
        # oracle: coefficient traces evaluated one by one
        for i in range(3):
            for j in range(3):
                op = np.kron(su2.generators[i], su2.generators[j])
                direct = np.trace(bell.data @ op).real
                assert form.T[i, j] == pytest.approx(direct, abs=1e-14)

    def test_product_state_correlations_factorize(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = lz.random_density_matrix(2, 1, int(rng.integers(2**32))).data
            b = lz.random_density_matrix(3, 1, int(rng.integers(2**32))).data
            rho = lz.product_state(a, b)
            form = lz.decompose(rho)
            assert np.abs(form.T - np.outer(form.x, form.y)).max() < 1e-12

    def test_rejects_mismatched_basis(self, su3):
        rho = lz.random_density_matrix(2, 2, 0)
        with pytest.raises(lz.DimensionMismatchError):
            lz.decompose(rho, basis_a=su3)

    @pytest.mark.parametrize("na,nb", [(2, 5), (5, 2), (3, 4), (6, 2), (1, 3), (3, 1)])
    def test_rectangular_splits_match_trace_oracle(self, na, nb):
        def gens(n):
            return lz.build_su_basis(n).generators if n > 1 else []

        rho = lz.random_density_matrix(na, nb, 10 * na + nb)
        form = lz.decompose(rho)
        x, y, t = naive_decompose(rho, gens(na), gens(nb))
        assert_allclose(form.x, x, rtol=0, atol=1e-14)
        assert_allclose(form.y, y, rtol=0, atol=1e-14)
        assert_allclose(form.T, t, rtol=0, atol=1e-14)


def sector_state(dim_a, dim_b, seed):
    """Random real sector state; some basis states lie in no sector."""
    rng = np.random.default_rng(seed)
    free = np.ones((dim_a, dim_b), dtype=bool)
    sectors = []
    for _ in range(4):
        # prefixes of two permutations: distinct labels on both sides
        size = min(dim_a, dim_b)
        labels_a, labels_b = rng.permutation(dim_a)[:size], rng.permutation(dim_b)[:size]
        unused = free[labels_a, labels_b]
        labels_a, labels_b = labels_a[unused], labels_b[unused]
        if labels_a.size:
            free[labels_a, labels_b] = False
            g = rng.standard_normal((labels_a.size, labels_a.size))
            sectors.append((labels_a, labels_b, g @ g.T))
    total = sum(np.trace(block) for _, _, block in sectors)
    return lz.SectorDensityMatrix(
        dim_a, dim_b, [(la, lb, block / total) for la, lb, block in sectors]
    )


class TestSectorDensityMatrix:
    @staticmethod
    def sectors(**change):
        """Valid sectors of a (2, 3) state; `change` replaces fields of sector 0."""
        first = {
            "labels_a": np.array([0, 1]),
            "labels_b": np.array([0, 1]),
            "block": np.array([[0.3, 0.1], [0.1, 0.2]]),
        }
        first.update(change)
        return [tuple(first.values()), (np.array([1]), np.array([2]), np.array([[0.5]]))]

    def test_dense_data_places_each_sector(self):
        rho = lz.SectorDensityMatrix(2, 3, self.sectors())
        expected = np.zeros((6, 6))
        expected[np.ix_([0, 4], [0, 4])] = [[0.3, 0.1], [0.1, 0.2]]
        expected[5, 5] = 0.5
        assert rho.data.dtype == np.float64
        assert np.array_equal(rho.data, expected)
        assert rho.data is rho.data
        assert not rho.data.flags.writeable
        assert isinstance(rho, lz.DensityMatrix)

    def test_rejects_non_finite_sector(self):
        block = np.array([[0.3, np.nan], [np.nan, 0.2]])
        with pytest.raises(lz.InvalidStateError, match="non-finite entry at .* of sector 0"):
            lz.SectorDensityMatrix(2, 3, self.sectors(block=block))

    def test_rejects_asymmetric_sector(self):
        block = np.array([[0.3, 0.1 + 1e-9], [0.1, 0.2]])
        with pytest.raises(lz.InvalidStateError, match="hermiticity violation.* of sector 0"):
            lz.SectorDensityMatrix(2, 3, self.sectors(block=block))

    @pytest.mark.parametrize("field,side", [("labels_a", "A"), ("labels_b", "B")])
    def test_rejects_repeated_label(self, field, side):
        with pytest.raises(lz.InvalidStateError, match=f"repeated {side} label 1 in sector 0"):
            lz.SectorDensityMatrix(2, 3, self.sectors(**{field: np.array([1, 1])}))

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_rejects_out_of_range_label(self, labels):
        with pytest.raises(lz.InvalidStateError, match="A label .* out of range"):
            lz.SectorDensityMatrix(2, 3, self.sectors(labels_a=np.array(labels)))

    def test_rejects_trace_off_by_1e_9(self):
        block = np.array([[0.3 + 1e-9, 0.1], [0.1, 0.2]])
        with pytest.raises(lz.InvalidStateError, match="trace deviation 1.000e-09"):
            lz.SectorDensityMatrix(2, 3, self.sectors(block=block))

    def test_rejects_basis_state_in_two_sectors(self):
        with pytest.raises(lz.InvalidStateError, match=r"\(1, 2\) lies in more than one"):
            lz.SectorDensityMatrix(2, 3, self.sectors(labels_b=np.array([0, 2])))

    def test_rejects_mismatched_sector_shapes(self):
        with pytest.raises(lz.DimensionMismatchError, match="sector 0"):
            lz.SectorDensityMatrix(2, 3, self.sectors(labels_b=np.array([0])))

    def test_rejects_complex_sector(self):
        block = np.array([[0.3, 0.1j], [-0.1j, 0.2]])
        with pytest.raises(lz.InvalidStateError, match="complex"):
            lz.SectorDensityMatrix(2, 3, self.sectors(block=block))

    @pytest.mark.parametrize("na,nb", [(3, 4), (5, 2), (4, 4)])
    def test_sector_readers_match_dense_oracle(self, na, nb):
        for seed in range(5):
            rho = sector_state(na, nb, seed)
            dense = lz.DensityMatrix(na, nb, rho.data)
            for side in ("A", "B"):
                marginal = naive_partial_trace(rho.data, na, nb, side).real
                assert np.array_equal(marginal, np.diag(np.diag(marginal)))
                assert lz.reduced_state(rho, side).data == pytest.approx(
                    marginal, rel=1e-13, abs=0
                )
                assert lz.commutator_residual(rho, side) == pytest.approx(
                    lz.commutator_residual(dense, side), rel=1e-12, abs=0
                )

    @pytest.mark.parametrize("na,nb", [(3, 4), (5, 2), (4, 4)])
    def test_spectrum_is_the_union_of_sector_spectra(self, na, nb):
        for seed in range(5):
            rho = sector_state(na, nb, seed)
            vals = rho.eigenvalues
            assert "data" not in vars(rho)
            assert not vals.flags.writeable
            assert rho.eigenvalues is vals
            assert np.all(np.diff(vals) >= 0.0)
            assert vals == pytest.approx(np.linalg.eigvalsh(rho.data), rel=0, abs=1e-14)

    def test_uncovered_basis_states_add_zeros(self):
        rho = lz.SectorDensityMatrix(2, 3, self.sectors())
        # 3 of the 6 basis states lie in a sector
        expected = np.sort(
            np.concatenate([np.linalg.eigvalsh([[0.3, 0.1], [0.1, 0.2]]), [0.5, 0, 0, 0]])
        )
        assert np.array_equal(rho.eigenvalues, expected)
        assert rho.is_physical
        assert "data" not in vars(rho)

    def test_negative_sector_eigenvalue_is_unphysical(self):
        block = np.array([[0.3, 0.4], [0.4, 0.2]])
        rho = lz.SectorDensityMatrix(2, 3, self.sectors(block=block))
        assert rho.min_eigenvalue == pytest.approx(0.25 - math.sqrt(0.1625), abs=1e-15)
        assert not rho.is_physical
        with pytest.raises(lz.InvalidStateError, match="positivity"):
            rho.require_physical()
        assert "data" not in vars(rho)


class TestBlochForm:
    @pytest.mark.parametrize("name", ["x", "y", "T"])
    def test_rejects_non_finite(self, name):
        parts = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
        parts[name] = np.array(parts[name])
        parts[name].flat[1] = np.inf if name == "T" else np.nan
        with pytest.raises(lz.InvalidStateError, match=f"non-finite entry in {name}"):
            lz.BlochForm(**parts)


class TestReconstruct:
    def test_origin_is_maximally_mixed(self, su2, su3):
        form = lz.BlochForm(x=np.zeros(3), y=np.zeros(8), T=np.zeros((3, 8)))
        rho = lz.reconstruct(form, su2, su3)
        assert_allclose(rho.data, np.eye(6) / 6.0, atol=1e-15)

    @pytest.mark.parametrize("na,nb", DIM_PAIRS)
    def test_roundtrip_on_random_states(self, na, nb):
        ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
        for trial in range(25):
            rho = lz.random_density_matrix(na, nb, trial)
            back = lz.reconstruct(lz.decompose(rho, ba, bb), ba, bb)
            assert np.abs(back.data - rho.data).max() < 1e-12

    @pytest.mark.parametrize("na,nb", [(2, 5), (5, 2), (3, 4), (1, 3)])
    def test_rectangular_splits_match_einsum_oracle(self, na, nb):
        def gens(n):
            return lz.build_su_basis(n).generators if n > 1 else np.zeros((0, 1, 1))

        rng = np.random.default_rng(10 * na + nb)
        ka, kb = na * na - 1, nb * nb - 1
        form = lz.BlochForm(
            x=rng.normal(size=ka), y=rng.normal(size=kb), T=rng.normal(size=(ka, kb))
        )
        expected = einsum_reconstruct(form, gens(na), gens(nb))
        assert np.abs(lz.reconstruct(form).data - expected).max() < 1e-14
        rho = lz.random_density_matrix(na, nb, na + 10 * nb)
        back = lz.reconstruct(lz.decompose(rho))
        assert (back.dim_a, back.dim_b) == (na, nb)
        assert np.abs(back.data - rho.data).max() < 1e-14

    def test_rejects_mismatched_basis_and_sizes(self, su2, su3):
        form = lz.BlochForm(x=np.zeros(3), y=np.zeros(8), T=np.zeros((3, 8)))
        with pytest.raises(lz.DimensionMismatchError):
            lz.reconstruct(form, su3, su3)
        odd = lz.BlochForm(x=np.zeros(4), y=np.zeros(3), T=np.zeros((4, 3)))
        with pytest.raises(lz.DimensionMismatchError):
            lz.reconstruct(odd)

    def test_output_hermitian_for_arbitrary_coefficients(self, su2, su3):
        rng = np.random.default_rng(9)
        for _ in range(20):
            form = lz.BlochForm(
                x=rng.normal(size=3), y=rng.normal(size=8), T=rng.normal(size=(3, 8))
            )
            rho = lz.reconstruct(form, su2, su3)
            assert np.linalg.norm(rho.data - rho.data.conj().T) < 1e-13

    def test_overdriven_correlations_flagged_unphysical(self):
        # positivity boundary of the all-equal diagonal family sits at 0.375
        good = lz.diagonal_correlation_state(np.zeros(8), np.zeros(8), np.full(8, 0.3))
        bad = lz.diagonal_correlation_state(np.zeros(8), np.zeros(8), np.full(8, 0.5))
        assert good.is_physical
        assert not bad.is_physical
        assert bad.min_eigenvalue < -1e-10


class TestReducedState:
    def test_product_state_marginals_exact(self):
        a = lz.random_density_matrix(2, 1, 5).data
        b = lz.random_density_matrix(3, 1, 6).data
        rho = lz.product_state(a, b)
        assert np.abs(lz.reduced_state(rho, "A").data - a).max() < 1e-14
        assert np.abs(lz.reduced_state(rho, "B").data - b).max() < 1e-14

    def test_bell_marginal_is_maximally_mixed(self, bell):
        assert_allclose(lz.reduced_state(bell, "A").data, np.eye(2) / 2.0, atol=1e-15)

    def test_matches_naive_partial_trace(self):
        rho = lz.random_density_matrix(3, 3, 13)
        for side in ("A", "B"):
            naive = naive_partial_trace(rho.data, 3, 3, side)
            mine = lz.reduced_state(rho, side).data
            assert np.abs(mine - naive).max() < 1e-14
            assert abs(np.trace(mine) - 1.0) < 1e-14

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 3)])
    def test_marginal_consistency_with_joint_decomposition(self, na, nb):
        for trial in range(10):
            rho = lz.random_density_matrix(na, nb, trial)
            form = lz.decompose(rho)
            assert np.abs(lz.decompose(lz.reduced_state(rho, "A")).x - form.x).max() < 1e-12
            assert np.abs(lz.decompose(lz.reduced_state(rho, "B")).y - form.y).max() < 1e-12

    def test_rejects_unknown_side(self, bell):
        with pytest.raises(ValueError, match="side"):
            lz.reduced_state(bell, "C")
