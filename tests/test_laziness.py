import numpy as np
import pytest

import lazystates as lz
from conftest import (
    golden_su3_contraction,
    haar_unitary,
    kron_commutator_residual,
    marginal_asymmetric_state,
    naive_commutator_residual,
    naive_partial_trace,
)

#: Frobenius norm of the witness commutator, sqrt(2)/8 analytically
WITNESS_RESIDUAL = np.sqrt(2.0) / 8.0


class TestCommutatorResidual:
    def test_product_states_commute(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = lz.random_density_matrix(2, 1, int(rng.integers(2**32))).data
            b = lz.random_density_matrix(3, 1, int(rng.integers(2**32))).data
            rho = lz.product_state(a, b)
            assert lz.commutator_residual(rho, "A") < 1e-14
            assert lz.commutator_residual(rho, "B") < 1e-14

    def test_bell_state_is_lazy(self, bell):
        assert lz.commutator_residual(bell, "A") < 1e-14
        assert lz.commutator_residual(bell, "B") < 1e-14

    def test_witness_residual_frozen_value(self, witness):
        res = lz.commutator_residual(witness, "A")
        assert res == pytest.approx(WITNESS_RESIDUAL, rel=1e-12, abs=0)
        # independent dense evaluation
        assert res == pytest.approx(naive_commutator_residual(witness, "A"), rel=1e-12, abs=0)
        assert res > 0.1

    def test_matches_naive_oracle_on_random_states(self):
        for trial in range(5):
            rho = lz.random_density_matrix(2, 3, trial)
            for side in ("A", "B"):
                assert lz.commutator_residual(rho, side) == pytest.approx(
                    naive_commutator_residual(rho, side), rel=1e-12, abs=0
                )

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matches_kron_oracle_on_rectangular_and_fock_states(self, side):
        states = [lz.random_density_matrix(na, nb, 7) for na, nb in [(2, 5), (5, 2), (3, 4)]]
        states.append(lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.0, 0.3), 20))
        for rho in states:
            assert lz.commutator_residual(rho, side) == pytest.approx(
                kron_commutator_residual(rho, side), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_slightly_non_hermitian_input(self, side):
        # a lazy product plus 1e-13 of asymmetry, inside the DensityMatrix
        # tolerance: both products must be formed from rho itself
        a = lz.random_density_matrix(3, 1, 5).data
        b = lz.random_density_matrix(2, 1, 6).data
        data = np.array(lz.product_state(a, b).data)
        data[0, 3] += 1e-13
        data[4, 1] -= 3e-13j
        rho = lz.DensityMatrix(3, 2, data)
        expected = kron_commutator_residual(rho, side)
        assert expected > 1e-14
        assert lz.commutator_residual(rho, side) == pytest.approx(expected, rel=0, abs=1e-15)


@pytest.mark.parametrize("side", ["A", "B"])
class TestAcceptedStateWithAsymmetricMarginal:
    """The deciders read the raw marginal, which sums several accepted asymmetries."""

    def test_raw_marginal_exceeds_the_tolerance(self, side):
        rho = marginal_asymmetric_state(side)
        red = naive_partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
        assert np.abs(red - red.conj().T).max() > 3e-12

    def test_verdicts_are_returned(self, side):
        rho = marginal_asymmetric_state(side)
        residual = lz.commutator_residual(rho, side)
        assert residual == pytest.approx(kron_commutator_residual(rho, side), rel=1e-12)
        report = lz.is_lazy(rho, side)
        assert report.commutator_residual == residual
        assert not report.is_lazy
        audit = lz.dynamics_audit(rho, side, trials=8, seed=1)
        assert audit.consistent_with_laziness

    def test_reduced_state_is_exactly_hermitian(self, side):
        rho = marginal_asymmetric_state(side)
        red = lz.reduced_state(rho, side).data
        assert np.array_equal(red, red.conj().T)
        naive = naive_partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
        assert np.abs(red - naive).max() < 2e-12


class TestCriterionMatrix:
    def test_zero_coherence_vector_gives_zero(self, su2):
        rng = np.random.default_rng(3)
        form = lz.BlochForm(x=np.zeros(3), y=rng.normal(size=8), T=rng.normal(size=(3, 8)))
        assert np.abs(lz.criterion_matrix(form, su2, "A")).max() == 0.0

    def test_factorized_correlations_give_zero(self, su2, su3):
        # T = x y^T makes the contraction hit the antisymmetric tensor with
        # a symmetric pair, so both sides vanish identically
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=8)
            form = lz.BlochForm(x=x, y=y, T=np.outer(x, y))
            assert np.abs(lz.criterion_matrix(form, su2, "A")).max() < 1e-14
            assert np.abs(lz.criterion_matrix(form, su3, "B")).max() < 1e-14

    @pytest.mark.parametrize("na,nb", [(2, 2), (2, 3), (3, 3)])
    def test_exact_norm_identity(self, na, nb):
        ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
        for trial in range(25):
            rho = lz.random_density_matrix(na, nb, trial)
            form = lz.decompose(rho, ba, bb)
            for side, basis in (("A", ba), ("B", bb)):
                direct = lz.commutator_residual(rho, side)
                g = lz.criterion_matrix(form, basis, side)
                via_criterion = lz.criterion_prefactor(na, nb, side) * np.linalg.norm(g)
                assert direct == pytest.approx(via_criterion, rel=1e-11, abs=0)

    def test_verdict_equivalence_battery(self):
        # thresholding ||G||_F through the norm identity must agree with the
        # commutator verdict on random (never lazy) and product (lazy) states
        tol = 1e-10
        rng = np.random.default_rng(8)
        for na, nb in [(2, 2), (2, 3), (3, 3)]:
            ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
            for trial in range(200):
                rho = lz.random_density_matrix(na, nb, trial)
                form = lz.decompose(rho, ba, bb)
                direct_lazy = lz.commutator_residual(rho, "A") < tol
                g_norm = np.linalg.norm(lz.criterion_matrix(form, ba, "A"))
                criterion_lazy = g_norm < tol * na * na * nb / 4.0
                assert direct_lazy == criterion_lazy
            a = lz.random_density_matrix(na, 1, int(rng.integers(2**32))).data
            b = lz.random_density_matrix(nb, 1, int(rng.integers(2**32))).data
            prod = lz.product_state(a, b)
            form = lz.decompose(prod, ba, bb)
            assert lz.commutator_residual(prod, "A") < tol
            assert np.linalg.norm(lz.criterion_matrix(form, ba, "A")) < tol * na * na * nb / 4.0


class TestScaling:
    """Local dimensions beyond the reach of dense (N, N, N) constants."""

    @pytest.mark.parametrize("na,nb", [(12, 12), (16, 3)])
    def test_verdicts_and_norm_identity(self, na, nb):
        ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
        a = lz.random_density_matrix(na, 1, 1).data
        b = lz.random_density_matrix(nb, 1, 2).data
        product = lz.product_state(a, b)
        wishart = lz.random_density_matrix(na, nb, 3)
        for side in ("A", "B"):
            assert lz.is_lazy(product, side).is_lazy
            report = lz.is_lazy(wishart, side)
            assert not report.is_lazy
            g = lz.criterion_matrix(lz.decompose(wishart, ba, bb), ba if side == "A" else bb, side)
            via = lz.criterion_prefactor(na, nb, side) * np.linalg.norm(g)
            assert via == pytest.approx(report.commutator_residual, rel=1e-11, abs=0)


class TestContractionMatrix:
    def test_golden_transcription(self, su3):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(8)
            computed = lz.contraction_matrix(x, su3)
            assert np.abs(computed - golden_su3_contraction(x)).max() < 1e-14

    def test_unit_vector_entries(self, su3):
        x = np.zeros(8)
        x[5] = 1.0  # sixth coefficient
        assert lz.contraction_matrix(x, su3)[0, 1] == pytest.approx(0.5, abs=1e-14)
        x = np.zeros(8)
        x[7] = 1.0  # eighth coefficient
        assert lz.contraction_matrix(x, su3)[1, 4] == pytest.approx(
            -np.sqrt(3.0) / 2.0, abs=1e-14
        )

    def test_zero_vector(self, su3):
        assert np.abs(lz.contraction_matrix(np.zeros(8), su3)).max() == 0.0

    def test_rejects_wrong_length(self, su3):
        with pytest.raises(lz.DimensionMismatchError):
            lz.contraction_matrix(np.zeros(3), su3)


class TestIsLazy:
    def test_bell_report(self, bell):
        report = lz.is_lazy(bell, "A", tol=1e-10)
        assert report.is_lazy
        assert report.commutator_residual < 1e-13
        assert report.criterion_residual < 1e-13
        assert report.side == "A"

    def test_witness_not_lazy(self, witness):
        for side in ("A", "B"):
            report = lz.is_lazy(witness, side, tol=1e-10)
            assert not report.is_lazy
            assert report.commutator_residual > 0.1

    def test_rejects_nonpositive_tolerance(self, bell):
        with pytest.raises(ValueError):
            lz.is_lazy(bell, "A", tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        wishart = lz.random_density_matrix(2, 2, 3)
        with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
            lz.is_lazy(wishart, "A", tol=tol)

    def test_local_unitary_invariance(self, witness, bell):
        rng = np.random.default_rng(30)
        for rho in (witness, bell, lz.random_density_matrix(2, 3, 44)):
            base = {s: lz.commutator_residual(rho, s) for s in ("A", "B")}
            for _ in range(5):
                u = haar_unitary(rho.dim_a, rng)
                v = haar_unitary(rho.dim_b, rng)
                big = np.kron(u, v)
                rotated = lz.DensityMatrix(
                    rho.dim_a, rho.dim_b, big @ rho.data @ big.conj().T
                )
                for side in ("A", "B"):
                    assert abs(lz.commutator_residual(rotated, side) - base[side]) < 1e-11


class TestDiagonalCorrelationFamily:
    def test_all_zero_is_maximally_mixed(self):
        rho = lz.diagonal_correlation_state(np.zeros(8), np.zeros(8), np.zeros(8))
        assert np.abs(rho.data - np.eye(9) / 9.0).max() < 1e-15

    def test_uniform_small_correlations_lazy_both_sides(self):
        rho = lz.diagonal_correlation_state(np.zeros(8), np.zeros(8), np.full(8, 0.1))
        assert rho.is_physical
        assert lz.is_lazy(rho, "A").is_lazy
        assert lz.is_lazy(rho, "B").is_lazy

    def test_nonzero_x_breaks_side_a(self):
        x = np.zeros(8)
        x[0] = 0.2
        rho = lz.diagonal_correlation_state(x, np.zeros(8), np.full(8, 0.1))
        assert rho.is_physical
        assert not lz.is_lazy(rho, "A").is_lazy

    def test_side_mirror(self):
        y = np.zeros(8)
        y[0] = 0.2
        rho = lz.diagonal_correlation_state(np.zeros(8), y, np.full(8, 0.1))
        assert lz.is_lazy(rho, "A").is_lazy
        assert not lz.is_lazy(rho, "B").is_lazy

    def test_rejects_wrong_lengths(self):
        with pytest.raises(lz.DimensionMismatchError):
            lz.diagonal_correlation_state(np.zeros(3), np.zeros(8), np.zeros(8))
