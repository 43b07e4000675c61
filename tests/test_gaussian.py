import math
import tracemalloc

import numpy as np
import pytest

import lazystates as lz
from conftest import (
    FOCK_ORACLE_PAD,
    dense_fock_reference,
    kron_commutator_residual,
    mp_fock_sector,
    naive_partial_trace,
)

GAP_23 = 2.0 * (1.0 + 3.0) * (2.0 + 2.0)  # kernel determinant gap at n=2, m=3


def rotation_pair(theta1, theta2):
    """Local per-mode rotations, symplectic in the paired ordering."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    out = np.zeros((4, 4))
    out[:2, :2] = rot(theta1)
    out[2:, 2:] = rot(theta2)
    return out


def quadratic_form_oracle(form, lam1, lam2):
    """chi through an explicit 4x4 quadratic-form loop."""
    xi = [lam1.imag, lam1.real, lam2.imag, lam2.real]
    m = form.matrix()
    q = sum(xi[i] * m[i, j] * xi[j] for i in range(4) for j in range(4))
    return np.exp(-0.5 * q)


class TestStandardForm:
    def test_matrix_layout(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 0.5, -0.2)
        m = form.matrix()
        assert m[0, 0] == m[1, 1] == 2.0
        assert m[2, 2] == m[3, 3] == 3.0
        assert m[0, 2] == m[2, 0] == 0.5
        assert m[1, 3] == m[3, 1] == -0.2
        assert np.count_nonzero(m) == 8

    def test_rejects_subvacuum_variances(self):
        with pytest.raises(lz.UnphysicalFormError):
            lz.GaussianStandardForm(0.9, 1.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite standard-form parameter n"):
            lz.GaussianStandardForm(np.nan, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="non-finite standard-form parameter c_prime"):
            lz.GaussianStandardForm(2.0, 2.0, 0.5, -np.inf)


class TestCharacteristicFunction:
    def test_normalization_at_origin(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        assert lz.characteristic_function(form, 0.0, 0.0) == 1.0

    def test_factorizes_iff_uncoupled(self):
        coupled = lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.5)
        product = lz.GaussianStandardForm(2.0, 2.0, 0.0, 0.0)
        grid = [0.3 + 0.1j, -0.7j, 1.0, 0.5 - 0.5j, -0.2 + 0.9j]
        saw_coupling = False
        for l1 in grid:
            for l2 in grid:
                joint = lz.characteristic_function(product, l1, l2)
                split = lz.characteristic_function(
                    product, l1, 0.0
                ) * lz.characteristic_function(product, 0.0, l2)
                assert joint == pytest.approx(split, abs=1e-12)
                gap = abs(
                    lz.characteristic_function(coupled, l1, l2)
                    - lz.characteristic_function(coupled, l1, 0.0)
                    * lz.characteristic_function(coupled, 0.0, l2)
                )
                saw_coupling = saw_coupling or gap > 1e-6
        assert saw_coupling

    def test_matches_quadratic_form_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            form = lz.random_standard_form(rng)
            l1 = complex(rng.standard_normal(), rng.standard_normal())
            l2 = complex(rng.standard_normal(), rng.standard_normal())
            assert lz.characteristic_function(form, l1, l2) == pytest.approx(
                quadratic_form_oracle(form, l1, l2), rel=1e-12, abs=0
            )

    def test_frozen_spot_value(self):
        # oracle value: only the n and m diagonal terms survive for these
        # arguments, giving exp(-(n + m)/2)
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        value = lz.characteristic_function(form, 1.0, 1.0j)
        assert value == pytest.approx(np.exp(-2.5), rel=1e-14, abs=0)
        oracle = quadratic_form_oracle(form, 1.0 + 0j, 1.0j)
        assert value == pytest.approx(oracle, rel=1e-14, abs=0)


class TestUncertainty:
    def test_vacuum_is_boundary(self):
        chk = lz.check_uncertainty(lz.GaussianStandardForm(1.0, 1.0, 0.0, 0.0))
        assert chk.physical
        assert chk.nu_minus == pytest.approx(1.0, abs=1e-15)
        assert chk.nu_plus == pytest.approx(1.0, abs=1e-15)

    def test_thermal_product(self):
        chk = lz.check_uncertainty(lz.GaussianStandardForm(3.0, 2.0, 0.0, 0.0))
        assert chk.physical
        assert chk.nu_minus == pytest.approx(2.0, abs=1e-12)
        assert chk.nu_plus == pytest.approx(3.0, abs=1e-12)

    def test_overcorrelated_form_unphysical(self):
        # Delta = 2.5, det M = 0.5625, so nu_minus = 0.5 exactly
        chk = lz.check_uncertainty(lz.GaussianStandardForm(1.0, 1.0, 0.5, 0.5))
        assert not chk.physical
        assert chk.nu_minus == pytest.approx(0.5, abs=1e-12)

    def test_complex_spectrum_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            lz.check_uncertainty(lz.GaussianStandardForm(1.0, 2.0, 2.0, -2.0))


class TestStandardFormExtraction:
    def test_reads_off_standard_input(self):
        form_in = lz.GaussianStandardForm(2.0, 3.0, 0.5, -0.2)
        out = lz.standard_form_from_covariance(lz.CovarianceState(form_in.matrix()))
        assert out.n == pytest.approx(2.0, rel=1e-12, abs=0)
        assert out.m == pytest.approx(3.0, rel=1e-12, abs=0)
        assert out.c == pytest.approx(0.5, rel=1e-12, abs=0)
        assert out.c_prime == pytest.approx(-0.2, rel=1e-12, abs=0)

    def test_canonicalizes_order_and_sign(self):
        # |c| >= |c'| and c >= 0: the (0.2, -0.5) input is equivalent to
        # (0.5, -0.2) under local operations
        v = lz.GaussianStandardForm(2.0, 3.0, 0.2, -0.5).matrix()
        out = lz.standard_form_from_covariance(lz.CovarianceState(v))
        assert out.c == pytest.approx(0.5, rel=1e-10, abs=0)
        assert out.c_prime == pytest.approx(-0.2, rel=1e-10, abs=0)

    def test_rotated_thermal_product(self):
        v = np.zeros((4, 4))
        v[:2, :2] = 2.5 * np.eye(2)
        v[2:, 2:] = 1.7 * np.eye(2)
        s = rotation_pair(0.646, 0.0)
        out = lz.standard_form_from_covariance(lz.CovarianceState(s @ v @ s.T))
        assert out.n == pytest.approx(2.5, rel=1e-12, abs=0)
        assert out.m == pytest.approx(1.7, rel=1e-12, abs=0)
        assert abs(out.c) < 1e-12
        assert abs(out.c_prime) < 1e-12

    def test_two_mode_squeezed_vacuum(self):
        r = 0.5
        ch, sh = np.cosh(r), np.sinh(r)
        sq = np.block(
            [[ch * np.eye(2), sh * np.diag([1.0, -1.0])],
             [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]]
        )
        out = lz.standard_form_from_covariance(lz.CovarianceState(sq @ sq.T))
        assert out.n == pytest.approx(np.cosh(2 * r), rel=1e-12, abs=0)
        assert out.m == pytest.approx(np.cosh(2 * r), rel=1e-12, abs=0)
        assert out.c == pytest.approx(np.sinh(2 * r), rel=1e-12, abs=0)
        assert out.c_prime == pytest.approx(-np.sinh(2 * r), rel=1e-12, abs=0)

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            form = lz.random_standard_form(rng)
            s = rotation_pair(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            rotated = lz.CovarianceState(s @ form.matrix() @ s.T)
            out = lz.standard_form_from_covariance(rotated)
            assert out.n == pytest.approx(form.n, abs=1e-9)
            assert out.m == pytest.approx(form.m, abs=1e-9)
            assert out.c == pytest.approx(max(abs(form.c), abs(form.c_prime)), abs=1e-9)

    def test_displacement_is_ignored(self):
        form_in = lz.GaussianStandardForm(2.0, 2.0, 0.7, -0.7)
        with_d = lz.CovarianceState(form_in.matrix(), d=[0.3, -1.0, 2.0, 0.1])
        out = lz.standard_form_from_covariance(with_d)
        assert out.c == pytest.approx(0.7, rel=1e-12, abs=0)

    def test_rejects_subvacuum_covariance(self):
        with pytest.raises(lz.UnphysicalFormError, match="det"):
            lz.standard_form_from_covariance(lz.CovarianceState(0.5 * np.eye(4)))

    def test_rejects_asymmetric_covariance(self):
        v = np.eye(4)
        v[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            lz.CovarianceState(v)

    def test_rejects_non_finite_covariance(self):
        v = np.eye(4)
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite entry in covariance matrix V at \(0, 0\)"):
            lz.CovarianceState(v)
        v = np.eye(4)
        v[1, 2] = v[2, 1] = np.inf
        with pytest.raises(ValueError, match=r"V at \(1, 2\)"):
            lz.CovarianceState(v)
        with pytest.raises(ValueError, match=r"displacement d at \(3,\)"):
            lz.CovarianceState(np.eye(4), d=[0.0, 0.0, 0.0, np.nan])


class TestKernels:
    def test_vacuum_entries(self):
        pair = lz.commutator_kernels(lz.GaussianStandardForm(1.0, 1.0, 0.0, 0.0))
        assert pair.plus[0, 0] == 3.0
        assert pair.plus[2, 2] == 2.0
        assert pair.plus[0, 5] == 2.0j
        assert pair.plus[1, 4] == -2.0j

    def test_pair_is_conjugate(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pair = lz.commutator_kernels(lz.random_standard_form(rng))
            assert np.array_equal(pair.plus.conj(), pair.minus)

    def test_determinant_spot_value(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, 0.0)
        assert lz.kernel_determinant(form) == pytest.approx(992.0, abs=0)
        numeric = np.linalg.det(lz.commutator_kernels(form).plus)
        assert numeric == pytest.approx(992.0, rel=1e-9, abs=0)

    def test_determinant_closed_form_uncorrelated(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 0.0, 0.0)
        expected = 4.0 * (1.0 + 3.0) ** 2 * (2.0 + 2.0) ** 2
        assert lz.kernel_determinant(form) == pytest.approx(expected, abs=0)

    def test_determinant_identity_battery(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            form = lz.random_standard_form(rng)
            closed = lz.kernel_determinant(form)
            pair = lz.commutator_kernels(form)
            for kernel in (pair.plus, pair.minus):
                assert np.linalg.det(kernel) == pytest.approx(closed, rel=1e-9, abs=0)

    def test_quadratic_difference_frozen_value(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        closed = lz.kernel_quadratic_closed_form(form, 1 + 1j, 1 + 1j)
        assert closed == pytest.approx(16j / 31.0, abs=1e-15)
        numeric = lz.kernel_quadratic_difference(form, 1 + 1j, 1 + 1j)
        assert numeric == pytest.approx(closed, abs=1e-12)

    def test_quadratic_difference_vanishes_uncoupled(self):
        form = lz.GaussianStandardForm(2.0, 2.0, 0.0, 0.0)
        rng = np.random.default_rng(41)
        for _ in range(5):
            u = complex(rng.standard_normal(), rng.standard_normal())
            v = complex(rng.standard_normal(), rng.standard_normal())
            assert abs(lz.kernel_quadratic_difference(form, u, v)) < 1e-12

    def test_quadratic_difference_vanishes_for_real_arguments(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            form = lz.random_standard_form(rng)
            value = lz.kernel_quadratic_difference(form, 1.3, -0.4)
            assert abs(value) < 1e-12

    def test_quadratic_identity_battery(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            form = lz.random_standard_form(rng)
            u = complex(rng.standard_normal(), rng.standard_normal())
            v = complex(rng.standard_normal(), rng.standard_normal())
            numeric = lz.kernel_quadratic_difference(form, u, v)
            closed = lz.kernel_quadratic_closed_form(form, u, v)
            assert abs(numeric - closed) < 1e-9

    def test_nonzero_coupling_witnessed_by_samples(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            form = lz.random_standard_form(rng, family="squeezed_thermal")
            if abs(form.c) < 0.05:
                continue
            best = max(
                abs(
                    lz.kernel_quadratic_closed_form(
                        form,
                        complex(rng.standard_normal(), rng.standard_normal()),
                        complex(rng.standard_normal(), rng.standard_normal()),
                    )
                )
                for _ in range(10)
            )
            assert best > 1e-6


class TestLazinessDecision:
    def test_product_form_is_lazy(self):
        assert lz.is_lazy_gaussian(lz.GaussianStandardForm(5.0, 2.0, 0.0, 0.0))

    def test_squeezed_vacuum_is_not(self):
        form = lz.squeezed_thermal_form(1.0, 1.0, 0.5)
        assert not lz.is_lazy_gaussian(form)

    def test_numerical_zero_tolerance(self):
        form = lz.GaussianStandardForm(1.0, 1.0, 1e-13, 0.0)
        assert lz.is_lazy_gaussian(form, tol=1e-10)

    def test_unphysical_form_rejected(self):
        with pytest.raises(lz.UnphysicalFormError):
            lz.is_lazy_gaussian(lz.GaussianStandardForm(1.0, 1.0, 0.5, 0.5))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        form = lz.squeezed_thermal_form(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
            lz.is_lazy_gaussian(form, tol=tol)


class TestSqueezedThermal:
    def test_parameter_roundtrip(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            a, b = rng.uniform(1.0, 4.0, size=2)
            r = rng.uniform(0.0, 0.8)
            form = lz.squeezed_thermal_form(a, b, r)
            ar, br, rr = lz.squeezed_thermal_parameters(form)
            assert ar == pytest.approx(a, rel=1e-12, abs=0)
            assert br == pytest.approx(b, rel=1e-12, abs=0)
            assert rr == pytest.approx(r, abs=1e-12)

    def test_zero_squeezing(self):
        a, b, r = lz.squeezed_thermal_parameters(lz.GaussianStandardForm(2.0, 3.0, 0.0, 0.0))
        assert (a, b, r) == (2.0, 3.0, 0.0)

    def test_outside_family_rejected(self):
        with pytest.raises(ValueError, match="squeezed-thermal"):
            lz.squeezed_thermal_parameters(lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.4))

    def test_subvacuum_solution_rejected(self):
        with pytest.raises(ValueError, match="below vacuum"):
            lz.squeezed_thermal_parameters(lz.GaussianStandardForm(1.0, 3.0, 1.8, -1.8))


class TestFockTruncation:
    def test_zero_squeezing_is_vacuum_product(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, 0.0), cutoff=6)
        assert rho.data[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert lz.commutator_residual(rho, "A") < 1e-14

    def test_matches_exact_two_mode_squeezed_vacuum(self):
        r, cutoff = 0.5, 20
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, r), cutoff)
        amps = np.tanh(r) ** np.arange(cutoff + 1) / np.cosh(r)
        exact = np.zeros(((cutoff + 1) ** 2, (cutoff + 1) ** 2), dtype=complex)
        diag = [k * (cutoff + 1) + k for k in range(cutoff + 1)]
        for i, a in enumerate(diag):
            for j, b in enumerate(diag):
                exact[a, b] = amps[i] * amps[j]
        exact /= np.trace(exact).real
        assert np.abs(rho.data - exact).max() < 1e-12

    @pytest.mark.parametrize(
        "a,b,r", [(1.0, 1.0, 0.4), (1.2, 1.1, 0.25), (1.3, 1.0, 0.0), (1.2, 1.1, -0.25)]
    )
    def test_matches_dense_expm_reference(self, a, b, r):
        form = lz.squeezed_thermal_form(a, b, r)
        rho = lz.fock_truncate(form, 10)
        params = lz.squeezed_thermal_parameters(form)
        reference = dense_fock_reference(*params, cutoff=10)
        # the oracle has converged in its own padding
        wider = dense_fock_reference(*params, cutoff=10, pad=FOCK_ORACLE_PAD + 10)
        assert np.abs(wider - reference).max() < 1e-15
        assert np.abs(rho.data - reference).max() < 1e-14

    @pytest.mark.parametrize("cutoff", [10, 20])
    @pytest.mark.parametrize("a,b,r", [(1.0, 1.0, 0.4), (1.2, 1.1, 0.25)])
    def test_block_is_real_and_exactly_symmetric(self, a, b, r, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        assert rho.data.dtype == np.float64
        assert np.array_equal(rho.data, rho.data.T)
        cast = lz.DensityMatrix(rho.dim_a, rho.dim_b, rho.data.astype(complex))
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == pytest.approx(
                lz.commutator_residual(cast, side), rel=0, abs=1e-13
            )

    def test_thermal_marginal_occupation(self):
        form = lz.squeezed_thermal_form(1.5, 2.0, 0.3)
        rho = lz.fock_truncate(form, 20)
        red = lz.reduced_state(rho, "A").data
        mean = sum(k * red[k, k].real for k in range(21))
        assert mean == pytest.approx((form.n - 1.0) / 2.0, rel=1e-6, abs=0)

    def test_residual_grows_with_squeezing(self):
        residuals = []
        for r in (0.0, 0.25, 0.5):
            rho = lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, r), 20)
            residuals.append(lz.commutator_residual(rho, "A"))
        assert residuals[0] < 1e-8
        assert residuals[1] > 1e-3
        assert residuals[0] < residuals[1] < residuals[2]

    def test_verdict_consistent_with_truncated_commutator(self):
        for r in (0.0, 0.1, 0.5):
            form = lz.squeezed_thermal_form(1.0, 1.0, r)
            lazy_form = lz.is_lazy_gaussian(form)
            residual = lz.commutator_residual(lz.fock_truncate(form, 20), "A")
            assert lazy_form == (residual < 1e-8)

    def test_trace_deficit_rejected(self):
        with pytest.raises(lz.TruncationError, match="deficit"):
            lz.fock_truncate(lz.squeezed_thermal_form(3.0, 3.0, 0.5), cutoff=4)

    def test_outside_family_rejected(self):
        with pytest.raises(ValueError, match="squeezed-thermal"):
            lz.fock_truncate(lz.GaussianStandardForm(2.0, 2.0, 0.3, -0.2), cutoff=6)

    def test_small_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, 0.1), cutoff=2)


#: squeezed, thermal (r = 0) and a != b squeezed-thermal forms
SECTOR_FORMS = [(1.0, 1.0, 0.5), (1.5, 1.3, 0.0), (1.2, 1.1, 0.25)]


class TestSectorFockState:
    """The sector form of `fock_truncate` against the dense block as oracle."""

    @pytest.mark.parametrize("cutoff", [10, 20, 40])
    @pytest.mark.parametrize("a,b,r", SECTOR_FORMS)
    def test_residual_matches_dense_and_kron_oracles(self, a, b, r, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        assert isinstance(rho, lz.SectorDensityMatrix)
        keep = cutoff + 1
        dense = lz.DensityMatrix(keep, keep, rho.data)
        for side in ("A", "B"):
            residual = lz.commutator_residual(rho, side)
            assert residual == pytest.approx(
                lz.commutator_residual(dense, side), rel=1e-12, abs=0
            )
            assert residual == pytest.approx(
                kron_commutator_residual(dense, side), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("cutoff", [10, 20, 40])
    @pytest.mark.parametrize("a,b,r", SECTOR_FORMS)
    def test_reduced_state_matches_partial_trace(self, a, b, r, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        for side in ("A", "B"):
            expected = lz.partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
            assert lz.reduced_state(rho, side).data == pytest.approx(
                expected, rel=1e-12, abs=0
            )

    def test_two_mode_squeezed_vacuum_closed_form(self):
        # pure state sum_n sqrt(p_n) |n, n>: the residual squared is
        # sum_kl p_k p_l (p_k - p_l)^2 = 2 (sum p^3 - (sum p^2)^2)
        r, cutoff = 0.5, 40
        lam = math.tanh(r)
        p = (1.0 - lam * lam) * lam ** (2.0 * np.arange(cutoff + 1))
        closed = math.sqrt(2.0 * (np.sum(p**3) - np.sum(p**2) ** 2))
        assert closed == pytest.approx(0.3774318586733074, rel=1e-13, abs=0)
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, r), cutoff)
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == pytest.approx(closed, rel=1e-13, abs=0)

    def test_mirror_sectors_share_the_squeezer(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, 0.3), 12)
        # with a = b, the sectors d and -d hold the same block on swapped modes
        blocks = {(int(la[0]) - int(lb[0])): block for la, lb, block in rho.sectors}
        assert sorted(blocks) == list(range(-12, 13))
        for d in range(1, 13):
            assert np.array_equal(blocks[d], blocks[-d])

    def test_is_lazy_reads_the_dense_block(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.25), 10)
        report = lz.is_lazy(rho, "A")
        assert report.commutator_residual == lz.commutator_residual(rho, "A")
        assert not report.is_lazy
        assert naive_partial_trace(rho.data, 11, 11, "A").real == pytest.approx(
            lz.reduced_state(rho, "A").data, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("cutoff", [100, 200])
    def test_witness_memory_stays_off_the_dense_block(self, cutoff):
        # the dense (cutoff + 1)^2 block would be 832 MB at cutoff 100 and
        # 13 GB at 200; the sector blocks alone are 43 MB at 200
        form = lz.squeezed_thermal_form(1.2, 1.1, 0.5)
        tracemalloc.start()
        try:
            rho = lz.fock_truncate(form, cutoff)
            residuals = [lz.commutator_residual(rho, side) for side in ("A", "B")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(res > 1e-3 for res in residuals)
        assert peak < 50e6

    @pytest.mark.parametrize("cutoff", [10, 20])
    @pytest.mark.parametrize("a,b,r", SECTOR_FORMS)
    def test_spectrum_matches_dense_eigvalsh(self, a, b, r, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        vals = rho.eigenvalues
        assert rho.is_physical
        assert "data" not in vars(rho)
        assert vals == pytest.approx(np.linalg.eigvalsh(rho.data), rel=0, abs=1e-13)


def thermal_ratios(form):
    a, b, _ = lz.squeezed_thermal_parameters(form)
    return (a - 1.0) / (a + 1.0), (b - 1.0) / (b + 1.0)


def blocks_by_shift(rho):
    """Sector blocks keyed by d = n1 - n2."""
    return {int(la[0]) - int(lb[0]): block for la, lb, block in rho.sectors}


class TestClosedFormFockSectors:
    """Edge cases of the normal-ordered closed form behind `fock_truncate`."""

    def test_zero_squeezing_is_the_thermal_diagonal(self):
        form = lz.squeezed_thermal_form(1.5, 1.3, 0.0)
        cutoff = 20
        rho = lz.fock_truncate(form, cutoff)
        q_a, q_b = thermal_ratios(form)
        # kept weight of the product of two geometric distributions
        kept = (1.0 - q_a ** (cutoff + 1)) * (1.0 - q_b ** (cutoff + 1))
        for la, lb, block in rho.sectors:
            expected = (1.0 - q_a) * (1.0 - q_b) * q_a**la * q_b**lb / kept
            assert np.array_equal(block, np.diag(np.diagonal(block)))
            assert np.diagonal(block) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a,b", [(1.2, 1.0), (1.0, 1.2), (1.0, 1.0), (1.2, 1.0 - 1e-10)])
    def test_vacuum_mode_is_clamped(self, a, b):
        # built without squeezed_thermal_form's a, b >= 1 check: even an
        # exact vacuum, as in squeezed_thermal_form(1.2, 1.0, 0.3), can come
        # back from squeezed_thermal_parameters a rounding error below 1
        r = 0.3
        ch, sh = math.cosh(r), math.sinh(r)
        c = (a + b) * ch * sh
        form = lz.GaussianStandardForm(a * ch**2 + b * sh**2, a * sh**2 + b * ch**2, c, -c)
        rho = lz.fock_truncate(form, 10)
        # n1 > n2 needs a thermal excitation of mode A, n2 > n1 one of mode B
        for d, block in blocks_by_shift(rho).items():
            assert np.isfinite(block).all()
            if (d > 0 and a <= 1.0) or (d < 0 and b <= 1.0):
                assert not block.any()
        assert rho.is_physical
        reference = dense_fock_reference(max(a, 1.0), max(b, 1.0), r, cutoff=10)
        assert np.abs(rho.data - reference).max() < 1e-14

    def test_mirror_sectors_scale_by_the_thermal_ratio(self):
        form = lz.squeezed_thermal_form(1.5, 1.2, 0.3)
        q_a, q_b = thermal_ratios(form)
        blocks = blocks_by_shift(lz.fock_truncate(form, 20))
        for d in range(1, 21):
            assert blocks[-d] == pytest.approx(
                (q_b / q_a) ** d * blocks[d], rel=1e-13, abs=0
            )

    def test_negative_squeezing_flips_the_odd_entries(self):
        # S(-r) = P S(r) P with P = (-1)^(n2): entries pick up (-1)^(k + l)
        plus = blocks_by_shift(lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), 20))
        minus = blocks_by_shift(lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, -0.3), 20))
        for d, block in plus.items():
            k = np.arange(block.shape[0])
            signs = (-1.0) ** np.add.outer(k, k)
            assert minus[d] == pytest.approx(signs * block, rel=1e-14, abs=0)

    def test_matches_mpmath_sector_oracle(self):
        # two sectors at 30 digits; mp.expm on the padded sectors takes
        # about 2 s, so the others are left to the float oracles
        form = lz.squeezed_thermal_form(1.2, 1.1, 0.3)
        params = lz.squeezed_thermal_parameters(form)
        cutoff = 30
        blocks = blocks_by_shift(lz.fock_truncate(form, cutoff))
        oracle = {}
        for shift in (0, 12):
            oracle[shift], oracle[-shift] = mp_fock_sector(*params, cutoff, shift)
        # the oracle is unnormalized: scale it to the state's vacuum entry
        scale = blocks[0][0, 0] / oracle[0][0, 0]
        for d, expected in oracle.items():
            assert np.abs(blocks[d] - scale * expected).max() < 1e-14


class TestRandomStandardForm:
    @pytest.mark.parametrize("family", ["mixed", "squeezed_thermal", "general"])
    def test_samples_are_physical(self, family):
        rng = np.random.default_rng(61)
        for _ in range(25):
            form = lz.random_standard_form(rng, family=family)
            assert lz.check_uncertainty(form).physical

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            lz.random_standard_form(np.random.default_rng(0), family="bogus")
