import tracemalloc

import numpy as np
import pytest

import lazystates as lz
from conftest import (
    fock_stacks,
    fock_state,
    golden_su3_contraction,
    haar_unitary,
    kron_commutator_residual,
    marginal_asymmetric_state,
    naive_commutator_residual,
    naive_partial_trace,
    products,
)

#: Frobenius norm of the witness commutator, sqrt(2)/8 analytically
WITNESS_RESIDUAL = np.sqrt(2.0) / 8.0


def composed_report(rho, side, tol=1e-10):
    """The fields of `is_lazy(rho, side, tol)` from the public functions alone."""
    residual = lz.commutator_residual(rho, side)
    n = rho.dim_a if side == "A" else rho.dim_b
    criterion = 0.0
    if n >= 2:
        g = lz.criterion_matrix(lz.decompose(rho), lz.build_su_basis(n), side)
        criterion = float(np.abs(g).max()) if g.size else 0.0
    return lz.LazinessReport(
        side=side,
        tolerance=tol,
        commutator_residual=residual,
        criterion_residual=criterion,
        is_lazy=residual < tol,
    )


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

    def test_bases_and_scales_are_kept_for_a_few_dimensions(self):
        # a sweep of is_lazy on both sides of n x 2 states, n = 2, ..., 32,
        # keeps the last five bases used (2 and 29-32, about 80 MB) and
        # the scale tables of the last eleven splits, not the 31 of each
        # swept (177 MB)
        bases, scales = lz.su_algebra._su_basis, lz.bloch._coefficient_scale
        bases.cache_clear()
        scales.cache_clear()
        tracemalloc.start()
        try:
            for n in range(2, 33):
                rho = lz.random_density_matrix(n, 2, 0)
                for side in ("A", "B"):
                    lz.is_lazy(rho, side)
            del rho
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 100e6
        assert bases.cache_info().currsize == 5
        assert scales.cache_info().currsize == 11
        assert bases(32) is bases(32)
        assert scales(32, 2) is scales(32, 2)
        assert not scales(32, 2).flags.writeable


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


class TestSharedExpansion:
    """Both sides' verdicts read one cached Bloch expansion of the state."""

    def test_both_sides_decompose_once(self, monkeypatch):
        calls = []
        original = lz.bloch.decompose

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lz.bloch, "decompose", counting)
        rho = lz.random_density_matrix(2, 3, 12)
        lz.is_lazy(rho, "A")
        lz.is_lazy(rho, "B")
        assert len(calls) == 1
        lz.is_lazy(lz.random_density_matrix(2, 3, 12), "A")
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "rho",
        [
            lz.fock_truncate(lz.squeezed_thermal_form(*form), 10)
            for form in [(1.2, 1.1, 0.4), (1.0, 1.3, -0.3), (1.3, 1.0, 0.3)]
        ],
        ids=["fock10", "fock10 a vacuum", "fock10 b vacuum"],
    )
    def test_sector_reports_match_a_fresh_expansion(self, rho):
        for side in ("A", "B"):
            assert lz.is_lazy(rho, side) == composed_report(rho, side)


class TestVerdictBitIdentity:
    """`is_lazy` reads the kernels behind the public functions, so every
    field equals their composition exactly, on dense states of either dtype."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 2), (3, 5), (4, 4), (8, 8)])
    def test_report_is_the_public_composition(self, dims, real):
        for seed in range(3):
            data = lz.random_density_matrix(*dims, seed).data
            if real:
                data = data.real.copy()
            states = [lz.DensityMatrix(*dims, data)]
            # a lazy state too: a product of two random marginals
            a = lz.random_density_matrix(dims[0], 1, seed + 10).data
            b = lz.random_density_matrix(dims[1], 1, seed + 20).data
            product = np.kron(a.real, b.real) if real else np.kron(a, b)
            states.append(lz.DensityMatrix(*dims, product))
            for rho in states:
                assert rho.data.dtype == (np.float64 if real else np.complex128)
                for side in ("A", "B"):
                    for tol in (1e-10, 0.5):
                        assert lz.is_lazy(rho, side, tol) == composed_report(rho, side, tol)

    @pytest.mark.parametrize(
        "side,tol,message",
        [
            ("C", 1e-10, "side must be 'A' or 'B', got 'C'"),
            ("a", 1e-10, "side must be 'A' or 'B', got 'a'"),
            ("A", 0.0, "tolerance must be a positive finite number, got 0.0"),
            ("B", float("nan"), "tolerance must be a positive finite number, got nan"),
            # the side is checked first
            ("C", -1.0, "side must be 'A' or 'B', got 'C'"),
        ],
    )
    def test_bad_arguments_raise_before_any_array_work(self, monkeypatch, side, tol, message):
        rho = lz.random_density_matrix(2, 3, 1)
        form, basis = rho.bloch_form, lz.build_su_basis(2)

        def refuse(*args, **kwargs):
            raise AssertionError("array work before the arguments were checked")

        for name in ("_residual", "_partial_trace", "_commutator"):
            monkeypatch.setattr(lz.DensityMatrix, name, refuse)
        monkeypatch.setattr(lz.bloch, "decompose", refuse)
        monkeypatch.setattr(lz.laziness, "_contraction", refuse)
        with pytest.raises(ValueError) as info:
            lz.is_lazy(rho, side, tol)
        assert str(info.value) == message
        if side not in ("A", "B"):
            for call in (
                lambda: lz.commutator_residual(rho, side),
                lambda: lz.criterion_matrix(form, basis, side),
                lambda: lz.criterion_prefactor(2, 3, side),
            ):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message

    def test_a_basis_that_does_not_fit_the_form_is_named(self):
        form = lz.random_density_matrix(2, 3, 4).bloch_form
        for side, basis, length in (("A", lz.build_su_basis(3), 3), ("B", lz.build_su_basis(2), 8)):
            with pytest.raises(lz.DimensionMismatchError) as info:
                lz.criterion_matrix(form, basis, side)
            count = basis.dim**2 - 1
            assert str(info.value) == (
                f"coefficient vector of length {length} does not match "
                f"su({basis.dim}) with {count} generators"
            )
        # so is a dimension that no state has, in the prefactor
        for args, message in (
            ((0, 2, "A"), "subsystem dimension must be an integer >= 1, got 0"),
            ((-1, 2, "A"), "subsystem dimension must be an integer >= 1, got -1"),
            ((2.5, 2, "A"), "subsystem dimension must be an integer >= 1, got 2.5"),
            ((True, 2, "B"), "subsystem dimension must be an integer >= 1, got True"),
        ):
            with pytest.raises(ValueError) as info:
                lz.criterion_prefactor(*args)
            assert str(info.value) == message


class TestKeptMarginals:
    """A sector state keeps the diagonals of its marginals, so a residual
    walks the sectors once."""

    @staticmethod
    def fock_state():
        # two stacks of products, each read as the sectors d and -d
        return lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.4), 20)

    def test_residual_walks_the_sectors_once(self, monkeypatch):
        # each level sum is one pass over the stacks, and each residual
        # walks every stack once: one vdot per stack, both rows at once
        calls = []
        sums, vdot = lz.SectorDensityMatrix._level_sums, np.vdot

        def counting_sums(rho, side):
            calls.append(side)
            return sums(rho, side)

        def counting_vdot(a, b):
            calls.append("vdot")
            return vdot(a, b)

        monkeypatch.setattr(lz.SectorDensityMatrix, "_level_sums", counting_sums)
        monkeypatch.setattr(np, "vdot", counting_vdot)
        rho = self.fock_state()
        walk = ["vdot"] * 2
        assert len(rho._stacks) == 2
        # making the state sums the A diagonal
        assert calls == ["A"]
        lz.commutator_residual(rho, "A")
        assert calls == ["A", *walk]
        # the B diagonal is summed on its first read, then kept
        lz.commutator_residual(rho, "B")
        assert calls == ["A", *walk, "B", *walk]
        lz.commutator_residual(rho, "B")
        assert calls == ["A", *walk, "B", *walk, *walk]

    def test_residual_forms_no_marginal_matrix(self, monkeypatch):
        # the residual reads the kept diagonals, not np.diag of them
        expected = {side: lz.commutator_residual(self.fock_state(), side) for side in ("A", "B")}

        def refuse(rho, side):
            raise AssertionError(f"a marginal matrix of side {side} was formed")

        monkeypatch.setattr(lz.SectorDensityMatrix, "_partial_trace", refuse)
        rho = self.fock_state()
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == expected[side]
        with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'C'"):
            lz.commutator_residual(rho, "C")

    def test_kept_marginals_are_read_only(self):
        rho = self.fock_state()
        for side in ("A", "B"):
            diagonal = rho._diagonal(side)
            assert diagonal is rho._diagonal(side)
            assert np.array_equal(np.diag(diagonal), lz.reduced_state(rho, side).data)
            with pytest.raises(ValueError, match="read-only"):
                diagonal[0] = 1.0

    def test_a_b_level_beyond_the_float_range_is_named(self):
        # planted stacks of zeros with trace 1 on A's levels, but B level 0
        # sums 1e308 + 1e308 + 1: the state is accepted, and the first read
        # of B names the level.  Entry 0 of sector d lies on A level d and
        # B level 0, that of sector -d on A level 0 and B level d
        big = 1e308
        stacks = fock_stacks(20)
        for stack, _, weights in stacks:
            stack[...] = 0.0
            weights[...] = 0.0
        prods = products(stacks)
        # (d, row of the weights read, the diagonal's first entries)
        for d, row, entries in ((0, 0, [big, -big]), (1, 0, [big]), (2, 1, [-big]), (3, 0, [1.0])):
            product, weights = prods[d]
            product[range(len(entries)), range(len(entries))] = entries
            weights[row] = 1.0
        state = fock_state(stacks)
        message = "rho_B level 0 sums beyond the float range: inf"
        for read in (lz.commutator_residual, lz.is_lazy, lz.reduced_state):
            with pytest.raises(lz.InvalidStateError) as info:
                read(state, "B")
            assert str(info.value) == message


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
