import numpy as np
import pytest

import lazystates as lz
from conftest import finite_difference_rate, kron_rate_operator
from lazystates.dynamics import TRIAL_BLOCK, _rate_operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def pure_density(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_marginal(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def mp_entropy_rate_a(rho, hamiltonian, step="1e-12"):
    """Central finite difference of the entropy of A at 40 digits."""
    mp = pytest.importorskip("mpmath")
    na, nb = rho.dim_a, rho.dim_b
    with mp.workdps(40):
        h = mp.matrix(hamiltonian.tolist())
        r = mp.matrix(rho.data.tolist())
        dt = mp.mpf(step)

        def entropy_a(t):
            u = mp.expm(mp.mpc(0, -1) * t * h)
            ev = u * r * u.H
            red = mp.matrix(
                [[sum(ev[a * nb + b, c * nb + b] for b in range(nb)) for c in range(na)]
                 for a in range(na)]
            )
            vals = mp.eighe(red, eigvals_only=True)
            return -sum(v * mp.log(v, 2) for v in vals if v > 0)

        return float((entropy_a(dt) - entropy_a(-dt)) / (2 * dt))


class TestEntropy:
    def test_pure_state(self, bell):
        assert lz.entropy(bell) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit_pair(self):
        rho = lz.DensityMatrix(2, 2, np.eye(4) / 4.0)
        assert lz.entropy(rho) == pytest.approx(2.0, abs=1e-12)
        assert lz.entropy(lz.reduced_state(rho, "A")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qutrit_pair(self):
        rho = lz.DensityMatrix(3, 3, np.eye(9) / 9.0)
        assert lz.entropy(rho) == pytest.approx(np.log2(9.0), abs=1e-12)


class TestRandomCoupling:
    def test_deterministic(self):
        a = lz.random_coupling(2, 3, 123)
        b = lz.random_coupling(2, 3, 123)
        assert np.array_equal(a.hamiltonian, b.hamiltonian)
        assert a.seed == 123

    def test_hermitian(self):
        h = lz.random_coupling(3, 3, 5).hamiltonian
        assert np.linalg.norm(h - h.conj().T) < 1e-15

    def test_entry_statistics(self):
        total = np.zeros((4, 4), dtype=complex)
        for seed in range(100):
            total += lz.random_coupling(2, 2, seed).hamiltonian
        assert np.abs(total / 100.0).max() < 0.3

    def test_rejects_trivial_dimensions(self):
        with pytest.raises(lz.DimensionMismatchError):
            lz.random_coupling(1, 4, 0)

    def test_stack_element_zero_is_random_coupling(self):
        for na, nb, seed in ((2, 2, 0), (2, 3, 123), (3, 2, 7), (5, 5, 2**40 + 5)):
            single = lz.random_coupling(na, nb, seed).hamiltonian
            first = lz.random_couplings(na, nb, 1, seed)[0]
            assert single.tobytes() == first.tobytes()
            assert lz.random_couplings(na, nb, 37, seed)[0].tobytes() == single.tobytes()

    def test_stack_is_one_unblocked_stream(self):
        count = 2 * TRIAL_BLOCK + 5
        stack = lz.random_couplings(3, 2, count, 11)
        normals = np.random.default_rng(11).standard_normal((count, 2, 6, 6))
        g = normals[:, 0] + 1j * normals[:, 1]
        assert np.array_equal(stack, (g + g.conj().transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))
        assert np.array_equal(lz.random_couplings(3, 2, 9, 11), stack[:9])
        with pytest.raises(ValueError, match="count"):
            lz.random_couplings(3, 2, 0, 11)

    def test_rejects_non_finite_coupling(self):
        with pytest.raises(ValueError, match="non-finite"):
            lz.Coupling(hamiltonian=np.full((4, 4), np.nan), seed=0)


class TestEntropyRate:
    def test_local_hamiltonian_gives_zero(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            rho = lz.random_density_matrix(2, 3, trial)
            ha = lz.random_coupling(2, 2, int(rng.integers(2**32))).hamiltonian[:2, :2]
            hb = lz.random_coupling(3, 3, int(rng.integers(2**32))).hamiltonian[:3, :3]
            local = np.kron(ha, np.eye(3)) + np.kron(np.eye(2), hb)
            coupling = lz.Coupling(hamiltonian=local, seed=0)
            assert abs(lz.entropy_rate(rho, coupling, "A")) < 1e-10

    def test_bell_rate_vanishes_for_any_coupling(self, bell):
        coupling = lz.Coupling(hamiltonian=np.kron(SX, SX), seed=0)
        assert abs(lz.entropy_rate(bell, coupling, "A")) < 1e-10
        for seed in range(10):
            c = lz.random_coupling(2, 2, seed)
            assert abs(lz.entropy_rate(bell, c, "A")) < 1e-10

    def test_witness_real_coupling_is_time_symmetric(self, witness):
        # state and coupling are both real matrices, so the reduced spectrum
        # is even in t and the rate vanishes despite non-laziness; the
        # finite-difference oracle agrees
        coupling = lz.Coupling(hamiltonian=np.kron(SX, SX), seed=0)
        rate = lz.entropy_rate(witness, coupling, "A")
        oracle = finite_difference_rate(witness, coupling.hamiltonian, "A")
        assert abs(rate) < 1e-10
        assert abs(oracle) < 1e-8

    def test_witness_generic_coupling_rate(self, witness):
        coupling = lz.random_coupling(2, 2, lz.derive_trial_seed(7, 0))
        rate = lz.entropy_rate(witness, coupling, "A")
        assert rate == pytest.approx(-1.1491593593656044, rel=1e-9, abs=0)
        oracle = finite_difference_rate(witness, coupling.hamiltonian, "A")
        assert rate == pytest.approx(oracle, abs=max(1e-6, 1e-4 * abs(rate)))

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            na, nb = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
            rho = lz.random_density_matrix(na, nb, int(rng.integers(2**32)))
            c = lz.random_coupling(na, nb, int(rng.integers(2**32)))
            analytic = lz.entropy_rate(rho, c, "A", method="analytic")
            fd = lz.entropy_rate(rho, c, "A", method="fd")
            assert abs(analytic - fd) <= max(1e-6, 1e-4 * abs(analytic))

    def test_rank_deficient_marginals_are_exact(self):
        rng = np.random.default_rng(8)
        for na, nb in ((2, 2), (2, 3), (3, 3), (4, 3)):
            rho = lz.product_state(pure_density(rng, na), random_marginal(rng, nb))
            for seed in range(5):
                c = lz.random_coupling(na, nb, seed)
                assert abs(lz.entropy_rate(rho, c, "A")) < 1e-12
        # a pure entangled 3x2 state and a mixed 3x3 state whose rho_A has
        # rank 2: the rates are nonzero and must match a high-precision
        # finite difference
        pure = pure_density(rng, 6)
        isometry = np.linalg.qr(
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        )[0]
        lift = np.kron(isometry, np.eye(3))
        mixed = lift @ random_marginal(rng, 6) @ lift.conj().T
        for na, nb, data in ((3, 2, pure), (3, 3, mixed)):
            rho = lz.DensityMatrix(na, nb, data)
            assert np.linalg.matrix_rank(lz.reduced_state(rho, "A").data, tol=1e-10) == 2
            c = lz.random_coupling(na, nb, 11)
            rate = lz.entropy_rate(rho, c, "A")
            assert abs(rate) > 1e-3
            assert abs(rate - mp_entropy_rate_a(rho, c.hamiltonian)) < 1e-12

    def test_rate_is_linear_in_the_coupling(self):
        rng = np.random.default_rng(9)
        for na, nb in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
            rho = lz.random_density_matrix(na, nb, int(rng.integers(2**32)))
            h1 = lz.random_coupling(na, nb, int(rng.integers(2**32))).hamiltonian
            h2 = lz.random_coupling(na, nb, int(rng.integers(2**32))).hamiltonian
            s = float(rng.normal())
            for side in ("A", "B"):
                def rate(h):
                    return lz.entropy_rate(rho, lz.Coupling(hamiltonian=h, seed=0), side)

                assert abs(rate(h1 + s * h2) - rate(h1) - s * rate(h2)) < 1e-12

    @pytest.mark.parametrize("na,nb", [(2, 5), (5, 2), (3, 4), (2, 2)])
    def test_rate_operator_matches_kron_form(self, na, nb):
        rng = np.random.default_rng(na * 10 + nb)
        full = lz.random_density_matrix(na, nb, int(rng.integers(2**32)))
        pure_a = lz.product_state(pure_density(rng, na), random_marginal(rng, nb))
        for rho in (full, pure_a):
            for side in ("A", "B"):
                k = _rate_operator(rho, side)
                assert np.abs(k - kron_rate_operator(rho, side)).max() < 1e-14

    def test_rejects_shape_mismatch(self, bell):
        with pytest.raises(lz.DimensionMismatchError):
            lz.entropy_rate(bell, lz.random_coupling(2, 3, 0), "A")

    def test_rejects_unknown_method(self, bell):
        with pytest.raises(ValueError, match="method"):
            lz.entropy_rate(bell, lz.random_coupling(2, 2, 0), "A", method="exact")


class TestEvolve:
    def test_global_entropy_conserved(self):
        rho = lz.random_density_matrix(2, 3, 11)
        h = lz.random_coupling(2, 3, 12).hamiltonian
        s0 = lz.entropy(rho)
        for t in (0.1, 1.0):
            assert abs(lz.entropy(lz.evolve(rho, h, t)) - s0) < 1e-10

    def test_zero_time_is_identity(self, bell):
        h = lz.random_coupling(2, 2, 1).hamiltonian
        assert np.abs(lz.evolve(bell, h, 0.0).data - bell.data).max() < 1e-14

    def test_shape_mismatch(self, bell):
        with pytest.raises(lz.DimensionMismatchError):
            lz.evolve(bell, np.eye(6), 0.1)


class TestDynamicsAudit:
    def test_lazy_battery_consistent(self, bell):
        audit = lz.dynamics_audit(bell, "A", trials=20, seed=3)
        assert audit.max_rate < 1e-8
        assert audit.consistent_with_laziness
        assert audit.max_rate == max(abs(r) for r in audit.per_trial_rates)

    def test_witness_consistent(self, witness):
        audit = lz.dynamics_audit(witness, "A", trials=20, seed=3)
        assert audit.max_rate > 1e-3
        assert audit.consistent_with_laziness

    def test_per_trial_rates_match_entropy_rate(self):
        rho = lz.random_density_matrix(2, 3, 21)
        couplings = lz.random_couplings(2, 3, 8, 4)
        for side in ("A", "B"):
            audit = lz.dynamics_audit(rho, side, trials=8, seed=4)
            direct = [
                lz.entropy_rate(rho, lz.Coupling(hamiltonian=h, seed=4), side)
                for h in couplings
            ]
            np.testing.assert_allclose(audit.per_trial_rates, direct, rtol=0, atol=1e-14)

    def test_shorter_audit_is_a_prefix(self, witness):
        long = lz.dynamics_audit(witness, "A", trials=100, seed=5)
        short = lz.dynamics_audit(witness, "A", trials=37, seed=5)
        assert short.per_trial_rates == long.per_trial_rates[:37]

    def test_trial_count_off_the_block_size(self):
        trials = 2 * TRIAL_BLOCK + 3
        rho = lz.random_density_matrix(3, 2, 22)
        audit = lz.dynamics_audit(rho, "B", trials=trials, seed=6)
        assert len(audit.per_trial_rates) == audit.trials == trials
        direct = [
            lz.entropy_rate(rho, lz.Coupling(hamiltonian=h, seed=6), "B")
            for h in lz.random_couplings(3, 2, trials, 6)
        ]
        np.testing.assert_allclose(audit.per_trial_rates, direct, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 3)])
    def test_rate_bound_is_attained(self, na, nb):
        rho = lz.random_density_matrix(na, nb, 30 + na + nb)
        for side in ("A", "B"):
            audit = lz.dynamics_audit(rho, side, trials=20, seed=8)
            k = _rate_operator(rho, side)
            worst = lz.Coupling(hamiltonian=k / np.linalg.norm(k), seed=0)
            rate = lz.entropy_rate(rho, worst, side)
            assert rate == pytest.approx(audit.rate_bound, rel=1e-12, abs=0)
            norms = np.linalg.norm(lz.random_couplings(na, nb, 20, 8), axis=(1, 2))
            assert np.all(np.abs(audit.per_trial_rates) <= audit.rate_bound * norms)

    def test_rate_bound_vanishes_on_lazy_states(self, bell):
        rng = np.random.default_rng(13)
        pure_a = lz.product_state(pure_density(rng, 3), random_marginal(rng, 2))
        for rho in (bell, pure_a):
            for side in ("A", "B"):
                assert lz.dynamics_audit(rho, side, trials=4, seed=2).rate_bound < 1e-12

    def test_rank_deficient_lazy_state_is_consistent(self):
        rng = np.random.default_rng(12)
        rho = lz.product_state(pure_density(rng, 3), random_marginal(rng, 4))
        audit = lz.dynamics_audit(rho, "A", trials=100, seed=1)
        assert audit.max_rate < 1e-12
        assert audit.consistent_with_laziness

    def test_schedule_independent(self, witness):
        a = lz.dynamics_audit(witness, "A", trials=10, seed=9)
        b = lz.dynamics_audit(witness, "A", trials=10, seed=9)
        assert a.per_trial_rates == b.per_trial_rates

    def test_rejects_zero_trials(self, bell):
        with pytest.raises(ValueError):
            lz.dynamics_audit(bell, "A", trials=0, seed=0)

    @pytest.mark.parametrize("name", ["laziness_tol", "lazy_rate_tol", "nonlazy_rate_floor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_rejects_invalid_tolerances(self, bell, name, value):
        with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
            lz.dynamics_audit(bell, "A", trials=4, seed=1, **{name: value})
