import tracemalloc

import numpy as np
import pytest

import lazystates as lz
from conftest import (
    finite_difference_rate,
    herm_1i,
    kron_rate_operator,
    reference_dynamics_audit,
    reference_entropy_rate,
)
from lazystates import dynamics
from lazystates.dynamics import _rate_commutator

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
        with pytest.raises(ValueError, match="coupling dimension must be an integer >= 2, got 1"):
            lz.random_coupling(1, 4, 0)

    def test_draws_its_own_gue_block(self):
        # H = herm((1+i) G), G the d^2 normals of default_rng(seed) read
        # row-major, as one product_couplings factor is
        for na, nb, seed in ((2, 2, 0), (2, 3, 123), (3, 2, 7), (5, 5, 2**40 + 5)):
            d = na * nb
            normals = np.random.default_rng(seed).standard_normal(d * d)
            h = lz.random_coupling(na, nb, seed).hamiltonian
            assert np.array_equal(h, hermitian_from_normals(normals, d))
            assert h.tobytes() == herm_1i(normals.reshape(1, d, d))[0].tobytes()
            assert np.array_equal(h, h.conj().T)

    def test_keeps_nothing_once_deleted(self):
        # a gather table cached per size held 2 x 256^2 entries, 2.10 MB, here;
        # a first small call does the lazy imports of the random generator
        lz.random_coupling(2, 2, 0)
        tracemalloc.start()
        try:
            coupling = lz.random_coupling(16, 16, 0)
            del coupling
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 256e3

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_rejects_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            lz.random_coupling(2, 2, seed)

    @pytest.mark.parametrize("seed", [1.5, -3, "x", True])
    def test_coupling_rejects_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            lz.Coupling(hamiltonian=np.eye(4), seed=seed)

    def test_coupling_stores_an_int_seed(self):
        seed = lz.Coupling(hamiltonian=np.eye(4), seed=np.int64(5)).seed
        assert type(seed) is int and seed == 5

    def test_rejects_non_finite_coupling(self):
        with pytest.raises(ValueError, match="non-finite"):
            lz.Coupling(hamiltonian=np.full((4, 4), np.nan), seed=0)

    def test_rejects_asymmetric_coupling(self):
        h = lz.random_coupling(2, 2, 3).hamiltonian.copy()
        h[1, 2] += 1e-9
        with pytest.raises(
            lz.InvalidStateError, match=r"hermiticity violation.* at entry \(1, 2\) of the coupling"
        ):
            lz.Coupling(hamiltonian=h, seed=3)


def hermitian_from_normals(normals, n):
    """A = sum_p g_p h_p over the basis {E_kk, ((1+i) E_kl + (1-i) E_lk)/2 :
    k != l}, entry by entry, with g = normals read as n x n row-major:
    A_kl = ((g_kl + g_lk) + i (g_kl - g_lk)) / 2."""
    g = np.asarray(normals).reshape(n, n)
    a = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            a[k, l] = complex((g[k, l] + g[l, k]) / 2, (g[k, l] - g[l, k]) / 2)
    return a


def unit_factor(p, n):
    """herm((1+i) E_p), the factor drawn from the unit row e_p: basis element p."""
    return hermitian_from_normals(np.eye(n * n)[p], n)


def product_stack_from_normals(na, nb, count, seed):
    normals = np.random.default_rng(seed).standard_normal((count, na * na + nb * nb))
    return [
        np.array([hermitian_from_normals(row, n) for row in block])
        for n, block in ((na, normals[:, : na * na]), (nb, normals[:, na * na:]))
    ]


def assert_rates_close(got, want, rate_bound, a, b):
    """|got_i - want_i| <= gamma_k ||K||_F ||A_i||_F ||B_i||_F, k = n_A^2 + n_B^2.

    gamma_k = k eps / (1 - k eps) bounds the rounding of a k-term product;
    ||K||_F = rate_bound, and each rate is at most ||K||_F ||A_i|| ||B_i||.
    """
    k = a[0].size + b[0].size
    eps = np.finfo(float).eps
    gamma = k * eps / (1 - k * eps)
    norms = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
    gap = np.abs(np.asarray(got) - np.asarray(want))
    assert np.all(gap <= gamma * rate_bound * norms), gap.max()


def gue_entry_covariance(n):
    """Covariance of [Re vec A, Im vec A] for A = (G + G^dag)/2, G with 2 n^2
    unit normals: L L^T with column j of L the image of the j-th normal."""
    columns = []
    for g in np.eye(2 * n * n):
        g = (g[: n * n] + 1j * g[n * n:]).reshape(n, n)
        a = ((g + g.conj().T) / 2.0).ravel()
        columns.append(np.concatenate([a.real, a.imag]))
    lin = np.array(columns).T
    return lin @ lin.T


class TestDeriveTrialSeed:
    def test_deterministic_and_index_dependent(self):
        assert lz.derive_trial_seed(7, 0) == lz.derive_trial_seed(7, 0)
        assert lz.derive_trial_seed(7, 0) != lz.derive_trial_seed(7, 1)

    @pytest.mark.parametrize(
        "seed,index,name",
        [(-1, 0, "seed"), (1.5, 0, "seed"), (True, 0, "seed"), (0, -2, "index")],
    )
    def test_rejects_invalid_arguments(self, seed, index, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            lz.derive_trial_seed(seed, index)


class TestProductCouplings:
    @pytest.mark.parametrize("na,nb", [(3, 2), (2, 5), (4, 4), (2, 6), (6, 2)])
    def test_one_draw_in_row_layout(self, na, nb):
        # each factor is bitwise herm((1+i) G) of its row-major block of the
        # draw row, and exactly Hermitian
        a, b = lz.product_couplings(na, nb, 37, 11)
        expected_a, expected_b = product_stack_from_normals(na, nb, 37, 11)
        normals = np.random.default_rng(11).standard_normal((37, na * na + nb * nb))
        assert a.shape == (37, na, na) and b.shape == (37, nb, nb)
        assert np.array_equal(a, expected_a)
        assert np.array_equal(b, expected_b)
        assert a.tobytes() == herm_1i(normals[:, : na * na].reshape(-1, na, na)).tobytes()
        assert b.tobytes() == herm_1i(normals[:, na * na:].reshape(-1, nb, nb)).tobytes()
        assert np.array_equal(a, a.conj().transpose(0, 2, 1))
        assert np.array_equal(b, b.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("na,nb", [(3, 2), (2, 5), (4, 4)])
    def test_coordinates_are_orthonormal(self, na, nb):
        normals = np.random.default_rng(11).standard_normal((37, na * na + nb * nb))
        for n, stack, coords in zip(
            (na, nb),
            lz.product_couplings(na, nb, 37, 11),
            (normals[:, : na * na], normals[:, na * na:]),
        ):
            basis = np.array([unit_factor(p, n) for p in range(n * n)])
            gram = np.einsum("pab,qba->pq", basis, basis)
            assert np.abs(gram - np.eye(n * n)).max() < 1e-15
            norms = np.linalg.norm(stack, axis=(1, 2)) ** 2
            np.testing.assert_allclose(norms, np.square(coords).sum(axis=1), rtol=1e-13, atol=0)
            traces = np.einsum("iab,pba->ip", stack, basis)
            assert np.abs(traces.imag).max() < 1e-15
            np.testing.assert_allclose(traces.real, coords, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("na,nb", [(3, 3), (4, 2)])
    def test_entry_law_is_gue(self, na, nb):
        # 20 000 draws: every mean and (co)variance of the real and imaginary
        # entry parts of both factors within five standard errors of (G + G^dag)/2's
        count = 20_000
        a, b = lz.product_couplings(na, nb, count, 23)
        a, b = a.reshape(count, -1), b.reshape(count, -1)
        x = np.concatenate([a.real, a.imag, b.real, b.imag], axis=1)
        sa, sb = gue_entry_covariance(na), gue_entry_covariance(nb)
        expected = np.block([
            [sa, np.zeros((len(sa), len(sb)))], [np.zeros((len(sb), len(sa))), sb]
        ])
        var = np.diag(expected)
        assert np.all(np.abs(x.mean(axis=0)) <= 5 * np.sqrt(var / count) + 1e-12)
        sample = np.cov(x, rowvar=False)
        stderr = np.sqrt((np.outer(var, var) + expected**2) / count)
        assert np.all(np.abs(sample - expected) <= 5 * stderr + 1e-12)

    def test_shorter_stack_is_a_prefix(self):
        a, b = lz.product_couplings(3, 2, 37, 11)
        short_a, short_b = lz.product_couplings(3, 2, 9, 11)
        assert np.array_equal(short_a, a[:9]) and np.array_equal(short_b, b[:9])

    @pytest.mark.parametrize("count", [0, True, 2.0])
    def test_rejects_invalid_count(self, count):
        with pytest.raises(ValueError, match="count"):
            lz.product_couplings(3, 2, count, 11)

    def test_rejects_invalid_seed_and_trivial_dimensions(self):
        with pytest.raises(ValueError, match="seed"):
            lz.product_couplings(3, 2, 4, -1)
        with pytest.raises(ValueError, match="coupling dimension must be an integer >= 2, got 1"):
            lz.product_couplings(1, 4, 4, 0)
        with pytest.raises(ValueError, match="coupling dimension must be an integer >= 2, got 2.5"):
            lz.product_couplings(2.5, 2, 4, 0)


class TestEntropyRate:
    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_checks_side_before_any_array_work(self, bell, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("array work before the side was checked")

        for name in ("_evolve", "_rate_commutator"):
            monkeypatch.setattr(dynamics, name, refuse)
        coupling = lz.random_coupling(2, 2, 0)
        with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'C'"):
            lz.entropy_rate(bell, coupling, "C", method=method)
        # the patched functions are the ones the method calls
        with pytest.raises(AssertionError, match="array work"):
            lz.entropy_rate(bell, coupling, "A", method=method)

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
        assert rate == pytest.approx(0.8932057885805395, rel=1e-9, abs=0)
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
                k = 1j * _rate_commutator(rho, rho._partial_trace(side), side)
                assert np.abs(k - kron_rate_operator(rho, side)).max() < 1e-14

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matches_the_rate_operator_route_bit_for_bit(self, side):
        # Im vdot(c, H) against Re vdot(i c, H): == and the sign bit, also
        # on the exactly zero rates of lazy states and local couplings
        rng = np.random.default_rng(44)
        states = [
            lz.random_density_matrix(3, 4, 5),
            lz.random_density_matrix(2, 6, 6),
            lz.DensityMatrix(3, 3, lz.random_density_matrix(3, 3, 9).data.real),
            lz.product_state(pure_density(rng, 3), random_marginal(rng, 4)),
            lz.werner(0.3),
            lz.maximally_entangled(3),
            lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.0), 8),
            lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), 8),
        ]
        for rho in states:
            na, nb = rho.dim_a, rho.dim_b
            couplings = [lz.random_coupling(na, nb, seed) for seed in range(4)]
            local = np.kron(np.diag(np.arange(na, dtype=float)), np.eye(nb))
            couplings.append(lz.Coupling(hamiltonian=local, seed=0))
            for coupling in couplings:
                got = lz.entropy_rate(rho, coupling, side)
                want = reference_entropy_rate(rho, coupling, side)
                assert got == want
                assert np.signbit(got) == np.signbit(want)

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

    @pytest.mark.parametrize(
        "h,message",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]),
             "hermiticity violation: max asymmetry 1.000e+00 at entry (0, 1) of the hamiltonian"),
            (np.full((2, 2), np.nan), "non-finite entry at (0, 0) of the hamiltonian"),
            ([["1", "0"], ["0", "1"]], "malformed hamiltonian: a string where a number belongs"),
        ],
        ids=["|0><1|", "nan", "strings"],
    )
    def test_checks_the_hamiltonian(self, h, message):
        # eigh reads one triangle: |0><1| would evolve under another matrix
        rho = lz.DensityMatrix(1, 2, np.eye(2) / 2.0)
        with pytest.raises(lz.InvalidStateError) as info:
            lz.evolve(rho, h, 0.1)
        assert str(info.value) == message

    def test_fd_rate_checks_its_coupling_once(self, witness, monkeypatch):
        coupling = lz.random_coupling(2, 2, 0)
        calls = []
        monkeypatch.setattr(dynamics, "_hamiltonian", lambda *args: calls.append(args))
        lz.entropy_rate(witness, coupling, "A", method="fd")
        assert calls == []

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "0.1", True])
    def test_rejects_a_time_that_is_not_a_finite_real(self, bell, t):
        h = lz.random_coupling(2, 2, 1).hamiltonian
        with pytest.raises(ValueError, match="t must be a finite real number"):
            lz.evolve(bell, h, t)


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
        rng = np.random.default_rng(21)
        pure_a = lz.product_state(pure_density(rng, 3), random_marginal(rng, 2))
        pure = lz.DensityMatrix(3, 2, pure_density(rng, 6))
        states = (
            lz.random_density_matrix(2, 3, 21),
            pure_a,
            pure,
            lz.random_density_matrix(2, 6, 22),
            lz.random_density_matrix(6, 2, 23),
            lz.random_density_matrix(16, 16, 24),
            lz.DensityMatrix(3, 3, lz.random_density_matrix(3, 3, 25).data.real),
            lz.DensityMatrix(4, 2, lz.random_density_matrix(4, 2, 26).data.real),
            lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), 8),
        )
        for rho in states:
            a, b = lz.product_couplings(rho.dim_a, rho.dim_b, 35, 4)
            for side in ("A", "B"):
                audit = lz.dynamics_audit(rho, side, trials=35, seed=4)
                assert len(audit.per_trial_rates) == audit.trials == 35
                direct = [
                    lz.entropy_rate(rho, lz.Coupling(hamiltonian=np.kron(ai, bi), seed=4), side)
                    for ai, bi in zip(a, b)
                ]
                assert_rates_close(audit.per_trial_rates, direct, audit.rate_bound, a, b)

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 4)])
    def test_rate_kernel_holds_the_rates_of_unit_draws(self, na, nb):
        # R[p, q] = tr(K (e_p (x) e_q)), e_p = herm((1+i) E_p), with K built
        # by kron: this pins the sign and the orientation of R
        rng = np.random.default_rng(na * 10 + nb)
        complex_state = lz.random_density_matrix(na, nb, int(rng.integers(2**32)))
        real = lz.DensityMatrix(na, nb, lz.random_density_matrix(na, nb, 3).data.real)
        for rho in (complex_state, real):
            for side in ("A", "B"):
                c = np.asarray(_rate_commutator(rho, rho._partial_trace(side), side), dtype=complex)
                kernel = dynamics._rate_kernel(c, na, nb)
                assert kernel.shape == (na * na, nb * nb) and kernel.dtype == float
                k = kron_rate_operator(rho, side)
                for p, q in ((0, 0), (1, 0), (0, nb * nb - 1), (na * na - 1, 1), (na + 1, nb)):
                    unit = np.kron(unit_factor(p, na), unit_factor(q, nb))
                    assert kernel[p, q] == pytest.approx(
                        np.trace(k @ unit).real, rel=0, abs=1e-15
                    )
                audit = lz.dynamics_audit(rho, side, trials=1, seed=0)
                assert np.linalg.norm(kernel) == pytest.approx(audit.rate_bound, rel=1e-14)

    def test_shorter_audit_is_a_prefix(self, witness):
        long = lz.dynamics_audit(witness, "A", trials=100, seed=5)
        short = lz.dynamics_audit(witness, "A", trials=37, seed=5)
        assert short.per_trial_rates == long.per_trial_rates[:37]

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 3)])
    def test_rate_bound_is_attained(self, na, nb):
        rho = lz.random_density_matrix(na, nb, 30 + na + nb)
        a, b = lz.product_couplings(na, nb, 20, 8)
        norms = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
        for side in ("A", "B"):
            audit = lz.dynamics_audit(rho, side, trials=20, seed=8)
            k = kron_rate_operator(rho, side)
            worst = lz.Coupling(hamiltonian=k / np.linalg.norm(k), seed=0)
            rate = lz.entropy_rate(rho, worst, side)
            assert rate == pytest.approx(audit.rate_bound, rel=1e-12, abs=0)
            assert np.all(np.abs(audit.per_trial_rates) <= audit.rate_bound * norms)

    def test_second_moment_is_the_squared_rate_bound(self):
        # product couplings keep the GUE entry covariance, so E[rate^2] =
        # ||K||_F^2 and NONLAZY_RATE_FLOOR compares with rate_bound as before
        rho = lz.random_density_matrix(3, 4, 40)
        for side in ("A", "B"):
            audit = lz.dynamics_audit(rho, side, trials=8000, seed=17)
            second_moment = np.mean(np.square(audit.per_trial_rates))
            assert second_moment == pytest.approx(audit.rate_bound**2, rel=0.1, abs=0)

    def test_rate_bound_vanishes_on_lazy_states(self, bell):
        rng = np.random.default_rng(13)
        pure_a = lz.product_state(pure_density(rng, 3), random_marginal(rng, 2))
        for rho in (bell, pure_a):
            for side in ("A", "B"):
                assert lz.dynamics_audit(rho, side, trials=4, seed=2).rate_bound < 1e-12

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_sector_state_matches_its_dense_copy(self, r, side):
        sector = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, r), 8)
        assert isinstance(sector, lz.SectorDensityMatrix)
        dense = lz.DensityMatrix(sector.dim_a, sector.dim_b, sector.data)
        got = lz.dynamics_audit(sector, side, trials=20, seed=3)
        want = lz.dynamics_audit(dense, side, trials=20, seed=3)
        assert got.consistent_with_laziness == want.consistent_with_laziness
        assert got.rate_bound == pytest.approx(want.rate_bound, rel=1e-12, abs=0)
        # the two routes sum the marginal in different orders, so the rates
        # may differ in their last digits (they do on side B)
        np.testing.assert_allclose(got.per_trial_rates, want.per_trial_rates, rtol=0, atol=1e-12)
        if r == 0.0:
            # without squeezing the witness is a product of thermal states
            assert got.rate_bound == 0.0
        else:
            assert got.rate_bound > 0.5

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

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"trials": 0}, "trials"),
            ({"trials": True}, "trials"),
            ({"trials": 2.5}, "trials"),
            ({"seed": -1}, "seed"),
            ({"seed": False}, "seed"),
            ({"seed": 1.0}, "seed"),
        ],
    )
    def test_rejects_invalid_trials_and_seed(self, bell, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            lz.dynamics_audit(bell, "A", **{"trials": 4, "seed": 0, **kwargs})

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_matches_the_dense_factor_reference(self, side):
        # the verdict, the trial count and rate_bound bit for bit; each rate
        # to the rounding of its k-term product
        rng = np.random.default_rng(31)
        real = lz.random_density_matrix(3, 3, 9).data.real
        states = {
            "complex": lz.random_density_matrix(3, 4, 5),
            "real": lz.DensityMatrix(3, 3, real),
            "pure_a": lz.product_state(pure_density(rng, 3), random_marginal(rng, 4)),
            "2x6": lz.random_density_matrix(2, 6, 3),
            "6x2": lz.random_density_matrix(6, 2, 4),
            "fock8": lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), 8),
            # exactly zero rates: the reference reads +0.0 there
            "werner": lz.werner(0.3),
        }
        for name, rho in states.items():
            for trials, seed in ((1, 0), (37, 5), (100, 11)):
                got = lz.dynamics_audit(rho, side, trials, seed)
                want = reference_dynamics_audit(rho, side, trials, seed)
                assert got.trials == want.trials == trials, name
                assert got.rate_bound == want.rate_bound, name
                assert got.consistent_with_laziness == want.consistent_with_laziness, name
                assert got.max_rate == max(abs(r) for r in got.per_trial_rates), name
                a, b = lz.product_couplings(rho.dim_a, rho.dim_b, trials, seed)
                assert_rates_close(got.per_trial_rates, want.per_trial_rates, want.rate_bound, a, b)
        werner = lz.dynamics_audit(states["werner"], side, 5, 0).per_trial_rates
        # +0.0, not -0.0: == does not tell them apart, signbit does
        assert set(werner) == {0.0} and not np.signbit(werner).any()

    def test_forms_the_dense_marginal_once(self, monkeypatch):
        calls = []
        original = lz.DensityMatrix._partial_trace

        def counted(rho, side):
            calls.append(side)
            return original(rho, side)

        monkeypatch.setattr(lz.DensityMatrix, "_partial_trace", counted)
        lz.dynamics_audit(lz.random_density_matrix(3, 4, 2), "B", trials=10, seed=1)
        assert calls == ["B"]

    def test_checks_side_before_drawing(self, bell, monkeypatch):
        def no_draw(*args):
            raise AssertionError("couplings drawn before the side was checked")

        monkeypatch.setattr(dynamics, "_coupling_rng", no_draw)
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            lz.dynamics_audit(bell, "C", trials=4, seed=0)
        # the patched generator is the one the audit draws from
        with pytest.raises(AssertionError, match="couplings drawn"):
            lz.dynamics_audit(bell, "A", trials=4, seed=0)

    def test_local_dimension_32_stays_small(self):
        # full GUE couplings traced 570 MB at this size; the audit forms no
        # factor, only the real 1024 x 1024 rate kernel R beside c (52 MB
        # traced peak)
        rho = lz.random_density_matrix(32, 32, 3)
        tracemalloc.start()
        try:
            audit = lz.dynamics_audit(rho, "A", trials=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.consistent_with_laziness and audit.max_rate > 1e-3
        assert peak < 100e6
