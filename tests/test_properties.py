"""Property tests of the paper's exact identities over wide random families.

Hypothesis runs derandomized so that the suite draws the same examples on
every run.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import lazystates as lz  # noqa: E402
from conftest import haar_unitary  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=40)

local_dims = st.tuples(st.integers(2, 8), st.integers(2, 8))
seeds = st.integers(0, 2**32 - 1)


def wishart_state(na, nb, rank, seed):
    """rho = G G^dag / tr(G G^dag) with G a (d x rank) complex Gaussian."""
    rng = np.random.default_rng(seed)
    d = na * nb
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return lz.DensityMatrix(na, nb, w / np.trace(w).real)


def lazy_classical_state(na, nb, seed):
    """Diagonal in a random product basis: lazy on both sides."""
    rng = np.random.default_rng(seed)
    p = rng.random(na * nb)
    u = np.kron(haar_unitary(na, rng), haar_unitary(nb, rng))
    data = (u * (p / p.sum())) @ u.conj().T
    return lz.DensityMatrix(na, nb, (data + data.conj().T) / 2.0)


@DETERMINISTIC
@given(dims=local_dims, rank_frac=st.floats(0.0, 1.0), seed=seeds)
def test_norm_identity_both_sides(dims, rank_frac, seed):
    na, nb = dims
    rank = 1 + int(rank_frac * (na * nb - 1))
    rho = wishart_state(na, nb, rank, seed)
    ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
    form = lz.decompose(rho, ba, bb)
    for side, basis in (("A", ba), ("B", bb)):
        direct = lz.commutator_residual(rho, side)
        g = lz.criterion_matrix(form, basis, side)
        via = lz.criterion_prefactor(na, nb, side) * np.linalg.norm(g)
        assert via == pytest.approx(direct, rel=1e-11, abs=1e-15)


@DETERMINISTIC
@given(
    dims=local_dims,
    family=st.sampled_from(["wishart", "classical"]),
    seed=seeds,
)
def test_local_unitary_invariance_of_both_verdicts(dims, family, seed):
    na, nb = dims
    if family == "wishart":
        rho = wishart_state(na, nb, na * nb, seed)
    else:
        rho = lazy_classical_state(na, nb, seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    u = np.kron(haar_unitary(na, rng), haar_unitary(nb, rng))
    rotated = lz.DensityMatrix(na, nb, u @ rho.data @ u.conj().T)
    for side in ("A", "B"):
        before = lz.is_lazy(rho, side)
        after = lz.is_lazy(rotated, side)
        assert after.is_lazy == before.is_lazy == (family == "classical")
        assert after.commutator_residual == pytest.approx(
            before.commutator_residual, rel=1e-10, abs=1e-13
        )


@DETERMINISTIC
@given(
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    rank_frac=st.floats(0.0, 1.0),
    scale=st.floats(-3.0, 3.0),
    seed=seeds,
)
def test_audit_rates_are_the_linear_form_on_the_coupling_stack(dims, rank_frac, scale, seed):
    na, nb = dims
    rank = 1 + int(rank_frac * (na * nb - 1))
    rho = wishart_state(na, nb, rank, seed)
    trials = 20
    stack = lz.random_couplings(na, nb, trials, seed)
    for side in ("A", "B"):
        audit = lz.dynamics_audit(rho, side, trials=trials, seed=seed)

        def rate(h):
            return lz.entropy_rate(rho, lz.Coupling(hamiltonian=h, seed=seed), side)

        direct = [rate(h) for h in stack]
        np.testing.assert_allclose(audit.per_trial_rates, direct, rtol=0, atol=1e-14)
        norms = np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(audit.per_trial_rates) <= audit.rate_bound * norms)
        mixed = rate(stack[0] + scale * stack[1])
        assert abs(mixed - direct[0] - scale * direct[1]) < 1e-12
