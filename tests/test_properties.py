"""Property tests of the paper's exact identities over wide random families.

Hypothesis runs derandomized so that the suite draws the same examples on
every run.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


def real_wishart_state(na, nb, rank, seed):
    """rho = G G^T / tr(G G^T) with G a (d x rank) real Gaussian."""
    g = np.random.default_rng(seed).standard_normal((na * nb, rank))
    w = g @ g.T
    return lz.DensityMatrix(na, nb, w / np.trace(w))


def assert_rel_close(actual, expected, rel=1e-13):
    """Frobenius-relative agreement, with no absolute slack."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


@DETERMINISTIC
@given(dims=local_dims, rank_frac=st.floats(0.0, 1.0), seed=seeds)
def test_real_states_agree_with_their_complex_cast(dims, rank_frac, seed):
    na, nb = dims
    rank = 1 + int(rank_frac * (na * nb - 1))
    real = real_wishart_state(na, nb, rank, seed)
    cast = lz.DensityMatrix(na, nb, real.data.astype(complex))
    assert real.data.dtype == np.float64 and cast.data.dtype == np.complex128
    ba, bb = lz.build_su_basis(na), lz.build_su_basis(nb)
    form_real, form_cast = lz.decompose(real, ba, bb), lz.decompose(cast, ba, bb)
    for name in ("x", "y", "T"):
        assert_rel_close(getattr(form_real, name), getattr(form_cast, name))
    for side, basis in (("A", ba), ("B", bb)):
        direct = lz.commutator_residual(real, side)
        assert direct == pytest.approx(lz.commutator_residual(cast, side), rel=1e-13, abs=0)
        report_real = lz.is_lazy(real, side, basis_a=ba, basis_b=bb)
        report_cast = lz.is_lazy(cast, side, basis_a=ba, basis_b=bb)
        assert report_real.is_lazy == report_cast.is_lazy
        assert report_real.commutator_residual == direct
        via = lz.criterion_prefactor(na, nb, side) * np.linalg.norm(
            lz.criterion_matrix(form_real, basis, side)
        )
        assert via == pytest.approx(direct, rel=1e-11, abs=0)
        assert via == pytest.approx(
            lz.criterion_prefactor(na, nb, side)
            * np.linalg.norm(lz.criterion_matrix(form_cast, basis, side)),
            rel=1e-13,
            abs=0,
        )


def local_symplectic(rng):
    """S_1 (+) S_2 with each S_i = R(a) diag(e^s, e^-s) R(b) in SL(2, R)."""

    def sl2():
        a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        s = rng.uniform(-1.0, 1.0)
        rot = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in (a, b)]
        return rot[0] @ np.diag([np.exp(s), np.exp(-s)]) @ rot[1]

    out = np.zeros((4, 4))
    out[:2, :2] = sl2()
    out[2:, 2:] = sl2()
    return out


@DETERMINISTIC
@given(family=st.sampled_from(["product", "squeezed_thermal", "general"]), seed=seeds)
def test_local_symplectic_invariance_of_the_gaussian_verdict(family, seed):
    rng = np.random.default_rng(seed)
    if family == "product":
        n, m = rng.uniform(1.0, 4.0, size=2)
        form = lz.GaussianStandardForm(n, m, 0.0, 0.0)
    else:
        form = lz.random_standard_form(rng, family)
    canonical = lz.standard_form_from_covariance(lz.CovarianceState(form.matrix()))
    s = local_symplectic(rng)
    moved = lz.standard_form_from_covariance(lz.CovarianceState(s @ form.matrix() @ s.T))
    for name in ("n", "m", "c", "c_prime"):
        assert getattr(moved, name) == pytest.approx(getattr(canonical, name), abs=1e-9)
    assert lz.is_lazy_gaussian(moved) == lz.is_lazy_gaussian(form) == (family == "product")


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def reversed_keys(doc):
    """The same document with every object's keys inserted in reverse order."""
    if isinstance(doc, dict):
        return {key: reversed_keys(doc[key]) for key in reversed(list(doc))}
    if isinstance(doc, list):
        return [reversed_keys(item) for item in doc]
    return doc


@DETERMINISTIC
@given(doc=json_documents)
@example(doc={"x": [-0.0, 0.0, -1.5, 1e300]})
def test_canonical_json_round_trip_and_byte_determinism(doc):
    text = lz.canonical_json(doc)
    assert json.loads(text) == doc
    assert lz.canonical_json(reversed_keys(doc)) == text
    # the text is a fixed point: parsed and re-serialized, it keeps its bytes
    assert lz.canonical_json(json.loads(text)) == text
