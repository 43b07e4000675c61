"""Property tests of the paper's exact identities over wide random families.

Hypothesis runs derandomized so that the suite draws the same examples on
every run.
"""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import lazystates as lz  # noqa: E402
from conftest import (  # noqa: E402
    haar_unitary,
    lazy_state,
    locally_rotated,
    reference_canonical_json,
)
from scipy.stats import unitary_group  # noqa: E402

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
@example(dims=(16, 16), rank_frac=1.0, scale=0.5, seed=0)
@example(dims=(16, 16), rank_frac=0.01, scale=-2.0, seed=1)
def test_audit_rates_are_the_linear_form_on_the_coupling_stack(dims, rank_frac, scale, seed):
    na, nb = dims
    rank = 1 + int(rank_frac * (na * nb - 1))
    rho = wishart_state(na, nb, rank, seed)
    trials = 20
    a, b = lz.product_couplings(na, nb, trials, seed)
    stack = [np.kron(ai, bi) for ai, bi in zip(a, b)]
    for side in ("A", "B"):
        audit = lz.dynamics_audit(rho, side, trials=trials, seed=seed)

        def rate(h):
            return lz.entropy_rate(rho, lz.Coupling(hamiltonian=h, seed=seed), side)

        direct = [rate(h) for h in stack]
        np.testing.assert_allclose(audit.per_trial_rates, direct, rtol=0, atol=1e-14)
        np.testing.assert_allclose(audit.per_trial_rates[:5], direct[:5], rtol=1e-12, atol=0)
        norms = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
        assert np.all(np.abs(audit.per_trial_rates) <= audit.rate_bound * norms)
        mixed = rate(stack[0] + scale * stack[1])
        assert abs(mixed - direct[0] - scale * direct[1]) < 1e-12


@settings(DETERMINISTIC, max_examples=12)
@given(
    dims=st.sampled_from([(16, 16), (64, 4), (4, 64)]),
    family=st.sampled_from(["random", "lazy A", "lazy B"]),
    seed=seeds,
)
@example(dims=(32, 32), family="random", seed=0)
@example(dims=(32, 32), family="lazy B", seed=1)
@example(dims=(16, 16), family="rank 1", seed=2)
@example(dims=(16, 16), family="rank 3", seed=3)
@example(dims=(64, 4), family="rank 1", seed=4)
@example(dims=(64, 4), family="rank 3", seed=5)
@example(dims=(16, 16), family="product", seed=6)
@example(dims=(64, 4), family="product", seed=7)
def test_identities_at_local_dimension_16_to_64(dims, family, seed):
    # the norm identity at acceptance 03's tolerance, local-unitary
    # invariance of the residual and the verdict, the lazy family lazy on
    # its side alone, and a product state lazy on both sides, its residual
    # below DEFAULT_TOL
    na, nb = dims
    rng = np.random.default_rng(seed)
    if family == "random":
        rho = lz.random_density_matrix(na, nb, seed)
    elif family.startswith("rank"):
        rho = wishart_state(na, nb, int(family[-1]), seed)
    elif family == "product":
        marginals = (wishart_state(n, 1, n, seed + k).data for k, n in enumerate(dims))
        rho = lz.DensityMatrix(na, nb, np.kron(*marginals))
    else:
        rho = lazy_state(na, nb, family[-1], rng)
    ua, ub = unitary_group.rvs(na, random_state=rng), unitary_group.rvs(nb, random_state=rng)
    rotated = lz.DensityMatrix(na, nb, locally_rotated(rho.data, ua, ub))
    for side, n in (("A", na), ("B", nb)):
        report = lz.is_lazy(rho, side)
        assert report.is_lazy == (family in (f"lazy {side}", "product"))
        g = lz.criterion_matrix(rho.bloch_form, lz.build_su_basis(n), side)
        via = lz.criterion_prefactor(na, nb, side) * np.linalg.norm(g)
        assert via == pytest.approx(report.commutator_residual, rel=1e-11, abs=1e-15)
        after = lz.is_lazy(rotated, side)
        assert after.is_lazy == report.is_lazy
        assert after.commutator_residual == pytest.approx(
            report.commutator_residual, rel=1e-10, abs=1e-13
        )


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
@example(dims=(16, 16), rank_frac=0.2, seed=0)
@example(dims=(4, 64), rank_frac=1.0, seed=1)
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
        report_real = lz.is_lazy(real, side)
        report_cast = lz.is_lazy(cast, side)
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


#: floats whose formatting is easy to get wrong: signed zeros, subnormals,
#: the ends of the float range, 0.1 and integral values (which print bare)
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300,
     1.7976931348623157e308, 0.1, 1.0, -3.0, 2.0**53, 1e16, 1e-5]
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
non_finite_floats = st.sampled_from([math.nan, math.inf, -math.inf])
#: ints that a float list must keep as ints, some beyond 2**53
wide_ints = st.integers(-(2**64), 2**64) | st.sampled_from([2**53 + 1, -(2**60) - 1])


@st.composite
def float_nestings(draw):
    """The list/tuple form of a float array, at times with one non-finite leaf."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    leaves = draw(st.lists(finite_floats, min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        leaves[draw(st.integers(0, size - 1))] = draw(non_finite_floats)
    for width in reversed(shape):
        leaves = [
            draw(st.sampled_from([list, tuple]))(leaves[pos : pos + width])
            for pos in range(0, len(leaves), width)
        ]
    return leaves[0]


#: lists of floats mixed with other leaves, and ragged lists of floats
mixed_lists = st.lists(
    st.one_of(finite_floats, wide_ints, st.booleans(), st.none(), st.lists(finite_floats, max_size=3)),
    max_size=6,
)
ragged_lists = st.lists(st.lists(finite_floats, min_size=1, max_size=3), min_size=2, max_size=4)

#: views that keep the values but change the memory layout
layouts = st.sampled_from(
    [
        lambda a: a,
        np.asfortranarray,
        lambda a: a.T,
        lambda a: a[::-1] if a.ndim else a,
        lambda a: np.repeat(a, 2, axis=-1)[..., ::2] if a.ndim else a,
    ]
)
arrays = st.builds(
    lambda a, layout: layout(a),
    # every element drawn on its own, so a layout change shows in the bytes
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_, np.complex128]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        fill=st.nothing(),
    ),
    layouts,
)
numpy_scalars = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
)
writer_leaves = st.one_of(
    st.none(),
    st.booleans(),
    wide_ints,
    finite_floats,
    non_finite_floats,
    st.text(max_size=3),
    float_nestings(),
    mixed_lists,
    ragged_lists,
    arrays,
    numpy_scalars,
)
writer_documents = st.recursive(
    writer_leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=12,
)


def written(writer, doc):
    """The text `writer` makes of `doc`, or its exception's type and message."""
    try:
        return writer(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(DETERMINISTIC, max_examples=600)
@given(doc=writer_documents)
@example(doc={"b": [[1.0, -0.0], [2.5, 1e300]], "a": (0.5, [1, 2.0])})
@example(doc=[[0.5, 1.0], [2.0, math.nan], [math.inf, 0.0]])
@example(doc=np.array([[0.25, 1.0], [-np.inf, np.nan]], dtype=np.float32))
@example(doc=[0.5, 2**53 + 1, True, None])
@example(doc={"z": 1.0, 2: 0.5})
@example(doc={1: 0.5})
@example(doc=[np.float64(0.5), 1j])
@example(doc=[[0.5, 1.0], [2.0]])
@example(doc=np.asfortranarray(np.arange(6.0).reshape(2, 3) / 7.0))
@example(doc=np.zeros((2, 0, 3)))
@example(doc=np.array(-0.0))
@example(doc=np.array([0.1, -0.0], dtype=np.float16))
@example(doc=np.array([0.5, 1.5], dtype=np.longdouble))
@example(doc=np.ma.masked_array([0.5, 1.5], mask=[False, True]))
def test_canonical_json_matches_the_element_by_element_writer(doc):
    assert written(lz.canonical_json, doc) == written(reference_canonical_json, doc)
