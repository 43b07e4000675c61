import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import lazystates as lz
from conftest import (
    FOCK_ORACLE_PAD,
    NEAR_PURE_FORM,
    dense_fock_reference,
    exp_everywhere_stacks,
    fock_stacks,
    fock_state,
    kron_commutator_residual,
    mp_fock_sector,
    naive_partial_trace,
    products,
)

GAP_23 = 2.0 * (1.0 + 3.0) * (2.0 + 2.0)  # kernel determinant gap at n=2, m=3

#: the symplectic form in (Im l1, Re l1, Im l2, Re l2) ordering
SYMPLECTIC_FORM = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def rot(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rotation_pair(theta1, theta2):
    """Local per-mode rotations, symplectic in the paired ordering."""
    out = np.zeros((4, 4))
    out[:2, :2] = rot(theta1)
    out[2:, 2:] = rot(theta2)
    return out


def local_symplectic_scramble(rng, m, max_squeeze):
    """S M S^T under independent random local rotations and squeezers."""
    s = np.zeros((4, 4))
    for i in (0, 2):
        k = rng.uniform(-max_squeeze, max_squeeze)
        s[i:i + 2, i:i + 2] = (
            rot(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(k), np.exp(-k)])
            @ rot(rng.uniform(0, 2 * np.pi))
        )
    v = s @ m @ s.T
    return (v + v.T) / 2.0


REDUCTION_FAMILIES = ("workload", "squeezed", "near_pure", "large_m")


def mp_standard_form(v, dps=40):
    """(n, m, c, c') of the float matrix V from its local invariants, in mpmath.

    n = sqrt(det A), m = sqrt(det B), c c' = det C and c^2 + c'^2 =
    n m tr(A^-1 C B^-1 C^T), with c >= |c'|, c >= 0.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        v = mp.matrix(v.tolist())
        a, b, c = v[0:2, 0:2], v[2:4, 2:4], v[0:2, 2:4]
        n, m = mp.sqrt(mp.det(a)), mp.sqrt(mp.det(b))
        product = mp.det(c)
        t = a**-1 * c * b**-1 * c.T
        total = n * m * (t[0, 0] + t[1, 1])
        gap = mp.sqrt(max(total * total - 4 * product * product, 0))
        big = mp.sqrt((total + gap) / 2)
        small = mp.sqrt(max((total - gap) / 2, 0))
        return [float(x) for x in (n, m, big, mp.sign(product) * small)]


def mp_symplectic_eigenvalues(n, m, c, cp, dps=50):
    """(nu_minus, nu_plus) of the float form (n, m, c, c'), in mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        n, m, c, cp = (mp.mpf(x) for x in (n, m, c, cp))
        delta = n * n + m * m + 2 * c * cp
        root = mp.sqrt(delta * delta - 4 * (n * m - c * c) * (n * m - cp * cp))
        return float(mp.sqrt((delta - root) / 2)), float(mp.sqrt((delta + root) / 2))


def mp_simon_criterion(n, m, c, cp, dps=50):
    """M + i Omega > 0 by Sylvester's leading principal minors, in mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        h = mp.matrix([[n, 1j, c, 0], [-1j, n, 0, cp], [c, 0, m, 1j], [0, cp, -1j, m]])
        return all(mp.re(mp.det(h[:k, :k])) > 0 for k in range(1, 5))


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
        # M > 0 and the true nu_minus <= n = 0.5, but m^2 swamps n^2 in Delta
        # and the computed nu_minus rounds to exactly 1
        with pytest.raises(lz.UnphysicalFormError, match="local variances must be >= 1"):
            lz.GaussianStandardForm(0.5, 1e8, 1.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite standard-form parameter n"):
            lz.GaussianStandardForm(np.nan, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="non-finite standard-form parameter c_prime"):
            lz.GaussianStandardForm(2.0, 2.0, 0.5, -np.inf)
        # several non-finite parameters: the first in field order is named
        with pytest.raises(ValueError, match=r"parameter m = inf$"):
            lz.GaussianStandardForm(2.0, np.inf, np.nan, -np.inf)

    @pytest.mark.parametrize(
        "params",
        [(2.95, 2.28e95, 0.93, 3.4e16), (1e80, 4.34, 4.34, -2.62),
         (1e200, 1e200, 0.0, 0.0), (3e154, 2.0, 1.0, 0.5)],
    )
    def test_rejects_variances_beyond_the_float_range(self, params):
        # the fourth powers of these variances overflow: into an
        # OverflowError from `** 2`, or into nu_minus = nan
        with pytest.raises(ValueError, match=r"^local variances must be <= 1e\+76, got n=") as info:
            lz.GaussianStandardForm(*params)
        assert not isinstance(info.value, lz.UnphysicalFormError)

    @pytest.mark.parametrize(
        "params",
        [(1e76, 1e76, 0.0, 0.0), (1e76, 1.0, 0.5, -0.5), (2.0, 1e76, 1e37, -1e37),
         (1e76, 1e76, 0.9e76, 0.9e76), (1e76, 1e76, 0.999e76, -0.999e76)],
    )
    def test_variances_at_the_bound_keep_finite_eigenvalues(self, params):
        n, m, c, cp = params
        form = lz.GaussianStandardForm(*params)
        lo, hi = form.nu_minus, form.nu_plus
        assert 1.0 <= lo <= hi < math.inf
        # nu_-^2 nu_+^2 = det M and nu_-^2 + nu_+^2 = Delta
        assert (lo * hi) ** 2 == pytest.approx((n * m - c * c) * (n * m - cp * cp), rel=1e-12)
        assert lo * lo + hi * hi == pytest.approx(n * n + m * m + 2 * c * cp, rel=1e-12)

    def test_keeps_converted_parameters_and_eigenvalues(self):
        form = lz.GaussianStandardForm(np.float32(2.0), 3, np.float16(0.5), np.float64(-0.2))
        params = (form.n, form.m, form.c, form.c_prime, form.nu_minus, form.nu_plus)
        assert all(type(value) is float for value in params)
        assert (form.n, form.m, form.c, form.c_prime) == (2.0, 3.0, 0.5, -0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            form.n = 1.0


class TestUncertainty:
    def test_vacuum_is_boundary(self):
        form = lz.GaussianStandardForm(1.0, 1.0, 0.0, 0.0)
        assert form.nu_minus == pytest.approx(1.0, abs=1e-15)
        assert form.nu_plus == pytest.approx(1.0, abs=1e-15)

    def test_thermal_product(self):
        form = lz.GaussianStandardForm(3.0, 2.0, 0.0, 0.0)
        assert form.nu_minus == pytest.approx(2.0, abs=1e-12)
        assert form.nu_plus == pytest.approx(3.0, abs=1e-12)

    def test_overcorrelated_form_unphysical(self):
        # Delta = 2.5, det M = 0.5625, so nu_minus = 0.5 exactly
        with pytest.raises(lz.UnphysicalFormError, match=r"nu_minus = 0\.5$"):
            lz.GaussianStandardForm(1.0, 1.0, 0.5, 0.5)

    def test_complex_spectrum_rejected(self):
        # Delta^2 < 4 det M here; such a form is never positive definite
        with pytest.raises(lz.UnphysicalFormError, match="positive definite"):
            lz.GaussianStandardForm(1.0, 2.0, 2.0, -2.0)

    def test_non_positive_definite_form_rejected(self):
        # M has eigenvalues -2, -2, 4, 4 but nu = 2, 4 pass nu_minus >= 1
        with pytest.raises(lz.UnphysicalFormError, match="positive definite"):
            lz.GaussianStandardForm(1.0, 1.0, 3.0, 3.0)

    def test_constructor_matches_simon_criterion(self):
        # physical iff M + i Omega >= 0 (Simon, PRL 84, 2726 (2000)), with
        # the symplectic eigenvalues the moduli of the eigenvalues of Omega M
        rng = np.random.default_rng(2000)
        accepted = rejected = 0
        saw_signs = set()
        for _ in range(3000):
            n, m = rng.uniform(0.5, 5.0, size=2)
            c, cp = rng.uniform(-5.0, 5.0, size=2)
            v = np.array([[n, 0, c, 0], [0, n, 0, cp], [c, 0, m, 0], [0, cp, 0, m]])
            lowest = np.linalg.eigvalsh(v + 1j * SYMPLECTIC_FORM).min()
            if abs(lowest) < 1e-7:
                continue
            try:
                form = lz.GaussianStandardForm(n, m, c, cp)
            except lz.UnphysicalFormError:
                assert lowest < 0.0, (n, m, c, cp)
                rejected += 1
                continue
            assert lowest > 0.0, (n, m, c, cp)
            accepted += 1
            saw_signs.add(np.sign(c * cp))
            nu = np.sort(np.abs(np.linalg.eigvals(SYMPLECTIC_FORM @ v)))
            assert form.nu_minus == pytest.approx(nu[0], rel=1e-12, abs=0)
            assert form.nu_plus == pytest.approx(nu[-1], rel=1e-12, abs=0)
        assert accepted > 300 and rejected > 300
        assert saw_signs == {-1.0, 1.0}

    def test_constructor_matches_simon_criterion_at_large_m(self):
        # once m^2 dominates Delta, Delta - root cancels: this family made
        # 611 of about 20,000 wrong decisions with nu_minus^2 = (Delta - root)/2.
        # At m up to 1e9 float eigensolvers are off by ~1e-7, so both
        # oracles run in 50-digit mpmath on the float inputs
        rng = np.random.default_rng(2001)
        accepted = rejected = 0
        for _ in range(2000):
            n = 1.0 + rng.uniform() * 10.0 ** rng.uniform(-3.0, 0.0)
            m = 10.0 ** rng.uniform(2.0, 9.0)
            c, cp = rng.uniform(-1.0, 1.0, size=2) * np.sqrt(n * m)
            if not (n * m > c * c and n * m > cp * cp):
                continue
            nu_minus, nu_plus = mp_symplectic_eigenvalues(n, m, c, cp)
            if abs(nu_minus - 1.0) < 1e-8:
                continue
            physical = mp_simon_criterion(n, m, c, cp)
            try:
                form = lz.GaussianStandardForm(n, m, c, cp)
            except lz.UnphysicalFormError:
                assert not physical, (n, m, c, cp)
                rejected += 1
                continue
            assert physical, (n, m, c, cp)
            accepted += 1
            assert form.nu_minus == pytest.approx(nu_minus, rel=1e-12, abs=0)
            assert form.nu_plus == pytest.approx(nu_plus, rel=1e-12, abs=0)
        assert accepted > 100 and rejected > 1000


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

    def test_scrambled_two_mode_squeezed_vacua_stay_physical(self):
        # a pure state has nu_minus = 1 exactly, on the physicality boundary,
        # where nu_minus has a square-root singularity in the parameters;
        # r stops short of the regime where rounding the inputs alone moves
        # nu_minus by more than PHYSICALITY_TOL
        rng = np.random.default_rng(29)
        for r in np.linspace(0.01, 3.5, 400):
            ch, sh = np.cosh(r), np.sinh(r)
            sq = np.block(
                [[ch * np.eye(2), sh * np.diag([1.0, -1.0])],
                 [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]]
            )
            v = local_symplectic_scramble(rng, sq @ sq.T, 0.6)
            out = lz.standard_form_from_covariance(lz.CovarianceState(v))
            assert abs(out.nu_minus - 1.0) <= lz.gaussian.PHYSICALITY_TOL
            assert out.c == pytest.approx(np.sinh(2 * r), rel=1e-9, abs=0)
            assert out.c_prime == pytest.approx(-np.sinh(2 * r), rel=1e-9, abs=0)

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

    @pytest.mark.parametrize(
        "diagonal, label",
        [([-2.0, -2.0, -2.0, -2.0], "A"), ([2.0, 2.0, -2.0, -2.0], "B")],
        ids=["both", "B-only"],
    )
    def test_rejects_negative_definite_block(self, diagonal, label):
        # det A = det B = 4 pass the vacuum check; only the sign of the
        # block's trace tells a negative definite block apart
        with pytest.raises(
            lz.UnphysicalFormError,
            match=f"covariance block {label} is not positive definite",
        ):
            lz.standard_form_from_covariance(lz.CovarianceState(np.diag(diagonal)))

    @pytest.mark.parametrize("family", REDUCTION_FAMILIES)
    def test_matches_mpmath_invariants(self, family):
        # the closed-form reduction against the invariants of the float V:
        # the benchmark's forms and squeezers, local squeezing up to |s| = 3,
        # thermal parameters within 1e-9 of vacuum, and m up to 1e4
        rng = np.random.default_rng(REDUCTION_FAMILIES.index(family))
        max_squeeze = 3.0 if family == "squeezed" else 0.6
        for _ in range(100):
            if family == "near_pure":
                a, b = 1.0 + 10.0 ** rng.uniform(-9.0, 0.0, size=2)
                form = lz.squeezed_thermal_form(a, b, rng.uniform(0.0, 2.0))
            elif family == "large_m":
                while True:
                    n, m = rng.uniform(1.0, 4.0), 10.0 ** rng.uniform(0.0, 4.0)
                    c, cp = rng.uniform(-1.0, 1.0, size=2) * np.sqrt(n * m)
                    try:
                        form = lz.GaussianStandardForm(n, m, c, cp)
                        break
                    except lz.UnphysicalFormError:
                        continue
            else:
                form = lz.random_standard_form(rng)
            v = local_symplectic_scramble(rng, form.matrix(), max_squeeze)
            reference = mp_standard_form(v)
            out = lz.standard_form_from_covariance(lz.CovarianceState(v))
            got = (out.n, out.m, out.c, out.c_prime)
            scale = max(abs(x) for x in reference)
            assert max(abs(g - r) for g, r in zip(got, reference)) <= 1e-11 * scale, (
                got, reference)

    def test_rejects_asymmetric_covariance(self):
        v = np.eye(4)
        v[0, 1] = 1e-3
        with pytest.raises(
            lz.InvalidStateError,
            match=r"hermiticity violation: max asymmetry 1\.000e-03 at entry \(0, 1\) "
            r"of covariance matrix V",
        ):
            lz.CovarianceState(v)

    @pytest.mark.parametrize(
        "v,d,message",
        [
            ([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], None,
             r"boolean true at \$\.V\[0\]\[0\]"),
            (np.eye(4, dtype=bool), None, r"boolean true at \$\.V\[0\]\[0\]"),
            ((np.eye(4)[0], np.eye(4)[1], (0, 0, False, 0), np.eye(4)[3]), None,
             r"boolean false at \$\.V\[2\]\[2\]"),
            (np.eye(4), [0.0, np.True_, 0.0, 0.0], r"boolean true at \$\.d\[1\]"),
            (np.eye(4), [0.0, 0.0, None, 0.0], r"null at \$\.d\[2\]"),
        ],
        ids=["list", "bool array", "tuple", "numpy bool in d", "null in d"],
    )
    def test_rejects_booleans_and_nulls_by_position(self, v, d, message):
        with pytest.raises(lz.InvalidStateError, match=f"^{message}$"):
            lz.CovarianceState(v, d)

    def test_rejects_non_finite_covariance(self):
        v = np.eye(4)
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite entry at \(0, 0\) of covariance matrix V"):
            lz.CovarianceState(v)
        v = np.eye(4)
        v[1, 2] = v[2, 1] = np.inf
        with pytest.raises(ValueError, match=r"at \(1, 2\) of covariance matrix V"):
            lz.CovarianceState(v)
        with pytest.raises(ValueError, match=r"displacement d at \(3,\)"):
            lz.CovarianceState(np.eye(4), d=[0.0, 0.0, 0.0, np.nan])

    @pytest.mark.parametrize(
        "diagonal,off,message",
        [((1e160, 1e160, 2.0, 2.0), 0.0, "det A = inf, det B = 4"),
         ((2.0, 2.0, 1e160, 1e160), 0.0, "det A = 4, det B = inf"),
         ((1e160, 1e160, 2.0, 2.0), 1e160, "det A = nan, det B = 4")],
        ids=["block A", "block B", "inf - inf"],
    )
    def test_a_local_determinant_beyond_the_float_range_is_named(self, diagonal, off, message):
        # finite entries whose products overflow would whiten to NaN and be
        # named as the parameter n = inf or m = inf; inf - inf slips past
        # the vacuum check
        v = np.diag(diagonal)
        v[0, 1] = v[1, 0] = off
        with pytest.raises(ValueError) as info:
            lz.standard_form_from_covariance(lz.CovarianceState(v))
        assert str(info.value) == (
            f"local determinant beyond the float range: {message}; "
            "local variances must be <= 1e+76"
        )


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


class TestSharedKernels:
    """Every kernel identity checked on one form reads one cached pair and inverse."""

    def test_pair_is_cached_and_read_only(self):
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        pair = lz.commutator_kernels(form)
        assert lz.commutator_kernels(form) is pair
        for kernel in (pair.plus, pair.minus):
            with pytest.raises(ValueError, match="read-only"):
                kernel[0, 0] = 0.0
        twin = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        assert lz.commutator_kernels(twin) is not pair
        assert np.array_equal(lz.commutator_kernels(twin).plus, pair.plus)

    def test_kernels_match_the_nested_list_construction(self):
        # `plus` is a copy of a fixed template with the form's 8 entries set;
        # the reference parses the whole matrix from a nested list
        rng = np.random.default_rng(61)
        for _ in range(200):
            form = lz.random_standard_form(rng)
            n, m, c, cp = form.n, form.m, form.c, form.c_prime
            two_i = 2.0j
            plus = np.array(
                [
                    [2 * n + 1, 0, c, 0, 1, two_i],
                    [0, 2 * n + 1, 0, cp, -two_i, 1],
                    [c, 0, m + 1, 0, 0, 0],
                    [0, cp, 0, m + 1, 0, 0],
                    [1, -two_i, 0, 0, 1, 0],
                    [two_i, 1, 0, 0, 0, 1],
                ],
                dtype=complex,
            )
            pair = lz.commutator_kernels(form)
            assert pair.plus.dtype == pair.minus.dtype == np.complex128
            assert pair.plus.tobytes() == plus.tobytes()
            assert pair.minus.tobytes() == plus.conj().tobytes()

    def test_probes_share_one_inverse(self, monkeypatch):
        calls = []
        original = np.linalg.inv

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "inv", counting)
        form = lz.GaussianStandardForm(2.0, 3.0, 1.0, -1.0)
        rng = np.random.default_rng(59)
        for _ in range(4):
            u = complex(rng.standard_normal(), rng.standard_normal())
            v = complex(rng.standard_normal(), rng.standard_normal())
            numeric = lz.kernel_quadratic_difference(form, u, v)
            # the dense path still agrees with a fresh solve
            b = np.array([u.imag, u.real, v.imag, v.real, u.imag, u.real])
            solved = b @ np.linalg.solve(lz.commutator_kernels(form).plus, b)
            assert numeric == pytest.approx(2j * solved.imag, abs=1e-14)
        assert len(calls) == 1
        assert calls[0] is lz.commutator_kernels(form).plus


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
        # the constructor raises, so no unphysical form reaches the decision
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

    def test_vacuum_roundtrip_rebuilds(self):
        # recovered vacuum parameters can land a rounding error below 1
        # (a = 0.9999999999999432 at r = 1.995); they must still rebuild
        for r in np.linspace(0.01, 2.0, 400):
            form = lz.squeezed_thermal_form(1.0, 1.0, r)
            rebuilt = lz.squeezed_thermal_form(*lz.squeezed_thermal_parameters(form))
            assert rebuilt.c == pytest.approx(form.c, rel=1e-12, abs=0)

    def test_thermal_parameters_below_tolerance_rejected(self):
        with pytest.raises(ValueError, match="thermal parameters must be >= 1"):
            lz.squeezed_thermal_form(1.0 - 1e-8, 1.0, 0.3)

    def test_zero_squeezing(self):
        a, b, r = lz.squeezed_thermal_parameters(lz.GaussianStandardForm(2.0, 3.0, 0.0, 0.0))
        assert (a, b, r) == (2.0, 3.0, 0.0)

    def test_outside_family_rejected(self):
        with pytest.raises(ValueError, match="squeezed-thermal"):
            lz.squeezed_thermal_parameters(lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.4))

    def test_near_pure_form_gets_its_parameters(self):
        # the form is physical by construction; its exact nu_minus = b lies
        # 9.5e-10 below 1, and b's own rounding error (9.5e-11) leaves it
        # just past 1 - PHYSICALITY_TOL, where nothing re-checks it
        form = lz.GaussianStandardForm(*NEAR_PURE_FORM)
        assert form.nu_minus > 1.0
        a, b, r = lz.squeezed_thermal_parameters(form)
        # the thermal parameters are the symplectic eigenvalues
        assert a == pytest.approx(form.nu_plus, rel=0, abs=1e-6)
        assert b == pytest.approx(form.nu_minus, rel=0, abs=1e-6)
        assert r == pytest.approx(3.9884094, rel=0, abs=1e-6)

    def test_near_pure_parameters_match_mpmath(self):
        # (root +- (n - m)) / 2 keeps b to 9.5e-11 of the exact nu_minus,
        # 0.999999999054612; the form's own nu_minus, 1.0000000375, is the
        # value that is off, by 3.8e-8
        nu_minus, nu_plus = mp_symplectic_eigenvalues(*NEAR_PURE_FORM)
        a, b, _ = lz.squeezed_thermal_parameters(lz.GaussianStandardForm(*NEAR_PURE_FORM))
        assert a == pytest.approx(nu_plus, rel=0, abs=2e-10)
        assert b == pytest.approx(nu_minus, rel=0, abs=2e-10)

    def test_every_accepted_near_pure_form_gets_its_parameters(self):
        # one thermal parameter at or just above vacuum, the other within
        # a factor 11 of it, r up to 5; near r = 4-5 rounding alone moves
        # nu_minus by ~1e-9, so some forms are rejected and the rest must
        # all come back
        rng = np.random.default_rng(2024)
        accepted_above_4 = 0
        for _ in range(5000):
            low = 1.0 if rng.random() < 0.5 else 1.0 + 10.0 ** rng.uniform(-12, 0)
            high = 1.0 + 10.0 ** rng.uniform(-12, 1)
            a, b = (low, high) if rng.random() < 0.5 else (high, low)
            r = rng.uniform(0.0, 5.0)
            try:
                form = lz.squeezed_thermal_form(a, b, r)
            except lz.UnphysicalFormError:
                continue
            lz.squeezed_thermal_parameters(form)
            accepted_above_4 += r >= 4.0
        assert accepted_above_4 > 500

    def test_subvacuum_solution_rejected(self):
        # the thermal parameters of a c' = -c form are its symplectic
        # eigenvalues, so a solution below vacuum is not a form at all:
        # here a = (sqrt(7) - 2) / 2
        a = (math.sqrt(7.0) - 2.0) / 2.0
        with pytest.raises(lz.UnphysicalFormError, match=f"nu_minus = {a:.6g}"):
            lz.GaussianStandardForm(1.0, 3.0, 1.5, -1.5)
        # (n + m)^2 < 4 c^2: no real solution, and M is not positive definite
        with pytest.raises(lz.UnphysicalFormError, match="positive definite"):
            lz.GaussianStandardForm(1.0, 3.0, 1.8, -1.8)


class TestFockTruncation:
    def test_side_a_witness_never_accumulates_the_b_diagonal(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), cutoff=20)
        assert lz.commutator_residual(rho, "A") > 0.0
        assert "_diagonal_b" not in vars(rho)

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

    @pytest.mark.parametrize("cutoff", [20, 40, 100])
    @pytest.mark.parametrize(
        "a,b,r",
        [(1.2, 1.1, 0.5), (1.2, 1.1, -0.5), (1.2, 1.1, 0.0), (1.3, 1.0, 0.3)],
        ids=["r > 0", "r < 0", "r = 0", "b vacuum"],
    )
    def test_stacks_match_exp_everywhere(self, a, b, r, cutoff):
        # exp skips the -inf logs; taking it everywhere gives the same
        # bytes, signs of zero included
        form = lz.squeezed_thermal_form(a, b, r)
        reference = exp_everywhere_stacks(form, cutoff)
        stacks = lz.fock_truncate(form, cutoff)._stacks
        assert len(stacks) == len(reference)
        for got, want in zip(stacks, reference):
            for part, expected in zip(got, want):
                assert part.dtype == expected.dtype
                assert part.tobytes() == expected.tobytes()

    def test_trace_deficit_rejected(self):
        with pytest.raises(lz.TruncationError, match="deficit"):
            lz.fock_truncate(lz.squeezed_thermal_form(3.0, 3.0, 0.5), cutoff=4)
        # b of this near-pure form rounds just past 1 - PHYSICALITY_TOL and
        # is read as the vacuum; at r = 3.99 cutoff 40 leaves 96% of the trace
        with pytest.raises(lz.TruncationError, match="deficit 9.6"):
            lz.fock_truncate(lz.GaussianStandardForm(*NEAR_PURE_FORM), 40)

    def test_outside_family_rejected(self):
        with pytest.raises(ValueError, match="squeezed-thermal"):
            lz.fock_truncate(lz.GaussianStandardForm(2.0, 2.0, 0.3, -0.2), cutoff=6)

    @pytest.mark.parametrize("cutoff", [2, 3, 20.0, True, "20"])
    def test_rejects_cutoff_that_is_not_an_integer_from_four(self, cutoff):
        with pytest.raises(ValueError, match=f"cutoff must be an integer >= 4, got {cutoff!r}"):
            lz.fock_truncate(lz.squeezed_thermal_form(1.0, 1.0, 0.1), cutoff)


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
            expected = naive_partial_trace(rho.data, rho.dim_a, rho.dim_b, side)
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
        blocks = rho.sectors
        assert list(blocks) == [0] + [d for k in range(1, 13) for d in (k, -k)]
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

    @staticmethod
    def witness_peak(form, cutoff):
        """The state, its two residuals and the tracemalloc peak of forming
        them, with the cutoff's tables already built: `_fock_tables` keeps
        them, and its own test bounds what it keeps."""
        lz.gaussian._fock_tables(cutoff)
        tracemalloc.start()
        try:
            rho = lz.fock_truncate(form, cutoff)
            residuals = [lz.commutator_residual(rho, side) for side in ("A", "B")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rho, residuals, peak

    @pytest.mark.parametrize("cutoff", [100, 200])
    def test_witness_memory_stays_off_the_dense_block(self, cutoff):
        # the dense (cutoff + 1)^2 block would be 832 MB at cutoff 100 and
        # 13 GB at 200; the sector blocks would be 43 MB at 200, the stacks
        # hold each product M M^T once for two mirror sectors, and what is
        # allocated on top of them stays a small fraction
        rho, residuals, peak = self.witness_peak(lz.squeezed_thermal_form(1.2, 1.1, 0.5), cutoff)
        assert all(res > 1e-3 for res in residuals)
        assert peak < 50e6
        stack_bytes = sum(stack.nbytes for stack, *_ in rho._stacks)
        sector_bytes = 8 * sum((cutoff + 1 - abs(d)) ** 2 for d in range(-cutoff, cutoff + 1))
        assert stack_bytes <= (0.55 if cutoff == 200 else 0.6) * sector_bytes
        assert peak - stack_bytes < 2e6
        assert "sectors" not in vars(rho)

    def test_witness_memory_stays_within_a_few_groups(self):
        # the temporaries of one group of sectors stay near 64 KiB, so
        # what is allocated beside the stacks stays small at cutoff 40 too
        rho, residuals, peak = self.witness_peak(lz.squeezed_thermal_form(2.4, 2.0, 0.5), 40)
        assert all(res > 1e-3 for res in residuals)
        assert peak - sum(stack.nbytes for stack, *_ in rho._stacks) < 512 * 1024

    def test_cutoff_tables_are_kept_for_a_few_cutoffs(self):
        # a sweep of cutoffs keeps the tables of the last few, about
        # 2.4 MB each at cutoff 300, not of every cutoff swept (about
        # 250 MB from 4 to 300)
        tables = lz.gaussian._fock_tables
        tables.cache_clear()
        tracemalloc.start()
        try:
            for cutoff in range(4, 301):
                tables(cutoff)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 12e6
        assert tables(300) is tables(300)
        for table in tables(300)[:4]:
            assert not table.flags.writeable

    @pytest.mark.parametrize("r", [0.3, -0.3])
    def test_products_agree_on_the_levels_two_cutoffs_keep(self, r):
        # L is lower triangular, so the product M_d M_d^T on the levels
        # both cutoffs keep does not depend on the cutoff
        form = lz.squeezed_thermal_form(1.2, 1.1, r)
        low = products(lz.fock_truncate(form, 60)._stacks)
        high = products(lz.fock_truncate(form, 200)._stacks)
        for d, (product, _) in low.items():
            size = 61 - d
            gap = np.abs(high[d][0][:size, :size] - product[:size, :size]).max()
            assert gap <= 1e-15 * np.abs(product).max()

    @pytest.mark.parametrize("r", [0.3, -0.3])
    def test_every_block_is_exactly_symmetric(self, r):
        form = lz.squeezed_thermal_form(1.2, 1.1, r)
        for cutoff in range(8, 101):
            sectors = lz.fock_truncate(form, cutoff).sectors
            assert len(sectors) == 2 * cutoff + 1
            for block in sectors.values():
                assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("r", [0.3, -0.3])
    def test_stacks_are_zero_outside_their_corners(self, r):
        # SectorDensityMatrix._of reads whole stacks: its scan and sums
        # take the padding for the zeros it must be
        # below cutoff 7 the truncation of this form leaves out too much
        # trace; a fainter one stands in there
        form = lz.squeezed_thermal_form(1.2, 1.1, r)
        faint = lz.squeezed_thermal_form(1.05, 1.02, r / 3.0)
        for cutoff in range(4, 101):
            rho = lz.fock_truncate(form if cutoff >= 7 else faint, cutoff)
            for stack, shifts, weights in rho._stacks:
                assert stack.dtype == np.float64
                assert not stack.flags.writeable
                assert weights.dtype == np.float64
                # layer k holds the product of shift d = shifts[k] >= 0
                for shift, layer in zip(shifts.tolist(), stack):
                    size = cutoff + 1 - shift
                    assert not layer[size:].any()
                    assert not layer[:, size:].any()

    @pytest.mark.parametrize(
        "a,b,r",
        # r = +-0.3 on a form with two thermal modes and on both forms with
        # a vacuum mode, then the sector forms
        [(a, b, r) for a, b in [(1.2, 1.1), (1.3, 1.0), (1.0, 1.3)] for r in (0.3, -0.3)]
        + SECTOR_FORMS,
    )
    def test_spectrum_and_data_match_the_dense_oracle(self, a, b, r):
        # below cutoff 8 the truncation of these forms leaves out too much
        # trace; a fainter one with the same vacuum mode stands in there
        form = lz.squeezed_thermal_form(a, b, r)
        faint = lz.squeezed_thermal_form(1.0 + (a - 1.0) / 6.0, 1.0 + (b - 1.0) / 6.0, r / 3.0)
        for cutoff in range(4, 21):
            rho = lz.fock_truncate(form if cutoff >= 8 else faint, cutoff)
            vals = rho.eigenvalues
            assert rho.eigenvalues is vals
            assert not vals.flags.writeable
            assert np.all(np.diff(vals) >= 0.0)
            assert rho.is_physical
            assert "data" not in vars(rho)
            data = rho.data
            assert data.dtype == np.float64
            assert not data.flags.writeable
            assert rho.data is data
            assert "sectors" not in vars(rho)
            # each sector's block placed on its states |k + max(s, 0), k + max(-s, 0)>
            keep = cutoff + 1
            placed = np.zeros_like(data)
            for shift, block in rho.sectors.items():
                k = np.arange(len(block))
                states = (k + max(shift, 0)) * keep + k + max(-shift, 0)
                placed[np.ix_(states, states)] = block
            assert np.array_equal(data, placed)
            assert vals == pytest.approx(np.linalg.eigvalsh(data), rel=0, abs=1e-14)

    def test_spectrum_at_cutoff_200_stays_off_the_blocks(self):
        # the weighted blocks would take 43.5 MB beside the 22 MB of
        # stacks; one eigvalsh works on one product corner at a time
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.5), 200)
        tracemalloc.start()
        try:
            vals = rho.eigenvalues
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert len(vals) == 201 * 201
        assert rho.is_physical
        assert "sectors" not in vars(rho)

    def test_a_negative_sector_eigenvalue_is_unphysical(self):
        # a planted symmetric pair, which leaves the trace alone, makes
        # the top corner of sector 0 indefinite
        stacks = fock_stacks(20)
        product = products(stacks)[0][0]
        product[0, 1] = product[1, 0] = 1.0
        rho = fock_state(stacks)
        assert rho.min_eigenvalue < -0.1
        assert not rho.is_physical
        with pytest.raises(lz.InvalidStateError, match="positivity"):
            rho.require_physical()
        assert "data" not in vars(rho)
        assert "sectors" not in vars(rho)
        assert rho.eigenvalues == pytest.approx(np.linalg.eigvalsh(rho.data), rel=0, abs=1e-14)


def thermal_ratios(form):
    a, b, _ = lz.squeezed_thermal_parameters(form)
    return (a - 1.0) / (a + 1.0), (b - 1.0) / (b + 1.0)


class TestClosedFormFockSectors:
    """Edge cases of the normal-ordered closed form behind `fock_truncate`."""

    def test_zero_squeezing_is_the_thermal_diagonal(self):
        form = lz.squeezed_thermal_form(1.5, 1.3, 0.0)
        cutoff = 20
        rho = lz.fock_truncate(form, cutoff)
        q_a, q_b = thermal_ratios(form)
        # kept weight of the product of two geometric distributions
        kept = (1.0 - q_a ** (cutoff + 1)) * (1.0 - q_b ** (cutoff + 1))
        for d, block in rho.sectors.items():
            k = np.arange(len(block))
            la, lb = k + max(d, 0), k + max(-d, 0)
            expected = (1.0 - q_a) * (1.0 - q_b) * q_a**la * q_b**lb / kept
            assert np.array_equal(block, np.diag(np.diagonal(block)))
            assert np.diagonal(block) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a,b", [(1.2, 1.0), (1.0, 1.2), (1.0, 1.0), (1.2, 1.0 - 1e-10)])
    def test_vacuum_mode_is_clamped(self, a, b):
        # b = 1 - 1e-10 lies inside the PHYSICALITY_TOL vacuum slack: an exact
        # vacuum can come back from squeezed_thermal_parameters a rounding
        # error below 1, and fock_truncate must clamp it to q = 0
        r = 0.3
        form = lz.squeezed_thermal_form(a, b, r)
        rho = lz.fock_truncate(form, 10)
        # n1 > n2 needs a thermal excitation of mode A, n2 > n1 one of mode B
        for d, block in rho.sectors.items():
            assert np.isfinite(block).all()
            if (d > 0 and a <= 1.0) or (d < 0 and b <= 1.0):
                assert not block.any()
        assert rho.is_physical
        reference = dense_fock_reference(max(a, 1.0), max(b, 1.0), r, cutoff=10)
        assert np.abs(rho.data - reference).max() < 1e-14

    def test_mirror_sectors_scale_by_the_thermal_ratio(self):
        form = lz.squeezed_thermal_form(1.5, 1.2, 0.3)
        q_a, q_b = thermal_ratios(form)
        blocks = lz.fock_truncate(form, 20).sectors
        for d in range(1, 21):
            assert blocks[-d] == pytest.approx(
                (q_b / q_a) ** d * blocks[d], rel=1e-13, abs=0
            )

    def test_negative_squeezing_flips_the_odd_entries(self):
        # S(-r) = P S(r) P with P = (-1)^(n2): entries pick up (-1)^(k + l)
        plus = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.3), 20).sectors
        minus = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, -0.3), 20).sectors
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
        blocks = lz.fock_truncate(form, cutoff).sectors
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
            v = form.matrix()
            assert np.linalg.eigvalsh(v).min() > 0.0
            assert np.linalg.eigvalsh(v + 1j * SYMPLECTIC_FORM).min() >= -1e-12
            assert form.nu_minus >= 1.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            lz.random_standard_form(np.random.default_rng(0), family="bogus")
