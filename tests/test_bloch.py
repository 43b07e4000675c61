import copy
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lazystates as lz
from lazystates import bloch, stateio
from conftest import (
    block_reconstruct,
    einsum_reconstruct,
    exact_level_sums,
    fock_stacks,
    fock_state,
    gathered_level_sums,
    gathered_residual,
    mapping_order,
    naive_decompose,
    naive_partial_trace,
    product_decompose,
    products,
    read_layers,
    reference_sector_residual,
    stack_sectors,
)

DIM_PAIRS = [(2, 2), (2, 3), (3, 3), (3, 4)]


def reference_rejection(data):
    """The rejection message of a plain full-matrix hermiticity scan, or None."""
    asym = np.abs(data - data.conj().T)
    if not np.isfinite(asym).all():
        i, j = np.argwhere(~np.isfinite(asym))[0]
        return f"non-finite entry at ({i}, {j})"
    if asym.max() > bloch.HERMITICITY_TOL:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        return f"hermiticity violation: max asymmetry {asym.max():.3e} at entry ({i}, {j})"
    return None


NOT_NUMBERS = [
    ([["1"]], "malformed matrix: a string where a number belongs"),
    (np.array([["1"]]), "malformed matrix: a string where a number belongs"),
    (np.array([[b"1"]]), "malformed matrix: a string where a number belongs"),
    (np.array([["1"]], dtype=object), "malformed matrix: a string where a number belongs"),
    ([[True]], "boolean true at matrix[0][0]"),
    (np.array([[True]]), "boolean true at matrix[0][0]"),
]
NOT_NUMBER_IDS = ["str list", "str array", "bytes array", "object array", "bool list", "bool array"]


class TestDensityMatrix:
    @pytest.mark.parametrize("data,message", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
    def test_rejects_strings_and_booleans(self, data, message):
        # numpy would read each as [[1.0]], a valid 1 x 1 state
        with pytest.raises(lz.InvalidStateError) as info:
            lz.DensityMatrix(1, 1, data)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("dims", [(2.9, 2.9), (2.0, 2), (True, 4), (2, np.True_), ("2", 2)])
    def test_rejects_non_integer_dimensions(self, dims):
        # int() would read 2.9 as 2 and True as 1
        with pytest.raises(ValueError, match="subsystem dimension must be an integer >= 1"):
            lz.DensityMatrix(*dims, np.eye(4) / 4.0)

    def test_numpy_integer_dimensions_are_accepted(self):
        rho = lz.DensityMatrix(np.int64(2), np.int32(2), np.eye(4) / 4.0)
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        assert type(rho.dim_a) is int and type(rho.dim_b) is int

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
    def test_large_scan_matches_the_reference_scan(self, dims, dtype, defect, message):
        d = dims[0] * dims[1]
        assert d > 256
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
        assert reference_rejection(data) == expected
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

    def test_random_generator_checks_before_drawing(self):
        with pytest.raises(ValueError, match="subsystem dimension must be an integer >= 1"):
            lz.random_density_matrix(2.5, 2, 0)
        for seed in (-1, True, 0.5):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                lz.random_density_matrix(2, 2, seed)


#: public entries given a string array, a boolean array, a string or a NaN
#: that numpy would read as a number, with the message that names it;
#: test_every_array_entry_reads_its_numbers_one_way covers the lists
NUMBER_CHECKS = [
    pytest.param(
        lambda: lz.Coupling(hamiltonian=np.array([["1", "0"], ["0", "1"]]), seed=0),
        "malformed coupling: a string where a number belongs",
        id="Coupling strings",
    ),
    pytest.param(
        lambda: lz.Coupling(hamiltonian=np.eye(2, dtype=bool), seed=0),
        "boolean true at coupling[0][0]",
        id="Coupling booleans",
    ),
    pytest.param(
        lambda: lz.contraction_matrix([np.nan] * 8, lz.build_su_basis(3)),
        "non-finite entry in coefficient vector at (0,)",
        id="contraction_matrix nan",
    ),
    pytest.param(
        lambda: lz.contraction_matrix([0.0] * 7 + [np.inf], lz.build_su_basis(3)),
        "non-finite entry in coefficient vector at (7,)",
        id="contraction_matrix inf",
    ),
    pytest.param(
        lambda: lz.diagonal_correlation_state(["0"] * 8, np.zeros(8), np.full(8, 0.1)),
        "malformed x: a string where a number belongs",
        id="diagonal_correlation_state strings",
    ),
    pytest.param(
        lambda: lz.generate_example("diagonal_correlation", {"x": "0.1"}),
        "malformed x: a string where a number belongs",
        id="diagonal_correlation example string",
    ),
]


@pytest.mark.parametrize("build,message", NUMBER_CHECKS)
def test_public_array_entries_check_their_numbers(build, message):
    # numpy reads "1" and True as 1.0, and None as NaN
    with pytest.raises(lz.InvalidStateError) as info:
        build()
    assert str(info.value) == message


def _state_22():
    return lz.random_density_matrix(2, 2, 0)


def _form():
    return lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.5)


#: every public entry that reads an array: (build from the array, a valid
#: nesting of lists, the name its messages give, the label of its walk, a
#: valid nesting of complex numbers or None where real numbers belong)
_HERMITIAN_4 = (np.eye(4) + 1j * np.triu(np.ones((4, 4)), 1) - 1j * np.tril(np.ones((4, 4)), -1))
ARRAY_ENTRIES = {
    "DensityMatrix": (lambda v: lz.DensityMatrix(1, 2, v), [[0.5, 0], [0, 0.5]],
                      "matrix", "matrix", [[0.5, 0.5j], [-0.5j, 0.5]]),
    "product_state": (lambda v: lz.product_state(v, [[1.0]]), [[0.5, 0], [0, 0.5]],
                      "marginal a", "marginal a", [[0.5, 0.5j], [-0.5j, 0.5]]),
    "Coupling": (lambda v: lz.Coupling(hamiltonian=v, seed=0), [[1, 0], [0, 1]],
                 "coupling", "coupling", [[1, 1j], [-1j, 1]]),
    "evolve": (lambda v: lz.evolve(_state_22(), v, 0.1), np.eye(4).tolist(),
               "hamiltonian", "hamiltonian", _HERMITIAN_4.tolist()),
    "BlochForm x": (lambda v: lz.BlochForm(x=v, y=np.zeros(3), T=np.zeros((3, 3))),
                    [0.5, 0, 0], "x", "x", None),
    "BlochForm T": (lambda v: lz.BlochForm(x=np.zeros(3), y=np.zeros(3), T=v),
                    np.zeros((3, 3)).tolist(), "T", "T", None),
    "contraction_matrix": (lambda v: lz.contraction_matrix(v, lz.build_su_basis(3)),
                           [0.1] * 8, "coefficient vector", "coefficient vector", None),
    "diagonal_correlation_state": (
        lambda v: lz.diagonal_correlation_state(np.zeros(8), np.zeros(8), v),
        [0.1] * 8, "correlations", "correlations", None),
    "CovarianceState V": (lambda v: lz.CovarianceState(v), np.eye(4).tolist(),
                          "covariance matrix V", "$.V", None),
    "CovarianceState d": (lambda v: lz.CovarianceState(np.eye(4), v), [0.0] * 4,
                          "displacement d", "$.d", None),
    "state_from_dict": (lambda v: stateio.state_from_dict({"dimA": 1, "dimB": 1, "matrix": v}),
                        [[[1, 0]]], "matrix entries", "$.matrix", None),
    "product example": (lambda v: lz.generate_example("product", {"a": v}), [0.7, 0.3],
                        "marginal spec", "marginal spec", None),
    "diagonal_correlation example": (
        lambda v: lz.generate_example("diagonal_correlation", {"x": v}),
        [0.01] * 8, "x", "x", None),
}


def _first_leaf(nesting, replace):
    """A copy of a nesting of lists with its first number replaced by
    `replace(number)`, and the depth of that number."""
    if not isinstance(nesting, list):
        return replace(nesting), 0
    first, depth = _first_leaf(nesting[0], replace)
    return [first, *copy.deepcopy(nesting[1:])], depth + 1


#: what numpy would accept, with what goes in place of the first number;
#: those named "object ..." are passed as an object array
ARRAY_DIVERGENCES = {
    "string": str,
    "complex": lambda x: x + 1j,
    "object complex": lambda x: x + 1j,
    "boolean": lambda x: True,
    "object boolean": lambda x: True,
    "null": lambda x: None,
    "ragged": lambda x: [x, x],
}


@pytest.mark.parametrize(
    "entry,divergence",
    [
        pytest.param(entry, divergence, id=f"{entry}-{divergence}")
        for entry, (*_, complex_valid) in ARRAY_ENTRIES.items()
        for divergence in ARRAY_DIVERGENCES
        if not ("complex" in divergence and complex_valid is not None)
    ],
)
def test_every_array_entry_reads_its_numbers_one_way(entry, divergence):
    # numpy would read "1" as a string array, drop an imaginary part with a
    # warning, read True as 1 and None as NaN, and give a bare ValueError
    # on a ragged nesting
    build, valid, name, where, _ = ARRAY_ENTRIES[entry]
    build(valid)
    value, depth = _first_leaf(valid, ARRAY_DIVERGENCES[divergence])
    if divergence.startswith("object"):
        value = np.array(value, dtype=object)
    with pytest.raises(lz.InvalidStateError) as info:
        build(value)
    message = str(info.value)
    at = where + "[0]" * depth
    if divergence == "string":
        assert message == f"malformed {name}: a string where a number belongs"
    elif divergence.endswith("complex"):
        assert message == f"malformed {name}: a complex number where a real one belongs"
    elif divergence.endswith("boolean"):
        assert message == f"boolean true at {at}"
    elif divergence == "null":
        assert message == f"null at {at}"
    else:
        assert message.startswith(f"malformed {name}: setting an array element with a sequence")


@pytest.mark.parametrize(
    "entry", [entry for entry, (*_, complex_valid) in ARRAY_ENTRIES.items() if complex_valid]
)
def test_an_object_array_of_complex_numbers_reads_as_its_list(entry):
    # numpy would read an object array with float(), which rejects a complex
    build, *_, complex_valid = ARRAY_ENTRIES[entry]
    listed, held = build(complex_valid), build(np.array(complex_valid, dtype=object))
    if isinstance(listed, lz.DensityMatrix):
        assert np.array_equal(held.data, listed.data)
    else:
        assert np.array_equal(held.hamiltonian, listed.hamiltonian)


#: every public scalar: (call with the value, the message before ", got")
SCALAR_ENTRIES = {
    "is_lazy tol": (lambda v: lz.is_lazy(_state_22(), "A", v),
                    "tolerance must be a positive finite number"),
    "is_lazy_gaussian tol": (lambda v: lz.is_lazy_gaussian(_form(), v),
                             "tolerance must be a positive finite number"),
    "GaussianStandardForm n": (lambda v: lz.GaussianStandardForm(v, 2.0, 0.5, -0.5),
                               "standard-form parameter n must be a real number"),
    "GaussianStandardForm c_prime": (lambda v: lz.GaussianStandardForm(2.0, 2.0, 0.5, v),
                                     "standard-form parameter c_prime must be a real number"),
    "werner p": (lambda v: lz.werner(v), "parameter p must be a finite number"),
    "kernel_quadratic_difference u": (lambda v: lz.kernel_quadratic_difference(_form(), v, 0.5),
                                      "u must be a complex number"),
    "kernel_quadratic_closed_form v": (lambda v: lz.kernel_quadratic_closed_form(_form(), 1j, v),
                                       "v must be a complex number"),
    "evolve t": (lambda v: lz.evolve(_state_22(), np.eye(4), v), "t must be a finite real number"),
}


@pytest.mark.parametrize("value", ["1", True], ids=["string", "boolean"])
@pytest.mark.parametrize("entry", list(SCALAR_ENTRIES))
def test_every_scalar_entry_rejects_strings_and_booleans(entry, value):
    # float and complex would read "1" and True as 1
    call, message = SCALAR_ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize(
    "value,message",
    [(np.complex128(0.5), "tolerance must be a positive finite number, got np.complex128(0.5+0j)"),
     (np.float64(-1.0), "tolerance must be a positive finite number, got -1.0"),
     (10**400, f"tolerance must be a positive finite number, got {10**400}")],
    ids=["numpy complex", "numpy float out of range", "integer beyond the float range"],
)
def test_a_scalar_is_named_as_read(value, message):
    # float would drop the imaginary part with a warning and raise
    # OverflowError on the integer; a range failure shows the float as read
    with pytest.raises(ValueError) as info:
        lz.is_lazy(_state_22(), "A", value)
    assert str(info.value) == message


def _typed(value):
    """`value` with its type, so that an int read as an int shows."""
    return type(value), value


def _example(name, key, value):
    return lz.generate_example(name, {key: value})


#: two vacuum modes, which every cutoff keeps whole
VACUUM = lz.GaussianStandardForm(1.0, 1.0, 0.0, 0.0)

#: every public integer: (call with the value, the message before ", got",
#: the smallest valid value, the message below it if another entry names it).
#: Each call returns what the value decides, its type included where it is kept.
INTEGER_ENTRIES = {
    "DensityMatrix dim_a": (lambda v: _typed(lz.DensityMatrix(v, 2, np.eye(4) / 4).dim_a),
                            "subsystem dimension must be an integer >= 1", 1, None),
    "DensityMatrix dim_b": (lambda v: _typed(lz.DensityMatrix(2, v, np.eye(4) / 4).dim_b),
                            "subsystem dimension must be an integer >= 1", 1, None),
    "random_density_matrix dim_a": (lambda v: _typed(lz.random_density_matrix(v, 2, 0).dim_a),
                                    "subsystem dimension must be an integer >= 1", 1, None),
    "random_density_matrix seed": (lambda v: lz.random_density_matrix(2, 2, v).data.tobytes(),
                                   "seed must be an integer >= 0", 0, None),
    "criterion_prefactor dim_b": (lambda v: _typed(lz.criterion_prefactor(2, v, "B")),
                                  "subsystem dimension must be an integer >= 1", 1, None),
    "Coupling seed": (lambda v: _typed(lz.Coupling(np.eye(4), v).seed),
                      "seed must be an integer >= 0", 0, None),
    "random_coupling dim_a": (lambda v: lz.random_coupling(v, 2, 0).hamiltonian.tobytes(),
                              "coupling dimension must be an integer >= 2", 2, None),
    "random_coupling seed": (lambda v: _typed(lz.random_coupling(2, 2, v).seed),
                             "seed must be an integer >= 0", 0, None),
    "product_couplings dim_b": (lambda v: lz.product_couplings(2, v, 2, 0)[1].tobytes(),
                                "coupling dimension must be an integer >= 2", 2, None),
    "product_couplings count": (lambda v: lz.product_couplings(2, 2, v, 0)[0].tobytes(),
                                "count must be an integer >= 1", 1, None),
    "product_couplings seed": (lambda v: lz.product_couplings(2, 2, 2, v)[0].tobytes(),
                               "seed must be an integer >= 0", 0, None),
    "dynamics_audit trials": (lambda v: _typed(lz.dynamics_audit(_state_22(), "A", v, 0).trials),
                              "trials must be an integer >= 1", 1, None),
    "dynamics_audit seed": (lambda v: lz.dynamics_audit(_state_22(), "A", 2, v).per_trial_rates,
                            "seed must be an integer >= 0", 0, None),
    "derive_trial_seed seed": (lambda v: _typed(lz.derive_trial_seed(v, 1)),
                               "seed must be an integer >= 0", 0, None),
    "derive_trial_seed index": (lambda v: _typed(lz.derive_trial_seed(1, v)),
                                "index must be an integer >= 0", 0, None),
    "fock_truncate cutoff": (lambda v: _typed(lz.fock_truncate(VACUUM, v).dim_a),
                             "cutoff must be an integer >= 4", 4, None),
    "build_su_basis n": (lambda v: _typed(lz.build_su_basis(v).dim),
                         "su(n) dimension must be an integer >= 2", 2, None),
    "maximally_entangled dim": (lambda v: _typed(lz.maximally_entangled(v).dim_a),
                                "maximally entangled dimension must be an integer >= 2", 2, None),
    "example d": (lambda v: _typed(_example("maximally_entangled", "d", v).dim_a),
                  "parameter d must be an integer", 2,
                  "maximally entangled dimension must be an integer >= 2"),
    "example dimA": (lambda v: _typed(_example("random", "dimA", v).dim_a),
                     "parameter dimA must be an integer", 1,
                     "subsystem dimension must be an integer >= 1"),
    "example dimB": (lambda v: _typed(_example("random", "dimB", v).dim_b),
                     "parameter dimB must be an integer", 1,
                     "subsystem dimension must be an integer >= 1"),
    "example seed": (lambda v: _example("random", "seed", v).data.tobytes(),
                     "parameter seed must be an integer", 0, "seed must be an integer >= 0"),
}


@pytest.mark.parametrize(
    "value", [2.0, 2.5, "2", True, np.True_, None, "below"],
    ids=["float", "fraction", "string", "boolean", "numpy boolean", "None", "below the minimum"],
)
@pytest.mark.parametrize("entry", list(INTEGER_ENTRIES))
def test_every_integer_entry_rejects_what_is_not_an_integer_in_range(entry, value):
    # int() would read 2.0, 2.5 and "2" as 2 and True as 1; a malformed or
    # out-of-range integer is a ValueError, not a DimensionMismatchError
    call, message, minimum, range_message = INTEGER_ENTRIES[entry]
    if value == "below":
        value, message = minimum - 1, range_message or message
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("read", [np.int64, np.array], ids=["numpy integer", "0-d array"])
@pytest.mark.parametrize("entry", list(INTEGER_ENTRIES))
def test_every_integer_entry_reads_a_numpy_integer_as_an_int(entry, read):
    call, _, minimum, _ = INTEGER_ENTRIES[entry]
    value = minimum + 1
    assert call(read(value)) == call(value)


class TestFrobenius:
    @pytest.mark.parametrize("na,nb", [(2, 2), (3, 4), (5, 3), (8, 8), (16, 2), (2, 16)])
    def test_one_dot_for_real_and_complex_arrays(self, na, nb):
        # a complex commutator has the norm of its [re, im] pairs, bit for
        # bit, within 1 ulp of the exactly rounded norm
        mp = pytest.importorskip("mpmath")
        rho = lz.random_density_matrix(na, nb, na + nb)
        for side in ("A", "B"):
            c = rho._commutator(rho._partial_trace(side), side)
            norm = bloch._frobenius(c)
            assert norm == bloch._frobenius(np.stack((c.real, c.imag), axis=-1))
            with mp.workdps(50):
                squares = (mp.mpf(float(v)) ** 2 for v in c.reshape(-1).view(np.float64))
                exact = float(mp.sqrt(mp.fsum(squares)))
            assert abs(norm - exact) <= math.ulp(exact)

    def test_norms_do_not_depend_on_the_thread_count(self):
        # OpenBLAS splits a dot of more than 10^4 entries across threads;
        # the commutators here hold 10368 (9 x 8) to 131072 (16 x 16) floats
        code = (
            "import lazystates as lz\n"
            "for na, nb in ((9, 8), (36, 2), (16, 16)):\n"
            "    rho = lz.random_density_matrix(na, nb, 1)\n"
            "    for side in 'AB':\n"
            "        audit = lz.dynamics_audit(rho, side, trials=2)\n"
            "        print(lz.commutator_residual(rho, side).hex(), audit.rate_bound.hex())\n"
        )
        src = str(Path(lz.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        one, two = (
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            ).stdout
            for threads in ("1", "2")
        )
        assert one.count("\n") == 6
        assert one == two


def quiet_rejection(build):
    """The InvalidStateError message of `build()`; numpy must warn nothing on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(lz.InvalidStateError) as info:
            build()
    assert [str(w.message) for w in caught] == []
    return str(info.value)


def plant_inf(data, defect):
    """Put an Inf on the diagonal or a symmetric +-Inf pair into `data`; its position."""
    last = len(data) - 1
    if defect == "diagonal":
        data[last, last] = np.inf
        return last, last
    data[0, last] = data[last, 0] = np.inf if defect == "pair" else -np.inf
    return 0, last


INF_DEFECTS = ["diagonal", "pair", "negative pair"]


@pytest.mark.parametrize("defect", INF_DEFECTS)
class TestInfEntries:
    """An Inf is named by the hermiticity scan itself: inf - inf stays quiet."""

    @pytest.mark.parametrize("d", [4, 64, 300])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_density_matrix(self, defect, d, dtype):
        data = np.eye(d, dtype=dtype) / d
        i, j = plant_inf(data, defect)
        message = quiet_rejection(lambda: lz.DensityMatrix(d, 1, data))
        assert message == f"non-finite entry at ({i}, {j})"

    def test_sector_block(self, defect):
        stacks = fock_stacks(20)
        # a 3 x 3 corner of the product of sector 0
        i, j = plant_inf(products(stacks)[0][0][:3, :3], defect)
        message = quiet_rejection(lambda: fock_state(stacks))
        assert message == f"non-finite entry at ({i}, {j}) of sector 0"

    def test_coupling(self, defect):
        h = np.eye(4, dtype=complex)
        i, j = plant_inf(h, defect)
        message = quiet_rejection(lambda: lz.Coupling(hamiltonian=h, seed=0))
        assert message == f"non-finite entry at ({i}, {j}) of the coupling"

    def test_covariance(self, defect):
        v = np.eye(4)
        i, j = plant_inf(v, defect)
        message = quiet_rejection(lambda: lz.CovarianceState(v))
        assert message == f"non-finite entry at ({i}, {j}) of covariance matrix V"


def test_sector_diagonals_are_summed_after_the_scan():
    # A level 1 lies in sectors 0 and 1: summing their diagonals first
    # would compute inf - inf
    stacks = fock_stacks(20)
    prods = products(stacks)
    prods[0][0][1, 1] = np.inf
    prods[1][0][0, 0] = -np.inf
    message = quiet_rejection(lambda: fock_state(stacks))
    assert message == "non-finite entry at (1, 1) of sector 0"


class TestOverflowingTrace:
    """Finite diagonals that sum beyond the float range: the trace check names it, numpy is quiet."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_density_matrix(self, dtype):
        data = np.diag([1e308, 1e308]).astype(dtype)
        assert quiet_rejection(lambda: lz.DensityMatrix(2, 1, data)) == "trace deviation inf"

    def test_sector_trace(self):
        # a 1e308 pair on the diagonal of the product of sector 0, which
        # a squeezed vacuum weighs by 1
        stacks = fock_stacks(20, form=(1.0, 1.0, 0.3))
        product = products(stacks)[0][0]
        product[0, 0] = product[1, 1] = 1e308
        assert quiet_rejection(lambda: fock_state(stacks)) == "trace deviation inf"

    def test_sector_accumulation(self):
        # A level 0 lies in sectors 0 and -1, level 1 in 0 and 1: with the
        # weights of product 1 planted as 1 and -1, each level's sum
        # overflows, one to -inf, one to +inf, and their total is NaN
        big = 1e308
        stacks = fock_stacks(20)
        prods = products(stacks)
        (zero, zero_weights), (one, one_weights) = prods[0], prods[1]
        zero[0, 0], zero[1, 1], zero_weights[0] = -big, big, 1.0
        one[0, 0], one_weights[:] = big, (1.0, -1.0)
        assert quiet_rejection(lambda: fock_state(stacks)) == "trace deviation nan"
        # without sector -1, only level 1 overflows
        one_weights[1] = 0.0
        assert quiet_rejection(lambda: fock_state(stacks)) == "trace deviation inf"


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


class TestBlochFormProperty:
    @pytest.mark.parametrize(
        "rho",
        [
            lz.random_density_matrix(2, 3, 21),
            lz.product_state(np.diag([0.7, 0.3]), np.diag([0.2, 0.5, 0.3])),
            lz.fock_truncate(lz.squeezed_thermal_form(1.05, 1.02, 0.2), 6),
        ],
        ids=["complex", "real", "sector"],
    )
    def test_cached_equal_to_decompose_and_read_only(self, rho):
        form = rho.bloch_form
        assert rho.bloch_form is form
        fresh = lz.decompose(rho)
        for name in ("x", "y", "T"):
            arr = getattr(form, name)
            assert arr.dtype == getattr(fresh, name).dtype
            assert arr.tobytes() == getattr(fresh, name).tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestSectorDensityMatrix:
    """Checks and readers of sector states, on planted copies of Fock stacks."""

    @pytest.mark.parametrize("args", [(2, 3, {0: np.eye(2) / 2.0}), ()])
    def test_the_class_is_made_by_fock_truncate_only(self, args):
        with pytest.raises(TypeError, match="fock_truncate"):
            lz.SectorDensityMatrix(*args)

    def test_rejects_non_finite_sector(self):
        stacks = fock_stacks(20)
        product = products(stacks)[0][0]
        product[0, 1] = product[1, 0] = np.nan
        with pytest.raises(lz.InvalidStateError, match=r"non-finite entry at \(0, 1\) of sector 0"):
            fock_state(stacks)

    def test_rejects_asymmetric_sector(self):
        stacks = fock_stacks(20)
        product, weights = products(stacks)[0]
        # an asymmetry of 1e-9 in the block w S
        product[0, 1] += 1e-9 / weights[0]
        with pytest.raises(lz.InvalidStateError, match="hermiticity violation.* of sector 0"):
            fock_state(stacks)

    @pytest.mark.parametrize("d", [0, 1, 7])
    def test_rejects_trace_off_by_1e_9(self, d):
        # the trace is the sum of the A marginal, into which sectors d and
        # -d add their diagonals from the A levels d and 0 on
        stacks = fock_stacks(20)
        product, weights = products(stacks)[d]
        product[0, 0] += 1e-9 / weights.sum()
        with pytest.raises(lz.InvalidStateError, match="trace deviation 1.000e-09"):
            fock_state(stacks)

    # at cutoff 20 the products d <= 8 share one stack, d >= 9 another
    @pytest.mark.parametrize("shift", [1, -1, 12, -12])
    def test_rejects_trace_off_by_1e_9_on_a_shifted_sector(self, shift):
        # sectors d and -d read one product through the two rows of the
        # weights: raising one weight changes the trace of one sector
        stacks = fock_stacks(20)
        fock_state(stacks)
        product, weights = products(stacks)[abs(shift)]
        weights[0 if shift > 0 else 1] += 1e-9 / np.trace(product)
        with pytest.raises(lz.InvalidStateError, match="trace deviation 1.000e-09"):
            fock_state(stacks)

    def test_weights_of_zero_fail_the_trace_check(self):
        stacks = fock_stacks(20)
        for _, _, weights in stacks:
            weights[...] = 0.0
        assert quiet_rejection(lambda: fock_state(stacks)) == "trace deviation 1.000e+00"

    def test_no_sectors_fail_the_trace_check(self):
        # products of zeros, whatever their weights
        stacks = fock_stacks(20)
        for stack, _, _ in stacks:
            stack[...] = 0.0
        assert quiet_rejection(lambda: fock_state(stacks)) == "trace deviation 1.000e+00"

    def test_keeps_float64_blocks_without_a_copy(self):
        stacks = fock_stacks(20)
        rho = fock_state(stacks)
        assert rho._stacks is stacks
        for stack, _, _ in stacks:
            assert stack.dtype == np.float64
            # the state's check leaves the caller's stack read-only
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0

    def test_dense_data_places_each_sector(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.02, 1.01, 0.05), 4)
        # |n_A, n_B> is basis state 5 n_A + n_B, and sector s holds the
        # states with n_A - n_B = s
        states = {
            0: [0, 6, 12, 18, 24],
            1: [5, 11, 17, 23],
            -1: [1, 7, 13, 19],
            2: [10, 16, 22],
            -2: [2, 8, 14],
            3: [15, 21],
            -3: [3, 9],
            4: [20],
            -4: [4],
        }
        expected = np.zeros((25, 25))
        for shift, block in rho.sectors.items():
            expected[np.ix_(states[shift], states[shift])] = block
        assert rho.data.dtype == np.float64
        assert np.array_equal(rho.data, expected)
        assert rho.data is rho.data
        assert not rho.data.flags.writeable
        assert isinstance(rho, lz.DensityMatrix)

    @pytest.mark.parametrize("cutoff", [4, 20, 40])
    def test_repr_counts_the_sectors(self, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.02, 1.01, 0.05), cutoff)
        keep = cutoff + 1
        assert repr(rho) == f"SectorDensityMatrix(dim_a={keep}, dim_b={keep}, sectors={2 * cutoff + 1})"
        assert "sectors" not in vars(rho)
        assert len(rho.sectors) == 2 * cutoff + 1

    # the last two forms have a vacuum mode
    @pytest.mark.parametrize("a,b,r", [(1.2, 1.1, 0.5), (1.3, 1.0, 0.3), (1.0, 1.3, -0.3)])
    def test_spectrum_is_the_union_of_sector_spectra(self, a, b, r):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), 12)
        vals = rho.eigenvalues
        assert "sectors" not in vars(rho)
        assert "data" not in vars(rho)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in rho.sectors.values()]))
        assert len(vals) == 13 * 13
        assert vals == pytest.approx(union, rel=0, abs=1e-15)

    def test_a_sector_of_weight_zero_adds_zeros(self):
        # sectors 3 and -3 read one product: moving the weight of row 0 to
        # row 1 keeps the trace and leaves sector 3 a block of zeros
        stacks = fock_stacks(20)
        _, weights = products(stacks)[3]
        weights[1] += weights[0]
        weights[0] = 0.0
        rho = fock_state(stacks)
        vals = rho.eigenvalues
        assert np.count_nonzero(vals == 0.0) == 21 - 3
        assert rho.is_physical
        assert "data" not in vars(rho)
        assert not rho.sectors[3].any()
        assert vals == pytest.approx(np.linalg.eigvalsh(rho.data), rel=0, abs=1e-14)

    @pytest.mark.parametrize("cutoff", [12, 16])
    # the last two forms have a vacuum mode
    @pytest.mark.parametrize("a,b,r", [(1.2, 1.1, 0.5), (1.3, 1.0, 0.3), (1.0, 1.3, -0.3)])
    def test_sector_readers_match_dense_oracle(self, a, b, r, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        keep = cutoff + 1
        dense = lz.DensityMatrix(keep, keep, rho.data)
        for side in ("A", "B"):
            marginal = naive_partial_trace(rho.data, keep, keep, side).real
            assert np.array_equal(marginal, np.diag(np.diag(marginal)))
            assert lz.reduced_state(rho, side).data == pytest.approx(
                marginal, rel=1e-13, abs=0
            )
            assert lz.commutator_residual(rho, side) == pytest.approx(
                lz.commutator_residual(dense, side), rel=1e-12, abs=0
            )

    def test_sectors_are_read_only(self):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.5), 12)
        assert rho.sectors is rho.sectors
        for block in rho.sectors.values():
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
        with pytest.raises(TypeError):
            rho.sectors[13] = np.array([[0.0]])


def plant_defect(block, defect, scale=1.0):
    """Put a scale * 1e-9 asymmetry, a NaN or a symmetric +-Inf pair into `block`."""
    last = len(block) - 1
    if defect == "asymmetry":
        block[0, last] += scale * 1e-9
    elif defect == "nan":
        block[last, 0] = np.nan
    else:
        block[0, last] = block[last, 0] = np.inf if defect == "inf pair" else -np.inf


class TestSectorStacks:
    """The state scans and the residual sums a stack of sectors at a time."""

    @pytest.mark.parametrize("cutoff", [20, 40])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "first_defect,later_defect",
        [("asymmetry", "nan"), ("asymmetry", "inf pair"), ("nan", "asymmetry"),
         ("negative inf pair", "asymmetry")],
    )
    @pytest.mark.parametrize("later", ["next sector", "last sector"])
    def test_rejection_names_the_first_bad_sector(
        self, cutoff, place, first_defect, later_defect, later
    ):
        keep = cutoff + 1
        stacks = fock_stacks(cutoff)
        assert len(stacks) == (2 if cutoff == 20 else 8)
        # the defects go into the products S: the product of sector d >= 0
        # is also read as its mirror -d, so both sectors carry the defect,
        # and +d comes first in mapping order
        layers = {shift: (weight, stack[k]) for shift, weight, stack, k in read_layers(stacks)}
        # the first sector of each stack in mapping order
        starts = [int(shifts[0]) for _, shifts, _ in stacks]
        shift = starts[{"first": 0, "middle": len(starts) // 2, "last": -1}[place]]
        # the last product of size 2 is that of cutoff - 1
        later_shift = shift + 1 if later == "next sector" else cutoff - 1
        for d, defect in ((later_shift, later_defect), (shift, first_defect)):
            weight, product = layers[d]
            size = keep - d
            assert size >= 2
            # an asymmetry of 1e-9 in the block w S
            plant_defect(product[:size, :size], defect, scale=1.0 / weight)
        sectors = stack_sectors(stacks, keep)
        if shift and first_defect != "asymmetry":
            assert quiet_rejection(lambda: bloch._check_hermitian(sectors[-shift]))
        alone = quiet_rejection(
            lambda: bloch._check_hermitian(sectors[shift], f" of sector {shift}")
        )
        assert alone.endswith(f" of sector {shift}")
        # the stacks as `fock_truncate` hands them over
        assert quiet_rejection(lambda: fock_state(stacks)) == alone

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1])
    def test_a_non_finite_weight_is_named_by_its_sector(self, value, row):
        keep = 21
        stacks = fock_stacks(20)
        _, shifts, weights = stacks[1]
        weights[row, 2] = value
        # row 0 reads the layer as sector d, row 1 as -d
        shift = int(shifts[2]) * (1, -1)[row]
        sectors = stack_sectors(stacks, keep)
        alone = quiet_rejection(
            lambda: bloch._check_hermitian(sectors[shift], f" of sector {shift}")
        )
        assert alone.startswith("non-finite entry")
        assert quiet_rejection(lambda: fock_state(stacks)) == alone

    @pytest.mark.parametrize("cutoff", [20, 40, 200])
    def test_mirror_sectors_read_one_stack(self, cutoff):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.5), cutoff)
        holder = {shift: stack for shift, _, stack, _ in read_layers(rho._stacks)}
        assert sorted(holder) == list(range(-cutoff, cutoff + 1))
        for d in range(1, cutoff + 1):
            assert holder[d] is holder[-d]
        # each product M_d M_d^T is held once, with one weight per row
        assert sum(len(stack) for stack, _, _ in rho._stacks) == cutoff + 1
        for stack, shifts, weights in rho._stacks:
            assert shifts.shape == (len(stack),)
            assert weights.shape == (2, len(stack))
            assert not shifts.flags.writeable
            assert not weights.flags.writeable
        # the mirror of sector 0 is no sector and weighs 0
        assert rho._stacks[0][1][0] == 0
        assert rho._stacks[0][2][1, 0] == 0.0

    @pytest.mark.parametrize("cutoff", [4, 20, 40, 100])
    @pytest.mark.parametrize(
        "a,b,r",
        # the last two have a vacuum mode, whose q = 0 zeroes one weight vector
        [(1.05, 1.02, 0.1), (1.0, 1.0, -0.05), (1.1, 1.02, 0.0), (1.0, 1.05, 0.1), (1.05, 1.0, -0.1)],
    )
    def test_residual_matches_the_per_sector_sum_on_fock_states(self, cutoff, a, b, r):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == pytest.approx(
                reference_sector_residual(rho, side), rel=1e-13, abs=0
            )

    @pytest.mark.parametrize(
        "cutoff,seed", [(4, 0), (9, 1), (20, 2), (20, 3), (40, 4), (100, 5)]
    )
    def test_residual_matches_the_per_sector_sum_on_planted_states(self, cutoff, seed):
        # random weights >= 0 on the products of a Fock state, about half
        # of the sectors weighed 0, rescaled to trace 1
        rng = np.random.default_rng(seed)
        stacks = fock_stacks(cutoff, form=(1.05, 1.02, 0.1))
        for _, _, weights in stacks:
            weights[...] = rng.random(weights.shape) * (rng.random(weights.shape) < 0.5)
        # the mirror of sector 0 is no sector and weighs 0
        stacks[0][2][1, 0] = 0.0
        trace = sum(
            (weights * stack.trace(axis1=1, axis2=2)).sum() for stack, _, weights in stacks
        )
        for _, _, weights in stacks:
            weights /= trace
        rho = fock_state(stacks)
        assert any(not block.any() for block in rho.sectors.values())
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == pytest.approx(
                reference_sector_residual(rho, side), rel=1e-13, abs=0
            )

    @staticmethod
    def assert_gathered_bits(rho):
        """Both residuals carry the bits of levels gathered afresh per stack
        from the kept diagonals, and each kept diagonal entry is a sum of
        its terms as close to the exactly rounded one as the bincount of
        the gathered terms in stack order."""
        gaps = {"kept": [], "gathered": []}
        for side in ("A", "B"):
            assert lz.commutator_residual(rho, side) == gathered_residual(rho, side)
            exact, magnitude, count = exact_level_sums(rho, side)
            kept = rho._diagonal(side)
            # bounds any order of summation, with or without fused products
            assert (np.abs(kept - exact) <= count * np.finfo(float).eps * magnitude).all()
            for name, sums in (("kept", kept), ("gathered", gathered_level_sums(rho, side))):
                gaps[name].append(np.abs(sums - exact) / np.spacing(exact))
        # in ulps of the exact sum, the worst entry of both diagonals; one
        # ulp either way is the rounding of a fused multiply-add against
        # that of a product and a sum
        worst = {name: float(np.concatenate(gap).max()) for name, gap in gaps.items()}
        assert worst["kept"] <= max(worst["gathered"], 1.0)

    @pytest.mark.parametrize("cutoff", [4, 5, 20, 21, 40, 100, 200])
    @pytest.mark.parametrize(
        "a,b,r",
        # the last two have a vacuum mode, whose q = 0 zeroes one weight vector
        [(1.2, 1.1, 0.3), (1.2, 1.1, -0.3), (1.3, 1.0, 0.3), (1.0, 1.3, -0.3)],
    )
    def test_kept_levels_read_the_bits_of_gathered_levels_on_fock_states(self, cutoff, a, b, r):
        # below cutoff 8 the truncation of these forms leaves out too much
        # trace; a fainter one with the same vacuum mode stands in there
        if cutoff < 8:
            a, b, r = 1.0 + (a - 1.0) / 6.0, 1.0 + (b - 1.0) / 6.0, r / 3.0
        self.assert_gathered_bits(lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff))

    @pytest.mark.parametrize(
        "cutoff,seed", [(4, 0), (5, 1), (20, 2), (21, 3), (40, 4), (100, 5), (200, 6)]
    )
    def test_kept_levels_read_the_bits_of_gathered_levels_on_planted_states(self, cutoff, seed):
        # random weights >= 0 on the products of a Fock state, about half
        # of the sectors weighed 0, rescaled to trace 1
        rng = np.random.default_rng(seed)
        stacks = fock_stacks(cutoff, form=(1.05, 1.02, 0.1))
        for _, _, weights in stacks:
            weights[...] = rng.random(weights.shape) * (rng.random(weights.shape) < 0.5)
        stacks[0][2][1, 0] = 0.0
        trace = sum(
            (weights * stack.trace(axis1=1, axis2=2)).sum() for stack, _, weights in stacks
        )
        for _, _, weights in stacks:
            weights /= trace
        self.assert_gathered_bits(fock_state(stacks))

    @pytest.mark.parametrize("cutoff", [20, 40, 200])
    def test_a_block_larger_than_a_group_is_a_group_of_its_own(self, cutoff):
        # the sectors a stack is read as take at most _GROUP_ENTRIES padded entries
        # unless it is one product; at cutoff 200 the large products are
        # stacks of one layer, and the small ones share stacks
        rho = lz.fock_truncate(lz.squeezed_thermal_form(1.2, 1.1, 0.5), cutoff)
        budget = lz.gaussian._GROUP_ENTRIES
        # consecutive stacks hold consecutive runs of the mapping order
        order = [
            shift
            for triple in rho._stacks
            for shift in sorted((shift for shift, *_ in read_layers([triple])), key=mapping_order)
        ]
        assert order == list(rho.sectors) == [0] + [
            d for k in range(1, cutoff + 1) for d in (k, -k)
        ]
        largest = 0
        for pos, (stack, shifts, weights) in enumerate(rho._stacks):
            # the products d = first, first + 1, ..., padded to the size of the first
            first = int(shifts[0])
            size = cutoff + 1 - first
            assert shifts.tolist() == list(range(first, first + len(stack)))
            assert stack.shape == (len(stack), size, size)
            # and read as their mirrors -d, d >= 1
            read = [shift for shift, *_ in read_layers([(stack, shifts, weights)])]
            assert [-d for d in read if d < 0] == list(range(max(first, 1), first + len(stack)))
            entries = len(read) * size * size
            if len(stack) > 1:
                assert entries <= budget
            if pos + 1 < len(rho._stacks):
                # one more product and its mirror would not fit
                assert entries + 2 * size * size > budget
            largest = max(largest, entries)
        assert (largest > budget) == (cutoff == 200)

    @pytest.mark.parametrize("cutoff", [20, 40, 60])
    @pytest.mark.parametrize(
        "a,b,r",
        # the last two have a vacuum mode: every weight of row 1 (b = 1),
        # or of row 0 but sector 0's (a = 1), is 0, and its rows are still sectors
        [(1.2, 1.1, 0.5), (1.3, 1.0, 0.3), (1.0, 1.3, -0.3)],
    )
    def test_repr_counts_the_sectors_without_forming_them(self, cutoff, a, b, r):
        rho = lz.fock_truncate(lz.squeezed_thermal_form(a, b, r), cutoff)
        if b == 1.0:
            assert not any(weights[1].any() for _, _, weights in rho._stacks)
        expected = (
            f"SectorDensityMatrix(dim_a={cutoff + 1}, dim_b={cutoff + 1}, "
            f"sectors={2 * cutoff + 1})"
        )
        assert repr(rho) == expected
        assert "sectors" not in vars(rho)
        assert len(rho.sectors) == 2 * cutoff + 1
        assert repr(rho) == expected


class TestBlochForm:
    @pytest.mark.parametrize("name", ["x", "y", "T"])
    def test_rejects_non_finite(self, name):
        parts = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
        parts[name] = np.array(parts[name])
        parts[name].flat[1] = np.inf if name == "T" else np.nan
        with pytest.raises(lz.InvalidStateError, match=f"non-finite entry in {name}"):
            lz.BlochForm(**parts)

    def test_names_the_part_and_position_of_a_non_finite_entry(self):
        parts = {"x": np.zeros(3), "y": np.zeros(8), "T": np.zeros((3, 8))}
        parts["x"][1] = np.nan
        parts["T"][2, 5] = np.inf
        with pytest.raises(lz.InvalidStateError, match=r"^non-finite entry in x at \(1,\)$"):
            lz.BlochForm(**parts)
        parts["x"][1] = 0.0
        with pytest.raises(lz.InvalidStateError, match=r"^non-finite entry in T at \(2, 5\)$"):
            lz.BlochForm(**parts)

    @pytest.mark.parametrize(
        "shapes",
        [((3,), (8,), (8, 3)), ((3, 1), (8,), (3, 8)), ((3,), (8, 1), (3, 8)), ((3,), (8,), (3,))],
    )
    def test_shape_mismatch_raises(self, shapes):
        # checked before the parts are copied or scanned
        parts = dict(zip("xyT", (np.full(shape, np.nan) for shape in shapes)))
        with pytest.raises(lz.DimensionMismatchError, match="inconsistent Bloch shapes"):
            lz.BlochForm(**parts)

    def test_copies_its_parts_into_one_read_only_matrix(self):
        rng = np.random.default_rng(3)
        x, y, t = rng.normal(size=3), rng.normal(size=8), rng.normal(size=(3, 8))
        form = lz.BlochForm(x=x, y=y, T=t)
        assert form.C.shape == (4, 9) and form.C.dtype == np.float64
        assert form.C[0, 0] == 1.0
        assert np.array_equal(form.C, np.block([[np.ones((1, 1)), y[None]], [x[:, None], t]]))
        for part in (x, y, t):
            assert not np.shares_memory(form.C, part)
        x[0] = y[0] = t[0, 0] = 7.0
        assert 7.0 not in form.C

    @pytest.mark.parametrize("name", ["x", "y", "T", "C", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        form = lz.BlochForm(x=np.zeros(3), y=np.zeros(3), T=np.zeros((3, 3)))
        with pytest.raises(AttributeError):
            setattr(form, name, np.ones(3))
        with pytest.raises(AttributeError):
            delattr(form, name)
        origin = np.zeros((4, 4))
        origin[0, 0] = 1.0
        assert np.array_equal(form.C, origin)

    def test_survives_a_deep_copy(self):
        form = lz.decompose(lz.random_density_matrix(2, 3, 4))
        clone = copy.deepcopy(form)
        assert np.array_equal(clone.C, form.C) and not clone.C.flags.writeable


class TestCoefficientMatrix:
    """decompose and reconstruct keep the bits of the three-part formulas."""

    SPLITS = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 2), (3, 4), (4, 3)]

    @staticmethod
    def states(na, nb):
        rho = lz.random_density_matrix(na, nb, 7 * na + nb)
        g = np.random.default_rng(na + 7 * nb).normal(size=(na * nb,) * 2)
        w = g @ g.T
        return {"complex": rho, "real": lz.DensityMatrix(na, nb, w / np.trace(w))}

    @pytest.mark.parametrize("na,nb", SPLITS)
    def test_decompose_matches_three_scaled_products(self, na, nb):
        for kind, rho in self.states(na, nb).items():
            form = lz.decompose(rho)
            for part, expected in zip((form.x, form.y, form.T), product_decompose(rho)):
                assert np.array_equal(part, expected), kind

    @pytest.mark.parametrize("na,nb", SPLITS)
    def test_reconstruct_matches_block_reassembly(self, na, nb):
        for kind, rho in self.states(na, nb).items():
            form = lz.decompose(rho)
            expected = block_reconstruct(form.x, form.y, form.T)
            assert np.array_equal(lz.reconstruct(form).data, expected), kind
        rng = np.random.default_rng(na * nb)
        ka, kb = na * na - 1, nb * nb - 1
        x, y, t = rng.normal(size=ka), rng.normal(size=kb), rng.normal(size=(ka, kb))
        assert np.array_equal(lz.reconstruct(lz.BlochForm(x=x, y=y, T=t)).data, block_reconstruct(x, y, t))

    @pytest.mark.parametrize("na,nb", SPLITS)
    def test_parts_are_read_only_views_of_one_matrix(self, na, nb):
        form = lz.decompose(lz.random_density_matrix(na, nb, 1))
        assert form.C.shape == (na * na, nb * nb) and form.C.dtype == np.float64
        assert form.C[0, 0] == 1.0
        assert not form.C.flags.writeable
        for part in (form.x, form.y, form.T):
            assert part.base is form.C
            assert np.shares_memory(part, form.C) or part.size == 0
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[...] = 0.0


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

    @pytest.mark.parametrize("na,nb", [(2, 5), (5, 2), (3, 4), (1, 3), (3, 1), (1, 1)])
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
