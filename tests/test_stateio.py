import json

import numpy as np
import pytest

import lazystates as lz
from conftest import reference_canonical_json
from lazystates import bloch, stateio
from lazystates.stateio import (
    _Fragment,
    canonical_json,
    load_state,
    save_state,
    state_from_dict,
    state_to_dict,
)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"
        assert canonical_json(-2.5e-10) == "-2.5000000000000002e-10"

    def test_sorted_keys_and_nesting(self):
        doc = {"b": [1, 2.5, None, True], "a": {"z": "s", "y": [0.0]}}
        assert canonical_json(doc) == '{"a":{"y":[0],"z":"s"},"b":[1,2.5,null,true]}'

    def test_numpy_scalars_and_arrays(self):
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.bool_(True)) == "true"
        assert canonical_json(np.array([1.0, 2.0])) == "[1,2]"

    def test_output_parses_back(self):
        doc = {"x": [0.1, -3.7e8, 12], "flag": False}
        assert json.loads(canonical_json(doc)) == doc

    @pytest.mark.parametrize(
        "value",
        [
            float("inf"),
            float("nan"),
            -float("inf"),
            np.float64("nan"),
            np.float32("inf"),
            {"a": [1.0, [0.5, float("nan")]]},
            np.array([[1.0, 2.0], [np.inf, 0.0]]),
        ],
        ids=["inf", "nan", "-inf", "np.float64-nan", "np.float32-inf", "nested", "ndarray"],
    )
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite value"):
            canonical_json(value)

    def test_fragment_is_written_verbatim(self):
        inner = canonical_json({"b": [0.1, -0.0], "a": True})
        doc = {"z": _Fragment(inner), "y": [_Fragment("1.5"), "1.5"]}
        assert canonical_json(doc) == '{"y":[1.5,"1.5"],"z":' + inner + "}"
        assert canonical_json(doc) == canonical_json({"z": json.loads(inner), "y": [1.5, "1.5"]})

    def test_negative_zero_in_a_list_prints_as_zero(self):
        assert canonical_json([-0.0, 1.5, [-0.0]]) == "[0,1.5,[0]]"

    @pytest.mark.parametrize(
        "value",
        [
            0,
            -7,
            87,
            True,
            False,
            np.int64(-3),
            np.int32(12),
            10**400,
            -(10**400),
            [1, True, np.int64(2), 2**63, 3.0],
            {"i": 1, "j": [np.int64(0), False, 10**309]},
            np.array([1, 2, 3]),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_ints_match_the_element_by_element_writer(self, value):
        # a plain int takes the writer's shortcut; a bool, a numpy int and
        # an int beyond the float range keep their own text
        assert canonical_json(value) == reference_canonical_json(value)


class TestStateFiles:
    def test_roundtrip(self, tmp_path, bell):
        path = tmp_path / "bell.json"
        save_state(bell, path)
        loaded = load_state(path)
        assert loaded.dim_a == 2 and loaded.dim_b == 2
        assert np.abs(loaded.data - bell.data).max() < 1e-16

    def test_save_is_canonical_fixed_point(self, tmp_path):
        rho = lz.random_density_matrix(2, 3, 10)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_state(rho, first)
        save_state(load_state(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("dims", [(2, 3), (1, 4), (4, 1), (1, 1)])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_saved_bytes_match_the_element_by_element_writer(self, tmp_path, dims, real):
        # the conjugate, the transpose of a state, has -0.0 imaginary parts on its diagonal
        data = lz.random_density_matrix(*dims, 7).data.conj()
        if real:
            # the real part of a density matrix is one too
            data = data.real.copy()
        rho = lz.DensityMatrix(*dims, data)
        assert rho.data.dtype == (np.float64 if real else np.complex128)
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert path.read_text() == reference_canonical_json(state_to_dict(rho)) + "\n"

    def test_rejects_bad_trace(self, tmp_path):
        doc = state_to_dict(lz.random_density_matrix(2, 2, 0))
        doc["matrix"][0][0][0] -= 0.1
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(lz.InvalidStateError, match="trace deviation"):
            load_state(path)

    def test_rejects_non_hermitian(self, tmp_path):
        doc = state_to_dict(lz.random_density_matrix(2, 2, 0))
        doc["matrix"][0][1][0] += 0.25
        path = tmp_path / "herm.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(lz.InvalidStateError, match=r"asymmetry .* at entry"):
            load_state(path)

    def test_rejects_negative_eigenvalue(self, tmp_path):
        doc = {
            "dimA": 2,
            "dimB": 2,
            "matrix": [
                [[1.5, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [-0.5, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
            ],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(lz.InvalidStateError, match="positivity"):
            load_state(path)

    def test_rejects_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(lz.InvalidStateError, match="parse error"):
            load_state(path)

    def test_rejects_non_finite_token(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dimA": 1, "dimB": 1, "matrix": [[[1.0, NaN]]]}')
        with pytest.raises(lz.InvalidStateError, match=r"NaN at \$\.matrix\[0\]\[0\]\[1\]"):
            load_state(path)

    @pytest.mark.parametrize(
        "entries,message",
        [("[[[true, false]]]", r"boolean true at \$\.matrix\[0\]\[0\]\[0\]"),
         ("[[[1.0, null]]]", r"null at \$\.matrix\[0\]\[0\]\[1\]")],
    )
    def test_rejects_boolean_and_null_entries(self, tmp_path, entries, message):
        path = tmp_path / "flag.json"
        path.write_text('{"dimA": 1, "dimB": 1, "matrix": ' + entries + "}")
        with pytest.raises(lz.InvalidStateError, match=message + " in "):
            load_state(path)

    @pytest.mark.parametrize(
        "matrix,message",
        [([[[True, False]]], r"boolean true at \$\.matrix\[0\]\[0\]\[0\]"),
         ([[[1.0, None]]], r"null at \$\.matrix\[0\]\[0\]\[1\]"),
         (np.array([[[True, False]]]), r"boolean true at \$\.matrix\[0\]\[0\]\[0\]"),
         ([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, np.False_]]],
          r"boolean false at \$\.matrix\[1\]\[1\]\[1\]")],
        ids=["booleans", "null", "bool array", "numpy bool"],
    )
    def test_dict_rejects_boolean_and_null_entries(self, matrix, message):
        dims = {"dimA": len(matrix), "dimB": 1}
        with pytest.raises(lz.InvalidStateError, match=f"^{message}$"):
            state_from_dict({**dims, "matrix": matrix})

    def test_load_walks_the_matrix_only_on_a_word_in_the_text(self, tmp_path, monkeypatch):
        # the text scan already rules booleans and nulls out of a plain
        # numeric file, so its lists are not walked again; the number
        # reader walks a dictionary's lists
        calls = []
        original = bloch._reject_boolean_or_null

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        for module in (stateio, bloch):
            monkeypatch.setattr(module, "_reject_boolean_or_null", counting)
        path = tmp_path / "plain.json"
        path.write_text('{"dimA": 1, "dimB": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        load_state(path)
        assert calls == []
        path.write_text('{"dimA": 1, "dimB": 1, "note": "true", "matrix": [[[1, 0]]]}')
        load_state(path)
        assert calls == ["$"]
        state_from_dict({"dimA": 1, "dimB": 1, "matrix": [[[1, 0]]]})
        assert calls == ["$", "$.matrix"]

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"dimA": 2}')
        with pytest.raises(lz.InvalidStateError, match="missing keys"):
            load_state(path)

    def test_rejects_bad_dimensions(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text('{"dimA": 0, "dimB": 2, "matrix": []}')
        with pytest.raises(lz.InvalidStateError, match="positive integers"):
            load_state(path)

    @pytest.mark.parametrize("dims", ['"dimA": true, "dimB": true', '"dimA": 1.0, "dimB": 1'])
    def test_rejects_boolean_and_float_dimensions(self, tmp_path, dims):
        path = tmp_path / "dims.json"
        path.write_text("{" + dims + ', "matrix": [[[1, 0]]]}')
        with pytest.raises(lz.InvalidStateError, match="positive integers"):
            load_state(path)

    def test_real_state_serializes_like_its_complex_cast(self):
        g = np.random.default_rng(5).standard_normal((6, 6))
        w = g @ g.T
        real = lz.DensityMatrix(2, 3, w / np.trace(w))
        cast = lz.DensityMatrix(2, 3, real.data.astype(complex))
        assert real.data.dtype == np.float64
        assert canonical_json(state_to_dict(real)) == canonical_json(state_to_dict(cast))


class TestCovarianceFiles:
    def test_roundtrip(self, tmp_path):
        form = lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.5)
        path = tmp_path / "cov.json"
        path.write_text(
            canonical_json({"V": form.matrix(), "d": [0.0, 0.0, 0.0, 0.0]})
        )
        cov = lz.load_covariance(path)
        assert np.abs(cov.V - form.matrix()).max() == 0.0

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_token(self, tmp_path, token):
        path = tmp_path / "cov.json"
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        text = json.dumps({"V": rows}).replace("[0, 0, 1, 0]", f"[0, 0, {token}, 0]")
        path.write_text(text)
        with pytest.raises(lz.InvalidStateError, match=rf"{token} at \$\.V\[2\]\[2\]"):
            lz.load_covariance(path)

    def test_rejects_missing_matrix(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"d": [0, 0, 0, 0]}')
        with pytest.raises(lz.InvalidStateError, match="'V'"):
            lz.load_covariance(path)


def test_loaders_never_walk_a_clean_file(tmp_path, monkeypatch):
    # the text scan has ruled booleans and nulls out, so neither loader
    # walks the numbers again: every walk goes through bloch._locate
    def refuse(*args):
        raise AssertionError("a clean file was walked")

    monkeypatch.setattr(bloch, "_locate", refuse)
    state = lz.random_density_matrix(2, 2, 4)
    save_state(state, tmp_path / "state.json")
    assert np.array_equal(load_state(tmp_path / "state.json").data, state.data)
    v = lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.5).matrix()
    (tmp_path / "cov.json").write_text(canonical_json({"V": v, "d": [0.0, 0.5, 0.0, 0.0]}))
    cov = lz.load_covariance(tmp_path / "cov.json")
    assert np.array_equal(cov.V, v) and cov.d.tolist() == [0.0, 0.5, 0.0, 0.0]
    (tmp_path / "v.json").write_text(canonical_json({"V": v}))
    assert np.array_equal(lz.load_covariance(tmp_path / "v.json").V, v)


class TestExamples:
    def test_every_generator_survives_reload(self, tmp_path):
        cases = [
            ("maximally_entangled", {"d": 3}),
            ("product", {}),
            ("diagonal_correlation", {"correlations": 0.1}),
            ("werner", {"p": 0.5}),
            ("random", {"dimA": 2, "dimB": 3, "seed": 4}),
        ]
        for name, params in cases:
            state = lz.generate_example(name, params)
            path = tmp_path / f"{name}.json"
            save_state(state, path)
            loaded = load_state(path)
            assert np.abs(loaded.data - state.data).max() < 1e-15

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown example"):
            lz.generate_example("ghz", {})

    @pytest.mark.parametrize("name", ["ghz", 3, None, ["werner"], {"werner": 1}])
    def test_unknown_name_of_any_type(self, name):
        # an unhashable name is unknown too, not a TypeError of the lookup
        known = "maximally_entangled, product, diagonal_correlation, werner, random"
        with pytest.raises(ValueError) as info:
            lz.generate_example(name, {})
        assert str(info.value) == f"unknown example {name!r}; known: {known}"

    def test_every_listed_name_builds(self):
        assert lz.EXAMPLE_NAMES == (
            "maximally_entangled", "product", "diagonal_correlation", "werner", "random"
        )
        for name in lz.EXAMPLE_NAMES:
            assert lz.generate_example(name).is_physical

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            lz.generate_example("werner", {"q": 0.5})

    def test_maximally_entangled_rejects_non_integer_dim(self):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2, got 2.5"):
            lz.maximally_entangled(2.5)

    def test_unphysical_parameters_rejected(self):
        with pytest.raises(lz.InvalidStateError, match="positivity"):
            lz.generate_example("diagonal_correlation", {"correlations": 0.5})

    def test_werner_is_lazy_both_sides(self):
        state = lz.generate_example("werner", {"p": 0.5})
        form = lz.decompose(state)
        assert np.abs(form.x).max() < 1e-14
        assert np.abs(form.y).max() < 1e-14
        assert lz.is_lazy(state, "A").is_lazy
        assert lz.is_lazy(state, "B").is_lazy

    def test_maximally_entangled_lazy_both_sides(self):
        state = lz.generate_example("maximally_entangled", {"d": 2})
        assert lz.is_lazy(state, "A").is_lazy
        assert lz.is_lazy(state, "B").is_lazy
