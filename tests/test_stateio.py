import json

import numpy as np
import pytest

import lazystates as lz
from lazystates.stateio import canonical_json, load_state, save_state, state_to_dict


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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))


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

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            lz.generate_example("werner", {"q": 0.5})

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
