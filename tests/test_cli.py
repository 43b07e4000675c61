import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lazystates as lz
from conftest import (
    NEAR_PURE_FORM,
    make_witness,
    marginal_asymmetric_state,
    reference_canonical_json,
)
from lazystates import cli, stateio
from lazystates.cli import main
from lazystates.stateio import save_state, state_to_dict


@pytest.fixture()
def bell_file(tmp_path, bell):
    path = tmp_path / "bell.json"
    save_state(bell, path)
    return str(path)


@pytest.fixture()
def witness_file(tmp_path):
    path = tmp_path / "witness.json"
    save_state(make_witness(), path)
    return str(path)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy alone would add about
    # 240 ms and 28 MB to every CLI call
    code = (
        "import sys, lazystates, lazystates.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(lz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasis:
    def test_emits_generators_and_constants(self, capsys):
        code, out, _ = run(capsys, ["basis", "--dim", "2", "--emit-f"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "basis"
        assert doc["toolVersion"] == lz.__version__
        results = doc["results"]
        assert len(results["generators"]) == 3
        assert results["generators"][0][0][1] == [1, 0]
        assert results["f"] == [{"ijk": [1, 2, 3], "value": 1}]

    def test_manifest_reserializes_to_the_same_bytes(self, capsys):
        # su(3) has generator entries equal to -0.0, printed as 0
        code, out, _ = run(capsys, ["basis", "--dim", "3", "--emit-f"])
        assert code == 0
        assert lz.canonical_json(json.loads(out)) + "\n" == out
        assert "-0," not in out and "-0]" not in out

    @pytest.mark.parametrize(
        "dim,digest",
        [
            (2, "5dce4b0655a076d9639ba07b459d1a236404beea4c021c785134cad4604f13f2"),
            (3, "21380c9bca6630b4c4843588ae38633766034048dbaea1607ca5d72c74f7786c"),
            (4, "862aaac96758afeda98bde34bbc1aacff3a77b595b6ccab486025b91bffa0d15"),
        ],
    )
    def test_results_keep_their_bytes(self, capsys, dim, digest):
        # sha256 of the "results" text as the element-by-element writer printed
        # it; generators and constants come from closed forms, so the bytes do
        # not depend on the platform, and the rest of the manifest is left out
        code, out, _ = run(capsys, ["basis", "--dim", str(dim), "--emit-f"])
        assert code == 0
        results = out[out.index('"results":') + len('"results":') : out.rindex(',"seed":')]
        assert hashlib.sha256(results.encode()).hexdigest() == digest

    def test_constants_opt_in(self, capsys):
        code, out, _ = run(capsys, ["basis", "--dim", "3"])
        assert code == 0
        assert "f" not in json.loads(out)["results"]

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, ["basis", "--dim", "1"])
        assert code == 2
        assert "error" in err


class TestCheck:
    def test_lazy_state_exits_zero(self, capsys, bell_file):
        code, out, err = run(capsys, ["check", "--state", bell_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["A"]["isLazy"] is True
        assert doc["results"]["B"]["isLazy"] is True
        assert "lazy" in err

    def test_non_lazy_state_exits_one(self, capsys, witness_file):
        code, out, _ = run(capsys, ["check", "--state", witness_file, "--side", "A"])
        assert code == 1
        report = json.loads(out)["results"]["A"]
        assert report["isLazy"] is False
        assert report["commutatorResidual"] == pytest.approx(np.sqrt(2) / 8, rel=1e-12, abs=0)

    def test_both_sides_match_the_single_side_reports(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        save_state(lz.random_density_matrix(3, 2, 8), path)
        results = {}
        for side in ("both", "A", "B"):
            code, out, _ = run(capsys, ["check", "--state", str(path), "--side", side])
            assert code == 1
            results[side] = json.loads(out)["results"]
        for side in ("A", "B"):
            both = lz.canonical_json(results["both"][side])
            assert both == lz.canonical_json(results[side][side])

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", "--state", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, ["check", "--state", str(path)])
        assert code == 2
        assert "parse error" in err

    def test_non_finite_entry_exits_two(self, capsys, tmp_path, bell_file):
        doc = json.loads(Path(bell_file).read_text())
        doc["matrix"][0][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["check", "--state", str(path)])
        assert code == 2
        assert "non-finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_that_is_not_positive_and_finite_exits_two(self, capsys, bell_file, tol):
        code, out, err = run(capsys, ["check", "--state", bell_file, "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tolerance must be a positive finite number" in err

    def test_boolean_dimensions_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"dimA": true, "dimB": true, "matrix": [[[1, 0]]]}')
        code, out, err = run(capsys, ["check", "--state", str(path)])
        assert code == 2
        assert out == ""
        assert "positive integers" in err

    def test_deterministic_output(self, capsys, bell_file):
        _, first, _ = run(capsys, ["check", "--state", bell_file])
        _, second, _ = run(capsys, ["check", "--state", bell_file])
        assert first == second


@pytest.mark.parametrize("side", ["A", "B"])
def test_marginal_asymmetry_within_tolerance_is_decided(capsys, tmp_path, side):
    # each entry is within the hermiticity tolerance, their partial trace is not
    path = tmp_path / "state.json"
    save_state(marginal_asymmetric_state(side), path)
    code, _, err = run(capsys, ["check", "--state", str(path)])
    assert code == 1, err
    code, _, err = run(capsys, ["dynamics", "--state", str(path), "--side", side])
    assert code == 0, err


#: an integer literal beyond the float range; `json` keeps it a Python int
HUGE_INT = "1" * 401
#: numpy's message for a nesting whose rows differ in length
RAGGED_AFTER_ONE_AXIS = (
    "setting an array element with a sequence. The requested array has an "
    "inhomogeneous shape after 1 dimensions. The detected shape was (4,) + "
    "inhomogeneous part."
)


def write_with_overflow(path, doc, literal="1e999"):
    """Write `doc` as JSON, each "OVERFLOW" string as `literal`; `path` as str."""
    path.write_text(json.dumps(doc).replace('"OVERFLOW"', literal))
    return str(path)


def overflowing_state_file(tmp_path, positions, part=0, literal="1e999"):
    """A 2 x 2 maximally mixed state file with `literal` at `positions`."""
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for i, j in positions:
        matrix[i][j][part] = "OVERFLOW"
    doc = {"dimA": 2, "dimB": 2, "matrix": matrix}
    return write_with_overflow(tmp_path / "overflow.json", doc, literal)


@pytest.mark.parametrize("command", ["check", "decompose", "dynamics"])
@pytest.mark.parametrize(
    "positions,part,entry",
    [
        ([(2, 2)], 0, "(2, 2)"),
        ([(0, 3), (3, 0)], 0, "(0, 3)"),
        ([(1, 2), (2, 1)], 1, "(1, 2)"),
    ],
    ids=["diagonal", "pair", "imaginary-pair"],
)
def test_overflowing_literal_exits_two(capsys, tmp_path, command, positions, part, entry):
    # json reads 1e999 as inf without a NaN/Infinity token; the matrix check names it
    path = overflowing_state_file(tmp_path, positions, part)
    code, out, err = run(capsys, [command, "--state", path])
    assert code == 2
    assert out == ""
    assert err == f"error: non-finite entry at {entry}\n"


@pytest.mark.parametrize("command", ["check", "decompose", "dynamics"])
@pytest.mark.parametrize(
    "matrix",
    [[[["1", "0"]]], [[["nan", 0]]], [[["1", "OVERFLOW"]]]],
    ids=["quoted-number", "quoted-nan", "quoted-number-beside-huge-int"],
)
def test_string_entry_exits_two(capsys, tmp_path, command, matrix):
    # numpy would parse each string as a float
    doc = {"dimA": 1, "dimB": 1, "matrix": matrix}
    path = write_with_overflow(tmp_path / "string.json", doc, HUGE_INT)
    code, out, err = run(capsys, [command, "--state", path])
    assert (code, out) == (2, "")
    assert err == "error: malformed matrix entries: a string where a number belongs\n"


@pytest.mark.parametrize("command", ["check", "decompose", "dynamics"])
@pytest.mark.parametrize(
    "matrix,message",
    [
        ("[[[true, false]]]", "boolean true at $.matrix[0][0][0]"),
        ("[[[1, false]]]", "boolean false at $.matrix[0][0][1]"),
        ("[[[0.5, 0], [0, 0]], [[0, 0], [true, 0]]]", "boolean true at $.matrix[1][1][0]"),
        ("[[[1, null]]]", "null at $.matrix[0][0][1]"),
    ],
    ids=["all-boolean", "boolean-beside-a-number", "boolean-in-a-2x2", "null"],
)
def test_boolean_or_null_entry_exits_two(capsys, tmp_path, command, matrix, message):
    # numpy would read true as 1, false as 0 and null as NaN
    dims = '"dimA": 2, "dimB": 1' if matrix.count("[[") > 1 else '"dimA": 1, "dimB": 1'
    path = tmp_path / "state.json"
    path.write_text("{" + dims + ', "matrix": ' + matrix + "}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command, "--state", str(path)])
    assert [str(w.message) for w in caught] == []
    assert (code, out, err) == (2, "", f"error: {message} in {path}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"V": [[true, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
         "boolean true at $.V[0][0]"),
        ('{"V": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "d": [0, null, 0, 0]}',
         "null at $.d[1]"),
    ],
    ids=["boolean-in-V", "null-in-d"],
)
def test_boolean_or_null_covariance_entry_exits_two(capsys, tmp_path, text, message):
    path = tmp_path / "cov.json"
    path.write_text(text)
    code, out, err = run(capsys, ["gaussian", "--cov", str(path)])
    assert (code, out, err) == (2, "", f"error: {message} in {path}\n")


def test_booleans_and_nulls_outside_the_numbers_are_accepted(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text('{"dimA": 1, "dimB": 1, "flag": true, "note": "null or false", "matrix": [[[1, 0]]]}')
    assert run(capsys, ["check", "--state", str(state)])[0] == 0
    # a whole null displacement is an absent one
    cov = tmp_path / "cov.json"
    cov.write_text('{"V": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "d": null}')
    assert run(capsys, ["gaussian", "--cov", str(cov)])[0] == 0


@pytest.mark.parametrize("command", ["check", "decompose", "dynamics"])
def test_integer_beyond_float_range_exits_two(capsys, tmp_path, command):
    path = overflowing_state_file(tmp_path, [(2, 2)], literal=HUGE_INT)
    code, out, err = run(capsys, [command, "--state", path])
    assert code == 2
    assert out == ""
    assert err == "error: malformed matrix entries: int too large to convert to float\n"


def test_overflowing_trace_exits_two(capsys, tmp_path):
    # a finite Hermitian matrix whose diagonal sums beyond the float range
    matrix = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"dimA": 2, "dimB": 1, "matrix": matrix}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["check", "--state", str(path)])
    assert [str(w.message) for w in caught] == []
    assert (code, out, err) == (2, "", "error: trace deviation inf\n")


class TestDecompose:
    def test_bell_form(self, capsys, bell_file):
        code, out, _ = run(capsys, ["decompose", "--state", bell_file])
        assert code == 0
        results = json.loads(out)["results"]
        assert np.abs(np.array(results["x"])).max() < 1e-14
        t = np.array(results["T"], dtype=float)
        assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 1e-12


class TestDynamics:
    def test_audit_runs(self, capsys, bell_file):
        code, out, _ = run(
            capsys,
            ["dynamics", "--state", bell_file, "--trials", "5", "--seed", "7"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        results = doc["results"]
        assert len(results["perTrialRates"]) == 5
        assert results["consistentWithLaziness"] is True
        assert results["maxRate"] < 1e-8
        assert results["rateBound"] < 1e-12

    def test_negative_seed_exits_two(self, capsys, bell_file):
        code, out, err = run(capsys, ["dynamics", "--state", bell_file, "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "seed must be an integer >= 0, got -1" in err

    def test_witness_reports_the_exact_supremum(self, capsys, witness_file, witness):
        code, out, _ = run(capsys, ["dynamics", "--state", witness_file, "--trials", "5"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rateBound"] == lz.dynamics_audit(witness, "A", trials=1).rate_bound
        assert results["rateBound"] > 1e-3

    def test_summary_names_the_normalisation_of_each_figure(self, capsys, tmp_path):
        # the sampled couplings A (x) B are not unit norm, so the sampled
        # maximum exceeds the supremum over unit-norm couplings
        path = tmp_path / "random.json"
        save_state(lz.random_density_matrix(2, 2, 5), path)
        argv = ["dynamics", "--state", str(path), "--side", "A", "--trials", "100", "--seed", "0"]
        code, _, err = run(capsys, argv)
        assert code == 0
        assert err == (
            "max |dS_A/dt| = 2.401e+00 over 100 couplings A (x) B as drawn "
            "(||A (x) B||_F about n_A n_B); supremum 4.994e-01 over couplings "
            "with ||H||_F = 1; consistent with the commutator verdict\n"
        )

    def test_pure_marginal_product_is_consistent(self, capsys, tmp_path):
        pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
        path = tmp_path / "product.json"
        save_state(lz.product_state(pure, np.diag([0.6, 0.4])), path)
        code, out, _ = run(capsys, ["dynamics", "--state", str(path), "--side", "A"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["consistentWithLaziness"] is True
        assert results["maxRate"] < 1e-12
        assert results["rateBound"] < 1e-12


class TestGaussian:
    def test_quadratic_identity_violation_exits_three(self, capsys, monkeypatch):
        two_solves = cli.kernel_quadratic_difference
        monkeypatch.setattr(
            cli, "kernel_quadratic_difference",
            lambda form, u, v: two_solves(form, u, v) + 2e-9,
        )
        code, out, err = run(capsys, ["gaussian", "--form", "2,2,0.5,-0.5"])
        assert code == 3
        assert out == ""
        assert "quadratic-form identity violated" in err

    def test_one_kernel_build_and_inverse_per_command(self, capsys, monkeypatch, tmp_path):
        # the determinant and both quadratic probes share one kernel pair
        # and one inverse of its plus kernel
        built, inverted = [], []

        def counting(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lz.gaussian, "KernelPair", counting(built, lz.gaussian.KernelPair))
        monkeypatch.setattr(np.linalg, "inv", counting(inverted, np.linalg.inv))
        path = tmp_path / "cov.json"
        path.write_text(lz.canonical_json({"V": lz.GaussianStandardForm(2, 2, 0.5, -0.5).matrix()}))
        for argv in (["--form", "2,2,0.5,-0.5"], ["--cov", str(path)]):
            built.clear()
            inverted.clear()
            code, _, _ = run(capsys, ["gaussian", *argv])
            assert code == 1
            assert len(built) == 1 and len(inverted) == 1

    def test_lazy_product_form(self, capsys):
        code, out, _ = run(capsys, ["gaussian", "--form", "5,2,0,0"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["isLazy"] is True
        assert results["detIdentityResidual"] < 1e-9
        assert results["quadraticIdentityResidual"] < 1e-9
        assert results["symplecticEigenvalues"][0] == pytest.approx(2.0)

    def test_correlated_form_not_lazy(self, capsys):
        c = np.sinh(1.0)
        n = np.cosh(1.0)
        code, out, _ = run(
            capsys,
            ["gaussian", "--form", f"{n},{n},{c},{-c}", "--fock-check", "20"],
        )
        assert code == 1
        results = json.loads(out)["results"]
        assert results["isLazy"] is False
        assert results["fockResidual"] > 1e-3

    def test_unphysical_form_exits_two(self, capsys):
        code, _, err = run(capsys, ["gaussian", "--form", "1,1,0.5,0.5"])
        assert code == 2
        assert "uncertainty" in err
        # m^2 dominates Delta here; the true nu_minus is 0.879
        form = "1.000048983677866,119981374.47829217,-3642.546233868969,-3971.0003451206007"
        code, out, err = run(capsys, ["gaussian", "--form", form])
        assert code == 2
        assert out == ""
        assert "uncertainty relation: nu_minus = 0.878981" in err

    @pytest.mark.parametrize(
        "form",
        ["2.95,2.28e95,0.93,3.4e16", "1e80,4.34,4.34,-2.62", "1e200,1e200,0,0", "3e154,2,1,0.5"],
    )
    def test_variance_beyond_the_float_range_exits_two(self, capsys, form):
        # neither a numerical failure (exit 3) nor a NaN that JSON refuses
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["gaussian", "--form", form])
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err.startswith("error: local variances must be <= 1e+76, got n=")

    @pytest.mark.parametrize("block", ["A", "B"])
    def test_covariance_whose_local_determinant_overflows_exits_two(self, capsys, tmp_path, block):
        # the block and the bound are named, not the n = inf it would give
        diagonal = [1e160, 1e160, 2.0, 2.0] if block == "A" else [2.0, 2.0, 1e160, 1e160]
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"V": np.diag(diagonal).tolist()}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["gaussian", "--cov", str(path)])
        assert [str(w.message) for w in caught] == []
        dets = "det A = inf, det B = 4" if block == "A" else "det A = 4, det B = inf"
        assert (code, out) == (2, "")
        assert err == (
            f"error: local determinant beyond the float range: {dets}; "
            "local variances must be <= 1e+76\n"
        )

    def test_variances_at_the_bound_give_a_finite_manifest(self, capsys):
        for form, expected in (("1e76,1e76,0,0", 0), ("1e76,1e76,0.9e76,0.9e76", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, _ = run(capsys, ["gaussian", "--form", form])
            assert [str(w.message) for w in caught] == []
            assert code == expected
            results = json.loads(out)["results"]
            assert all(np.isfinite(results["symplecticEigenvalues"]))
            assert np.isfinite(results["detIdentityResidual"])
            assert np.isfinite(results["quadraticIdentityResidual"])

    def test_near_pure_squeezed_thermal_form_reaches_the_fock_check(self, capsys):
        # physical (the form's nu_minus reads 1.0000000375, the exact one
        # 0.999999999054612), and its thermal parameter b = 0.99999999896
        # is just below 1 - PHYSICALITY_TOL; the Fock check must run, and at
        # r = 3.99 cutoff 40 holds too little of the trace
        form = ",".join(map(repr, NEAR_PURE_FORM))
        code, out, _ = run(capsys, ["gaussian", "--form", form])
        assert code == 1
        assert json.loads(out)["results"]["isLazy"] is False
        code, out, err = run(capsys, ["gaussian", "--form", form, "--fock-check", "40"])
        assert code == 3
        assert out == ""
        assert "increase the cutoff" in err

    def test_non_positive_definite_form_exits_two(self, capsys, tmp_path):
        # nu = 2, 4 pass nu_minus >= 1, but M has eigenvalues -2, -2, 4, 4
        code, out, err = run(capsys, ["gaussian", "--form", "1,1,3,3"])
        assert code == 2
        assert out == ""
        assert "positive definite" in err
        path = tmp_path / "cov.json"
        v = [[1, 0, 3, 0], [0, 1, 0, 3], [3, 0, 1, 0], [0, 3, 0, 1]]
        path.write_text(lz.canonical_json({"V": v}))
        code, out, err = run(capsys, ["gaussian", "--cov", str(path)])
        assert code == 2
        assert out == ""
        assert "positive definite" in err
        # negative definite local blocks pass the det >= 1 vacuum check
        for diagonal, label in (([-2, -2, -2, -2], "A"), ([2, 2, -2, -2], "B")):
            path.write_text(lz.canonical_json({"V": np.diag(diagonal)}))
            code, out, err = run(capsys, ["gaussian", "--cov", str(path)])
            assert code == 2
            assert out == ""
            assert f"covariance block {label} is not positive definite" in err

    def test_covariance_file_input(self, capsys, tmp_path):
        form = lz.GaussianStandardForm(2.0, 2.0, 0.5, -0.5)
        path = tmp_path / "cov.json"
        path.write_text(
            lz.canonical_json({"V": form.matrix(), "d": [0, 0, 0, 0]})
        )
        code, out, _ = run(capsys, ["gaussian", "--cov", str(path)])
        assert code == 1
        results = json.loads(out)["results"]
        assert results["standardForm"]["c"] == pytest.approx(0.5, rel=1e-10, abs=0)

    def test_non_finite_covariance_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text('{"V": [[NaN, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}')
        code, out, err = run(capsys, ["gaussian", "--cov", str(path)])
        assert code == 2
        assert out == ""
        assert "non-finite number NaN at $.V[0][0]" in err

    @pytest.mark.parametrize(
        "positions,entry", [([(0, 0)], "(0, 0)"), ([(0, 3), (3, 0)], "(0, 3)")],
        ids=["diagonal", "pair"],
    )
    def test_overflowing_covariance_exits_two(self, capsys, tmp_path, positions, entry):
        v = np.eye(4).tolist()
        for i, j in positions:
            v[i][j] = "OVERFLOW"
        path = write_with_overflow(tmp_path / "cov.json", {"V": v})
        code, out, err = run(capsys, ["gaussian", "--cov", path])
        assert code == 2
        assert out == ""
        assert err == f"error: non-finite entry at {entry} of covariance matrix V\n"

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"V": [["OVERFLOW", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: int too large to convert to float"),
            ({"V": np.eye(4).tolist(), "d": [0, "OVERFLOW", 0, 0]},
             "malformed displacement d: int too large to convert to float"),
            ({"V": [[{}, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: float() argument must be a string or a "
             "real number, not 'dict'"),
            ({"V": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: " + RAGGED_AFTER_ONE_AXIS),
            ({"V": np.eye(4).tolist(), "d": [0, [0], 0, 0]},
             "malformed displacement d: " + RAGGED_AFTER_ONE_AXIS),
            ({"V": [["abc", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: a string where a number belongs"),
            ({"V": [["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: a string where a number belongs"),
            # an int beyond int64 makes numpy infer an object array
            ({"V": [["1", 2**70, 0, 0], [2**70, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
             "malformed covariance matrix V: a string where a number belongs"),
            ({"V": np.eye(4).tolist(), "d": ["0", 0, 0, 0]},
             "malformed displacement d: a string where a number belongs"),
        ],
        ids=["V", "d", "object-entry", "ragged-V", "ragged-d", "string-V", "quoted-number-V",
             "quoted-number-beside-wide-int-V", "quoted-number-d"],
    )
    def test_uncastable_covariance_entry_exits_two(self, capsys, tmp_path, doc, message):
        path = write_with_overflow(tmp_path / "cov.json", doc, HUGE_INT)
        code, out, err = run(capsys, ["gaussian", "--cov", path])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_that_is_not_positive_and_finite_exits_two(self, capsys, tol):
        code, out, err = run(capsys, ["gaussian", "--form", "5,2,0,0", "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tolerance must be a positive finite number" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, ["gaussian"])
        assert code == 2
        assert "exactly one" in err


class TestExample:
    def test_generate_and_check(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        code, out, _ = run(
            capsys,
            ["example", "--name", "werner", "--param", "p=0.5",
             "--save", str(target), "--quiet"],
        )
        assert code == 0
        assert json.loads(out)["results"]["name"] == "werner"
        code, _, _ = run(capsys, ["check", "--state", str(target)])
        assert code == 0

    def test_vector_parameters(self, capsys):
        code, out, _ = run(
            capsys,
            ["example", "--name", "diagonal_correlation",
             "--param", "correlations=0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"],
        )
        assert code == 0
        assert json.loads(out)["results"]["state"]["dimA"] == 3

    def test_random_records_seed(self, capsys):
        code, out, _ = run(
            capsys,
            ["example", "--name", "random", "--param", "dimA=2",
             "--param", "dimB=2", "--param", "seed=9"],
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    @pytest.mark.parametrize(
        "params,name",
        [
            (["d=2.5"], "d"),
            (["dimA=2.9", "seed=1"], "dimA"),
            (["dimB=3.0"], "dimB"),
            (["dimA=2", "seed=1.7"], "seed"),
        ],
    )
    def test_non_integer_parameters_exit_two(self, capsys, params, name):
        example = "maximally_entangled" if name == "d" else "random"
        argv = ["example", "--name", example]
        for param in params:
            argv += ["--param", param]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"parameter {name} must be an integer" in err

    def test_negative_seed_exits_two(self, capsys):
        code, out, err = run(capsys, ["example", "--name", "random", "--param", "seed=-1"])
        assert code == 2
        assert out == ""
        assert "seed must be an integer >= 0, got -1" in err

    @pytest.mark.parametrize(
        "name,param,message",
        [
            ("werner", "p=inf", "parameter p must be a finite number, got inf"),
            ("werner", "p=1e999", "parameter p must be a finite number, got inf"),
            ("werner", "p=-inf", "parameter p must be a finite number, got -inf"),
            ("product", "a=inf,0.5", "non-finite entry in marginal a at (0, 0)"),
            ("product", "b=0.5,-1e999", "non-finite entry in marginal b at (1, 1)"),
        ],
    )
    def test_non_finite_parameters_exit_two(self, capsys, name, param, message):
        code, out, err = run(capsys, ["example", "--name", name, "--param", param])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "name,param,message",
        [
            ("werner", f"p={HUGE_INT}", "parameter p must be a finite number, got inf"),
            ("werner", f"p=-{HUGE_INT}", "parameter p must be a finite number, got -inf"),
            ("product", f"a={HUGE_INT},0.5", "non-finite entry in marginal a at (0, 0)"),
            ("maximally_entangled", f"d={HUGE_INT}", "parameter d must be an integer, got inf"),
        ],
        ids=["werner", "werner-negative", "product", "maximally-entangled"],
    )
    def test_integer_parameters_beyond_float_range_exit_two(self, capsys, name, param, message):
        # read as +-inf, so the generators' own finiteness checks name the parameter
        code, out, err = run(capsys, ["example", "--name", name, "--param", param])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "name,params,message",
        [
            (
                "maximally_entangled",
                ["d=1000000000000"],
                "maximally entangled dimension d = 1000000000000 is too large: a dense "
                f"{10**24} x {10**24} complex matrix would take 1.6e+49 bytes",
            ),
            (
                "random",
                ["dimA=100000000000"],
                "dimensions dimA x dimB = 100000000000 x 2 are too large: a dense "
                f"{2 * 10**11} x {2 * 10**11} complex matrix would take 6.4e+23 bytes",
            ),
            (
                "random",
                ["dimA=3", "dimB=1000000000"],
                "dimensions dimA x dimB = 3 x 1000000000 are too large: a dense "
                f"{3 * 10**9} x {3 * 10**9} complex matrix would take 1.44e+20 bytes",
            ),
        ],
        ids=["maximally-entangled", "random-dimA", "random-dimB"],
    )
    def test_oversized_parameters_exit_two_before_allocating(self, capsys, name, params, message):
        # every size here is beyond numpy's array limit, so nothing is allocated
        argv = ["example", "--name", name]
        for param in params:
            argv += ["--param", param]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        limit = np.iinfo(np.intp).max
        assert err == f"error: {message}, over numpy's limit of {limit} bytes per array\n"

    @pytest.mark.parametrize(
        "target,argv,message",
        [
            (
                "build_su_basis",
                ["basis", "--dim", "3000"],
                "Unable to allocate 1.15 PiB for an array with shape "
                "(9000000, 3000, 3000) and data type complex128",
            ),
            (
                "generate_example",
                ["example", "--name", "random", "--param", "dimA=3000", "--param", "dimB=3000"],
                "",
            ),
        ],
        ids=["basis-numpy-message", "example-bare"],
    )
    def test_memory_error_exits_two_with_one_line(self, capsys, monkeypatch, target, argv, message):
        # the handler raises as an allocation beyond the machine's memory
        # would, so nothing is allocated here
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, out_of_memory)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message or 'out of memory'}\n"

    def test_unphysical_parameters_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            ["example", "--name", "diagonal_correlation", "--param",
             "correlations=0.5"],
        )
        assert code == 2
        assert "positivity" in err


class TestProducerBytes:
    """The CLI hands the writer arrays; the bytes are those of their list forms."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("werner", {"p": 0.5}),
            ("random", {"dimA": 2, "dimB": 3, "seed": 4}),
            ("random", {"dimA": 1, "dimB": 3, "seed": 5}),
            ("random", {"dimA": 3, "dimB": 1, "seed": 6}),
        ],
        ids=["real-valued", "complex", "1xn", "nx1"],
    )
    def test_example_save_and_manifest(self, capsys, tmp_path, name, params):
        target = tmp_path / "state.json"
        argv = ["example", "--name", name, "--save", str(target)]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        state = state_to_dict(lz.generate_example(name, params))
        assert target.read_text() == reference_canonical_json(state) + "\n"
        manifest = json.loads(out)
        manifest["results"]["state"] = state
        assert out == reference_canonical_json(manifest) + "\n"

    def test_example_save_formats_the_state_once(self, capsys, tmp_path, monkeypatch):
        blocks = []
        format_block = stateio._format_block
        monkeypatch.setattr(stateio, "_format_block", lambda arr: blocks.append(arr.shape) or format_block(arr))
        target = tmp_path / "state.json"
        argv = ["example", "--name", "random", "--param", "dimA=2", "--param", "dimB=3", "--save", str(target)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert blocks == [(6, 6, 2)]
        assert json.loads(out)["results"]["state"] == json.loads(target.read_text())

    @pytest.mark.parametrize("trials", [1, 100])
    def test_dynamics_rates(self, capsys, witness_file, trials):
        argv = ["dynamics", "--state", witness_file, "--trials", str(trials), "--seed", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        audit = lz.dynamics_audit(lz.load_state(witness_file), "A", trials, 3)
        manifest = json.loads(out)
        manifest["results"]["perTrialRates"] = list(audit.per_trial_rates)
        assert len(audit.per_trial_rates) == trials
        assert out == reference_canonical_json(manifest) + "\n"


class TestManifest:
    def test_output_file_and_quiet(self, capsys, tmp_path, bell_file):
        target = tmp_path / "manifest.json"
        code, out, err = run(
            capsys,
            ["check", "--state", bell_file, "--output", str(target), "--quiet"],
        )
        assert code == 0
        assert err == ""
        assert target.read_text().strip() == out.strip()

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "m.json"
        code, out, err = run(capsys, ["basis", "--dim", "2", "--output", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not target.exists()

    def test_no_command_exits_two(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2


class TestParserReuse:
    def test_repeated_calls_match_fresh_parsers(
        self, capsys, monkeypatch, bell_file, witness_file
    ):
        argvs = [
            ["check", "--state", witness_file, "--side", "A", "--tol", "1e-6"],
            ["example", "--name", "random", "--param", "dimA=2", "--param", "seed=4"],
            ["check", "--state", bell_file],
            ["example", "--name", "random", "--param", "dimB=3", "--param", "seed=5"],
            ["gaussian", "--form", "2,2,0.5,-0.5", "--fock-check", "6"],
            ["example", "--name", "random", "--param", "dimA=2", "--param", "seed=4"],
            ["basis", "--dim", "2"],
        ]
        reused = [run(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, argv) for argv in argvs]
        assert reused == fresh
        # --param appends: a reused parser must not carry values across calls
        first, second = (json.loads(reused[i][1])["parameters"]["param"] for i in (1, 3))
        assert first == ["dimA=2", "seed=4"]
        assert second == ["dimB=3", "seed=5"]
        assert reused[1] == reused[5]

    def test_main_reuses_one_parser_and_build_parser_stays_fresh(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
