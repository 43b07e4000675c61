import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lazystates as lz
from conftest import make_witness, marginal_asymmetric_state
from lazystates import cli
from lazystates.cli import main
from lazystates.stateio import save_state


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

    def test_witness_reports_the_exact_supremum(self, capsys, witness_file, witness):
        code, out, _ = run(capsys, ["dynamics", "--state", witness_file, "--trials", "5"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rateBound"] == lz.dynamics_audit(witness, "A", trials=1).rate_bound
        assert results["rateBound"] > 1e-3

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

    def test_unphysical_parameters_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            ["example", "--name", "diagonal_correlation", "--param",
             "correlations=0.5"],
        )
        assert code == 2
        assert "positivity" in err


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
