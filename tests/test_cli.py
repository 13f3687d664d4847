import json

import numpy as np
import pytest

import minbasis as mb
from minbasis.cli import main
from minbasis.polymat import save, PolyMat

from helpers import common_factor_2x4, example1, example2, example3, random_perturbation


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "example1.json"
    save(example1(), path)
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "example2.json"
    save(example2(), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_example1(capsys, ex1_file):
    code, report = run_json(capsys, ["analyze", ex1_file, "--json"])
    assert code == 0
    assert report["results"]["ranks"] == [8, 16, 24, 30]
    assert report["results"]["d_prime"] == 3
    assert report["results"]["minimal_indices"] == [3, 3]
    assert report["results"]["certificate"]["is_minimal_basis"] is True
    assert report["input"] == {"rows": 6, "cols": 8, "degree_bound": 1, "field": "real"}


def test_analyze_example2_reports_verdict_with_exit_zero(capsys, ex2_file):
    code, report = run_json(capsys, ["analyze", ex2_file, "--json"])
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["is_minimal_basis"] is False
    assert cert["reason"] == "degree_sum_mismatch"


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "real"}')
    code = main(["analyze", str(bad), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "missing required key" in err


def test_analyze_invalid_json_syntax_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    code = main(["analyze", str(bad), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


def test_certify_strict_exit_codes(capsys, ex1_file, ex2_file):
    assert main(["certify", ex1_file, "--json"]) == 0
    capsys.readouterr()
    assert main(["certify", ex2_file, "--json"]) == 0
    capsys.readouterr()
    assert main(["certify", ex2_file, "--json", "--strict"]) == 1
    capsys.readouterr()
    assert main(["certify", ex1_file, "--json", "--strict"]) == 0


def test_fullsyl_command(capsys, ex1_file):
    code, report = run_json(capsys, ["fullsyl", ex1_file, "--json"])
    assert code == 0
    res = report["results"]
    assert res["has_full_sylvester_rank"] is True
    assert res["k_prime"] == 3 and res["t"] == 0
    assert res["predicted_indices"] == [3, 3]


def test_radius_command_value(capsys, ex1_file):
    code, report = run_json(capsys, ["radius", ex1_file, "--json"])
    assert code == 0
    assert abs(report["results"]["radius"] - 0.2569) < 1e-3
    assert report["results"]["k_used"] == 3


def test_radius_text_output(capsys, ex1_file):
    code = main(["radius", ex1_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "radius = 0.256945 at k = 3" in out


def test_radius_on_fragile_input_exits_2(tmp_path, capsys):
    path = tmp_path / "example3.json"
    save(example3(), path)
    code = main(["radius", str(path), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "leading coefficient" in err


def test_dual_command(capsys, ex1_file):
    code, report = run_json(capsys, ["dual", ex1_file, "--json"])
    assert code == 0
    assert report["results"]["row_degrees"] == [3, 3]
    assert report["results"]["residual"] < 1e-10
    N = mb.from_dict(report["results"]["dual_basis"])
    assert N.rows == 2 and N.cols == 8


def test_perturb_command(capsys, tmp_path, ex1_file):
    rng = np.random.default_rng(0)
    M = example1()
    pair = mb.dual_minimal_basis(M)
    from minbasis.dual import admissible_radius

    delta = random_perturbation(M, 0.1 * admissible_radius(M, pair.N), rng)
    dpath = tmp_path / "delta.json"
    save(delta, dpath)
    code, report = run_json(capsys, ["perturb", ex1_file, str(dpath), "--json"])
    assert code == 0
    res = report["results"]
    assert res["relative_change"] <= res["guaranteed_bound"]
    assert res["applied_norm"] < res["admissible_radius"]


def test_perturb_rejects_inadmissible_with_exit_2(capsys, tmp_path, ex1_file):
    rng = np.random.default_rng(1)
    delta = random_perturbation(example1(), 10.0, rng)
    dpath = tmp_path / "delta.json"
    save(delta, dpath)
    code = main(["perturb", ex1_file, str(dpath), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "admissible" in err


def test_generic_command(capsys):
    code, report = run_json(
        capsys,
        ["generic", "--m", "3", "--n", "2", "--d", "2", "--trials", "25",
         "--seed", "42", "--json"],
    )
    assert code == 0
    assert report["results"]["successes"] == 25
    assert report["results"]["failures"] == []


def test_lify_command(capsys, tmp_path, ex1_file):
    K = PolyMat.from_coeff_list(
        [np.hstack([np.eye(2), np.zeros((2, 6))]), np.zeros((2, 8))]
    )
    kpath = tmp_path / "k.json"
    save(K, kpath)
    code, report = run_json(capsys, ["lify", str(kpath), ex1_file, "--json"])
    assert code == 0
    assert report["results"]["k_prime"] == 3
    assert report["results"]["p_degree_bound"] == 4


def test_oracle_rank_command(capsys, ex2_file):
    code, report = run_json(capsys, ["oracle-rank", ex2_file, "--json"])
    assert code == 0
    assert report["results"]["ranks"] == [6, 11, 15]
    assert report["results"]["alphas"] == [1, 1, 1]
    assert report["results"]["minimal_indices"] == [0, 1, 2]


def test_json_reports_are_deterministic(capsys, ex1_file):
    _, first = run_json(capsys, ["analyze", ex1_file, "--json", "--seed", "5"])
    _, second = run_json(capsys, ["analyze", ex1_file, "--json", "--seed", "5"])
    first.pop("wall_time")
    second.pop("wall_time")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_tol_env_var_is_used(capsys, ex1_file, monkeypatch):
    # An absurd threshold wipes out every rank, so certification must fail.
    monkeypatch.setenv("MINBASIS_TOL", "1e6")
    code, report = run_json(capsys, ["certify", ex1_file, "--json"])
    assert code == 0
    assert report["results"]["is_minimal_basis"] is False
    assert report["tolerances"]["tol"] == 1e6


def test_tol_flag_beats_env_var(capsys, ex1_file, monkeypatch):
    monkeypatch.setenv("MINBASIS_TOL", "1e6")
    code, report = run_json(capsys, ["certify", ex1_file, "--json", "--tol", "1e-10"])
    assert code == 0
    assert report["results"]["is_minimal_basis"] is True
    assert report["tolerances"]["tol"] == 1e-10


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_invalid_tolerance_exits_2(capsys, tmp_path, monkeypatch, value):
    # (lam - 2) C is not a minimal basis; a bad tolerance must not say it is.
    path = tmp_path / "cf.json"
    save(common_factor_2x4(), path)
    assert main(["certify", str(path), "--tol", value, "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(float(value)) in captured.err
    monkeypatch.setenv("MINBASIS_TOL", value)
    assert main(["certify", str(path), "--strict"]) == 2
    assert repr(float(value)) in capsys.readouterr().err
    assert main(["analyze", str(path), "--json"]) == 2


def test_missing_file_exits_2(capsys):
    code = main(["analyze", "/nonexistent/x.json", "--json"])
    assert code == 2
