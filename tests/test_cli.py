import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minbasis as mb
from minbasis.cli import _build_parser, main
from minbasis.polymat import from_dict, save, PolyMat

from helpers import (
    LinalgSpy,
    common_factor_2x4,
    example1,
    example2,
    example3,
    flat_1311,
    random_perturbation,
)


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
    # The full-Sylvester-rank test of S_3 alone settles the profile.
    assert report["results"]["decided_k"] == [3]
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


@pytest.mark.parametrize("fixture, code", [("ex1_file", 0), ("ex2_file", 1)],
                         ids=["minimal", "not_minimal"])
def test_the_cli_runs_as_its_own_process(request, fixture, code):
    # ``python -m minbasis.cli`` in a fresh interpreter: the module entry
    # point turns main()'s return value into the process exit code and
    # prints one JSON report on stdout.
    package_root = str(Path(mb.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "minbasis.cli", "certify", "--json", "--strict",
         request.getfixturevalue(fixture)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "certify"
    assert report["results"]["is_minimal_basis"] is (code == 0)


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
    N = from_dict(report["results"]["dual_basis"])
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


def _perturb_files(tmp_path, N=None):
    M = example1()
    pair = mb.dual_minimal_basis(M)
    from minbasis.dual import admissible_radius

    delta = random_perturbation(M, 0.1 * admissible_radius(M, pair.N), np.random.default_rng(0))
    save(delta, tmp_path / "delta.json")
    save(pair.N if N is None else N, tmp_path / "N.json")
    return str(tmp_path / "delta.json"), str(tmp_path / "N.json")


def test_perturb_with_the_extracted_dual_supplied_gives_the_same_report(
    capsys, tmp_path, ex1_file
):
    delta, dual = _perturb_files(tmp_path)
    code, extracted = run_json(capsys, ["perturb", ex1_file, delta, "--json"])
    assert code == 0
    code, supplied = run_json(capsys, ["perturb", ex1_file, delta, "--dual", dual, "--json"])
    assert code == 0
    del extracted["wall_time"], supplied["wall_time"]
    assert supplied == extracted


def test_perturb_rejects_a_wrong_supplied_dual_with_exit_2(capsys, tmp_path, ex1_file):
    delta, dual = _perturb_files(tmp_path, N=PolyMat(np.ones((4, 2, 8))))
    code = main(["perturb", ex1_file, delta, "--dual", dual, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "supplied dual basis failed verification" in captured.err


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


def test_generic_rejects_a_negative_seed(capsys):
    argv = ["generic", "--m", "3", "--n", "2", "--d", "2", "--trials", "4", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "minbasis: error: seed must be non-negative, got -1\n"


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


def test_lify_with_perturbation_propagates_once(capsys, tmp_path, ex1_file, monkeypatch):
    from minbasis import lify
    from minbasis.dual import admissible_radius

    K = PolyMat.from_coeff_list(
        [np.hstack([np.eye(2), np.zeros((2, 6))]), np.zeros((2, 8))]
    )
    M = example1()
    rng = np.random.default_rng(31)
    radius = admissible_radius(M, mb.dual_minimal_basis(M).N)
    paths = {}
    for name, P in (("k", K), ("dk", random_perturbation(K, 0.01, rng)),
                    ("dm", random_perturbation(M, 0.1 * radius, rng))):
        paths[name] = str(tmp_path / f"{name}.json")
        save(P, paths[name])
    propagate, calls = lify.propagate_perturbation, []

    def counting(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(lify, "propagate_perturbation", counting)
    code, report = run_json(capsys, ["lify", paths["k"], ex1_file, "--dk", paths["dk"],
                                     "--dm", paths["dm"], "--json"])
    assert code == 0
    assert report["results"]["index_shift_check"] is True
    assert "perturbation" not in report["results"]["backward_error"]
    assert len(calls) == 1


def test_lify_with_a_tall_recovered_P_skips_the_index_shift_check(capsys, tmp_path):
    from minbasis.dual import admissible_radius

    M = mb.sample_full_sylvester(4, 2, 1, seed=3)
    K = PolyMat(np.random.default_rng(0).standard_normal((2, 3, 6)))  # P is 3x2
    rng = np.random.default_rng(1)
    radius = admissible_radius(M, mb.dual_minimal_basis(M).N)
    paths = {}
    for name, P in (("k", K), ("m", M), ("dk", random_perturbation(K, 1e-3, rng)),
                    ("dm", random_perturbation(M, 0.01 * radius, rng))):
        paths[name] = str(tmp_path / f"{name}.json")
        save(P, paths[name])
    code, report = run_json(capsys, ["lify", paths["k"], paths["m"], "--dk", paths["dk"],
                                     "--dm", paths["dm"], "--json"])
    assert code == 0
    assert (report["results"]["p_rows"], report["results"]["p_cols"]) == (3, 2)
    assert report["results"]["index_shift_check"] is None


def test_lify_of_a_square_matrix_exits_2(capsys, tmp_path):
    kpath, mpath = str(tmp_path / "k.json"), str(tmp_path / "m.json")
    save(PolyMat(np.ones((2, 1, 3))), kpath)
    save(PolyMat(np.ones((2, 3, 3))), mpath)
    assert main(["lify", kpath, mpath, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "build_lification requires a wide matrix, got 3x3" in captured.err


def test_lify_checks_its_flag_pair_before_any_work(capsys, tmp_path, ex1_file, monkeypatch):
    K = PolyMat.from_coeff_list(
        [np.hstack([np.eye(2), np.zeros((2, 6))]), np.zeros((2, 8))]
    )
    kpath = str(tmp_path / "k.json")
    save(K, kpath)
    spy = LinalgSpy(monkeypatch)
    for flag in ("--dk", "--dm"):
        assert main(["lify", kpath, ex1_file, flag, ex1_file]) == 2
        assert "--dk and --dm must be given together" in capsys.readouterr().err
    assert spy.take() == []


def test_consecutive_main_calls_share_no_state(capsys, ex1_file, ex2_file):
    # The parser is built once and reused: each call in a sequence must read
    # exactly as it does on a parser of its own.
    runs = [
        ["certify", "--json", "--tol", "1e-10", "--strict", ex2_file],
        ["certify", ex2_file],
        ["radius", ex1_file],
        ["certify", ex1_file],
        ["oracle-rank", "--json", ex2_file],
        ["analyze", "--json", ex1_file],
        ["fullsyl", "--strict", ex2_file],
        ["fullsyl", "--json", ex2_file],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        if "--json" in argv:
            report = json.loads(out)
            report.pop("wall_time")
            return code, report
        return code, [line for line in out.splitlines() if not line.startswith("wall_time")]

    in_sequence = [run(argv) for argv in runs]
    assert _build_parser() is _build_parser()
    alone = []
    for argv in runs:
        _build_parser.cache_clear()
        alone.append(run(argv))
    assert in_sequence == alone
    assert [code for code, _ in in_sequence] == [1, 0, 0, 0, 0, 0, 1, 0]
    assert in_sequence[5][1]["tolerances"] == {"tol": None, "policy": "max(rows,cols)*eps*sigma1"}
    assert not any(line.startswith("radius =") for line in in_sequence[3][1])


def test_oracle_rank_command(capsys, ex2_file):
    code, report = run_json(capsys, ["oracle-rank", ex2_file, "--json"])
    assert code == 0
    assert report["results"]["ranks"] == [6, 11, 15]
    assert report["results"]["alphas"] == [1, 1, 1]
    assert report["results"]["minimal_indices"] == [0, 1, 2]
    assert report["results"]["decided_k"] == [1, 2, 3]  # every k, exactly
    # The oracle decides ranks exactly; no tolerance policy applies.
    assert report["tolerances"] == {"tol": None, "policy": "exact"}


def test_oracle_rank_stops_at_the_first_full_row_rank_s_k(capsys, ex1_file):
    # S_3 has full row rank 24: the exact scan stops there with d' = 3 and
    # the implied r_4 = 30; with --kmax it measures S_4 as well.
    code, report = run_json(capsys, ["oracle-rank", ex1_file, "--json"])
    assert code == 0
    assert (report["results"]["ranks"], report["results"]["d_prime"]) == ([8, 16, 24, 30], 3)
    assert report["results"]["decided_k"] == [1, 2, 3]
    _, capped = run_json(capsys, ["oracle-rank", ex1_file, "--kmax", "4", "--json"])
    assert capped["results"]["ranks"] == [8, 16, 24, 30]
    assert capped["results"]["decided_k"] == [1, 2, 3, 4]


@pytest.mark.parametrize("k_max", [0, -3])
@pytest.mark.parametrize("entry", ["rank_profile", "exact_rank_profile", "analyze", "oracle-rank"])
def test_non_positive_scan_cap_is_rejected(capsys, ex2_file, entry, k_max):
    if entry in ("analyze", "oracle-rank"):
        assert main([entry, ex2_file, "--kmax", str(k_max), "--json"]) == 2
        assert "scan cap must be positive" in capsys.readouterr().err
    else:
        with pytest.raises(mb.ShapeError, match="scan cap must be positive"):
            getattr(mb, entry)(example2(), k_max=k_max)


def test_json_reports_are_deterministic(capsys, ex1_file):
    _, first = run_json(capsys, ["analyze", ex1_file, "--json"])
    _, second = run_json(capsys, ["analyze", ex1_file, "--json"])
    first.pop("wall_time")
    second.pop("wall_time")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_tol_flag_is_used(capsys, ex1_file):
    # An absurd threshold wipes out every rank, so certification must fail.
    code, report = run_json(capsys, ["certify", ex1_file, "--json", "--tol", "1e6"])
    assert code == 0
    assert report["results"]["is_minimal_basis"] is False
    assert report["tolerances"]["tol"] == 1e6
    code, report = run_json(capsys, ["certify", ex1_file, "--json", "--tol", "1e-10"])
    assert code == 0
    assert report["results"]["is_minimal_basis"] is True
    assert report["tolerances"]["tol"] == 1e-10


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_invalid_tolerance_exits_2(capsys, tmp_path, value):
    # (lam - 2) C is not a minimal basis; a bad tolerance must not say it is.
    path = tmp_path / "cf.json"
    save(common_factor_2x4(), path)
    assert main(["certify", str(path), "--tol", value, "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(float(value)) in captured.err
    generic = ["generic", "--m", "3", "--n", "2", "--d", "2", "--trials", "5"]
    assert main(generic + ["--tol", value]) == 2
    assert main(["analyze", str(path), "--json", "--tol", value]) == 2


# The positional arguments of each command, and the value each flag takes.
COMMANDS = {
    "analyze": ["m.json"],
    "certify": ["m.json"],
    "fullsyl": ["m.json"],
    "radius": ["m.json"],
    "dual": ["m.json"],
    "perturb": ["m.json", "delta.json"],
    "generic": ["--m", "3", "--n", "2", "--d", "2", "--trials", "5"],
    "lify": ["k.json", "m.json"],
    "oracle-rank": ["m.json"],
}
FLAG_VALUES = {"--json": [], "--tol": ["1e-8"], "--seed": ["5"], "--strict": []}
# Each flag on the commands that read it: oracle-rank's ranks are exact, and
# only certify and fullsyl have a verdict for --strict.
TAKES = {
    "--json": set(COMMANDS),
    "--tol": set(COMMANDS) - {"oracle-rank"},
    "--seed": {"generic"},
    "--strict": {"certify", "fullsyl"},
}
NOT_TAKEN = [(c, flag) for flag, takers in TAKES.items() for c in COMMANDS if c not in takers]


def test_each_flag_sits_on_the_commands_that_read_it():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    sits = {flag: {c for c, p in sub.choices.items() if flag in p._option_string_actions}
            for flag in TAKES}
    assert sits == TAKES
    assert sum(map(len, sits.values())) == 20 and len(NOT_TAKEN) == 16


@pytest.mark.parametrize("command, flag", NOT_TAKEN)
def test_a_flag_the_command_does_not_take_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, *COMMANDS[command], flag, *FLAG_VALUES[flag]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_scan_extra_is_rejected_for_the_fullsyl_radius(capsys, ex1_file):
    assert main(["radius", ex1_file, "--kind", "fullsyl", "--scan-extra", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--scan-extra applies only to --kind minimal" in captured.err
    # Without the flag, the library's default of 3 applies.
    _, default = run_json(capsys, ["radius", ex1_file, "--json"])
    _, three = run_json(capsys, ["radius", ex1_file, "--json", "--scan-extra", "3"])
    assert default["results"] == three["results"]
    assert len(default["results"]["scanned"]) == 4


def test_complex_input_through_the_cli(capsys, tmp_path):
    # The "field": "complex" file format of the README, in and out.
    M = mb.sample_full_sylvester(4, 3, 2, seed=3, field_tag="complex")
    path = tmp_path / "complex.json"
    save(M, path)
    code, report = run_json(capsys, ["analyze", str(path), "--json"])
    assert code == 0
    assert report["input"]["field"] == "complex"
    assert report["results"]["certificate"]["is_minimal_basis"] is True
    code, report = run_json(capsys, ["dual", str(path), "--json"])
    assert code == 0
    N = from_dict(report["results"]["dual_basis"])
    assert N.field == "complex"
    assert np.array_equal(N.coeffs, mb.dual_minimal_basis(M).N.coeffs)
    from minbasis.dual import admissible_radius

    delta = random_perturbation(M, 0.1 * admissible_radius(M, N), np.random.default_rng(0))
    assert delta.field == "complex"
    dpath = tmp_path / "delta.json"
    save(delta, dpath)
    code, report = run_json(capsys, ["perturb", str(path), str(dpath), "--json"])
    assert code == 0
    assert report["results"]["residual"] < 1e-10


def test_zero_tolerance_certificate_is_marginal(capsys, tmp_path):
    # tol = 0 lets round-off pass (lam - 2) C; the report must say marginal.
    path = tmp_path / "cf.json"
    save(common_factor_2x4(), path)
    code, report = run_json(capsys, ["certify", str(path), "--tol", "0", "--json"])
    assert code == 0
    assert report["results"]["is_minimal_basis"] is True
    assert report["results"]["marginal"] is True
    code, report = run_json(capsys, ["certify", str(path), "--json"])
    assert report["results"]["is_minimal_basis"] is False
    assert report["results"]["marginal"] is False


def _one_row_file(field, entry, zero) -> bytes:
    return json.dumps({"field": field, "rows": 1, "cols": 2, "degree_bound": 1,
                       "coefficients": [[[zero, entry]], [[zero, zero]]]}).encode()


PAST_FLOAT_RANGE = "coefficients[0][0][1]: number too large for a float\n"


@pytest.mark.parametrize("content, reason", [
    # 10**400 written out: json reads it as an exact int, which no float holds.
    (_one_row_file("real", 10**400, 0), PAST_FLOAT_RANGE),
    (_one_row_file("complex", [1, 10**400], [0, 0]), PAST_FLOAT_RANGE),
    # Python 3.11 and later refuse to read an int of more than 4300 digits.
    (b'{"field": "real", "rows": 1, "cols": 2, "degree_bound": 1, '
     b'"coefficients": [[[0, ' + b"1" * 5000 + b']], [[0, 0]]]}', ""),
    (b"\xff\xfe{}", ""),
], ids=["real_past_float_range", "complex_past_float_range", "5000_digits", "not_utf8"])
def test_an_unreadable_number_or_file_exits_2(capsys, tmp_path, content, reason):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    assert main(["certify", "--strict", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"minbasis: error: {path}: {reason}")


def test_missing_file_exits_2(capsys):
    code = main(["analyze", "/nonexistent/x.json", "--json"])
    assert code == 2


# -- report schema ---------------------------------------------------------------

POLYMAT_KEYS = ("field", "rows", "cols", "degree_bound", "coefficients")
CERT_KEYS = ("is_minimal_basis", "reason", "hr_rank", "d_prime", "degree_sum_expected",
             "degree_sum_observed", "marginal")
PROFILE_KEYS = ("ranks", "nullities", "alphas", "d_prime", "normal_rank_full", "decided_k",
                "minimal_indices")
RADIUS_KEYS = ("radius", "k_used", "scanned", "scanned.k", "scanned.candidate", "kind")
GENERIC_KEYS = ("m", "n", "d", "trials", "seed", "dist", "successes", "failures")
LIFY_KEYS = ("k_prime", "ell", "p_rows", "p_cols", "p_degree_bound", "dual_residual",
             "recovered_P", *(f"recovered_P.{k}" for k in POLYMAT_KEYS))
BACKWARD_KEYS = ("C_PL", "prefactor", "relative_dP", "bound_rhs", "admissible", "factors")
FACTOR_KEYS = ("norm_L", "norm_P", "norm_N", "norm_K", "norm_delta_K", "norm_delta_L",
               "sigma_next_sylvester", "applied_norm_delta_M")

# (argv with {file} placeholders, the results' key paths in text order); a
# path joins nested keys with dots, and a list of records adds its keys once.
SCHEMA_CASES = {
    "analyze": (["analyze", "{ex1}"],
                PROFILE_KEYS + ("certificate", *(f"certificate.{k}" for k in CERT_KEYS))),
    "analyze_common_factor": (
        ["analyze", "{cf}", "--kmax", "3"],
        PROFILE_KEYS + ("certificate", *(f"certificate.{k}" for k in CERT_KEYS))),
    "certify": (["certify", "{ex2}"], CERT_KEYS),
    "fullsyl": (["fullsyl", "{ex1}"],
                ("has_full_sylvester_rank", "k_prime", "t", "checked_ranks",
                 "checked_ranks.k", "checked_ranks.rank", "checked_ranks.required",
                 "checked_ranks.kind", "predicted_indices", "margin")),
    "radius": (["radius", "{ex1}"], RADIUS_KEYS),
    "radius_flat": (["radius", "{flat}", "--kind", "fullsyl"], RADIUS_KEYS),
    "dual": (["dual", "{ex1}"],
             ("row_degrees", "residual", "k_prime", "t", "dual_basis",
              *(f"dual_basis.{k}" for k in POLYMAT_KEYS))),
    "perturb": (["perturb", "{ex1}", "{dm}"],
                ("theta1", "theta2", "case", "admissible_radius", "applied_norm",
                 "relative_change", "guaranteed_bound", "row_degree_split", "residual",
                 "delta_N", *(f"delta_N.{k}" for k in POLYMAT_KEYS))),
    "generic": (["generic", "--m", "3", "--n", "2", "--d", "2", "--trials", "4"],
                GENERIC_KEYS + ("min_margin",)),
    "generic_zero_leading": (
        ["generic", "--m", "3", "--n", "2", "--d", "2", "--trials", "4", "--zero-leading"],
        GENERIC_KEYS + ("failures.trial", "failures.margin", "min_margin", "zero_leading")),
    "lify": (["lify", "{k}", "{ex1}"], LIFY_KEYS),
    "lify_perturbed": (
        ["lify", "{k}", "{ex1}", "--dk", "{dk}", "--dm", "{dm}"],
        LIFY_KEYS + ("backward_error", *(f"backward_error.{k}" for k in BACKWARD_KEYS),
                     *(f"backward_error.factors.{k}" for k in FACTOR_KEYS),
                     "index_shift_check")),
    "oracle-rank": (["oracle-rank", "{ex2}"], PROFILE_KEYS),
}


@pytest.fixture
def schema_files(tmp_path):
    K = PolyMat.from_coeff_list(
        [np.hstack([np.eye(2), np.zeros((2, 6))]), np.zeros((2, 8))]
    )
    M = example1()
    from minbasis.dual import admissible_radius

    rng = np.random.default_rng(5)
    radius = admissible_radius(M, mb.dual_minimal_basis(M).N)
    mats = {"ex1": M, "ex2": example2(), "cf": common_factor_2x4(), "flat": flat_1311(),
            "k": K, "dk": random_perturbation(K, 0.01, rng),
            "dm": random_perturbation(M, 0.1 * radius, rng)}
    paths = {}
    for name, P in mats.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save(P, paths[name])
    return paths


def _json_paths(value, prefix=""):
    if isinstance(value, list):
        return set().union(*(_json_paths(v, prefix) for v in value if isinstance(v, dict)))
    if not isinstance(value, dict):
        return set()
    out = set()
    for key, v in value.items():
        out |= {prefix + key} | _json_paths(v, prefix + key + ".")
    return out


def _text_paths(out: str) -> tuple[list[str], list[str]]:
    """Top-level report keys and the results' key paths, in printed order."""
    top, paths, stack, inside = [], [], [], False
    for line in out.splitlines():
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key = line.strip().split(":", 1)[0]
        if depth == 0:
            top.append(key)
            inside = key == "results"
            continue
        if inside:
            del stack[depth - 1:]
            stack.append(key)
            path = ".".join(stack)
            if path not in paths:
                paths.append(path)
    return top, paths


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_report_schema(capsys, schema_files, case):
    template, expected = SCHEMA_CASES[case]
    argv = [arg.format(**schema_files) for arg in template]
    code, report = run_json(capsys, argv + ["--json"])
    assert code == 0
    assert set(report) == {"command", "input", "results", "tolerances", "wall_time"}
    assert _json_paths(report["results"]) == set(expected)
    assert main(argv) == 0
    top, paths = _text_paths(capsys.readouterr().out)
    assert top[:5] == ["command", "input", "results", "tolerances", "wall_time"]
    assert paths == list(expected)
