"""The statistics and the run order of tools/bench_pairs.py, the paired
comparison of two trees' benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_run_order_alternates_which_tree_runs_first():
    assert bench_pairs.run_order(4) == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]
    assert bench_pairs.run_order(1) == [("base", "change")]


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    base, change = [10.0, 10.0, 10.0], [9.0, 10.0, 11.0]
    assert bench_pairs.wins(base, change, "lower") == 1
    assert bench_pairs.wins(base, change, "higher") == 1
    assert bench_pairs.wins(base, base, "lower") == 0


@pytest.mark.parametrize("offsets, better, claim", [
    # Ten of ten pairs won, the median 1.0 better: beyond the IQR.
    ([-1.0] * 10, "lower", True),
    # Nine of ten won, but the median moves by 0.1, inside the IQR.
    ([-0.1] * 9 + [5.0], "lower", False),
    # Eight of ten won: too few, whatever the medians.
    ([-1.0] * 8 + [5.0] * 2, "lower", False),
    ([1.0] * 10, "higher", True),
])
def test_compare_claims_a_gain_on_nine_tenths_of_pairs_beyond_the_base_iqr(offsets, better,
                                                                           claim):
    # A base that drifts by 0.05 per pair: its quartiles are 0.225 apart.
    base = [10.0 + 0.05 * i for i in range(10)]
    row = bench_pairs.compare(base, [b + o for b, o in zip(base, offsets)], better)
    assert row["pairs"] == 10
    assert row["base_q3"] - row["base_q1"] == pytest.approx(0.225)
    assert row["claim"] is claim


@pytest.mark.parametrize("offsets, better, worse", [
    # Ten of ten pairs lost, the median 1.0 worse: beyond the IQR.
    ([1.0] * 10, "lower", True),
    ([-1.0] * 10, "higher", True),
    # Nine of ten lost, but the median moves by 0.1, inside the IQR.
    ([0.1] * 9 + [-5.0], "lower", False),
    # Eight of ten lost: too few, whatever the medians.
    ([1.0] * 8 + [-5.0] * 2, "lower", False),
    # A clear gain is never worse.
    ([-1.0] * 10, "lower", False),
])
def test_compare_flags_a_loss_on_nine_tenths_of_pairs_beyond_the_base_iqr(offsets, better,
                                                                          worse):
    base = [10.0 + 0.05 * i for i in range(10)]
    row = bench_pairs.compare(base, [b + o for b, o in zip(base, offsets)], better)
    assert row["worse"] is worse
    assert not (row["worse"] and row["claim"])


def test_main_alternates_the_trees_and_reads_metrics_from_benchmark_json(
        tmp_path, monkeypatch, capsys):
    base = tmp_path / "base"
    (base / "benchmarks").mkdir(parents=True)
    (base / "benchmarks" / "run.py").write_text("")
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(tree)
        value = 2.0 if tree == base else 1.0
        return {"failed": 0, "attempted": 3,
                "metrics": {name: {"value": value} for name in names}}

    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "OUT", tmp_path / "out")
    assert bench_pairs.main([str(base), "--workload", "w", "--pairs", "3",
                             "--seconds", "1", "--seed", "5"]) == 0
    change = bench_pairs.ROOT
    assert calls == [base, change, change, base, base, change]
    record = json.loads((tmp_path / "out" / "w-5.json").read_text())
    assert list(record["table"]) == names
    lower = [m["name"] for m in spec["end_to_end"] if m["better"] == "lower"]
    assert all(record["table"][name]["wins"] == 3 for name in lower)
    out = capsys.readouterr().out
    assert "change: 0/9 ops failed" in out
    assert "| claim | worse |" in out
    # The change halves every metric: a claim where lower is better, a
    # loss where higher is.
    assert all(record["table"][name]["claim"] for name in lower)
    assert all(record["table"][name]["worse"] for name in names if name not in lower)


def _record(tree: Path, workload: str, seed: int, best_s: dict) -> None:
    """A run record of ``benchmarks/run.py`` in ``tree`` with the given best
    times in seconds."""
    out = tree / ".bench_build" / "benchmarks"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{workload}-{seed}-trace0.json").write_text(json.dumps(
        {"ops": {op: {"best": b, "worst": 2 * b} for op, b in best_s.items()}}))


def test_run_once_reads_each_ops_best_time_from_the_run_record(tmp_path):
    # A stand-in run.py that prints the result line and writes the record.
    tree = tmp_path / "tree"
    (tree / "benchmarks").mkdir(parents=True)
    (tree / "benchmarks" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "out = pathlib.Path('.bench_build/benchmarks')\n"
        "out.mkdir(parents=True, exist_ok=True)\n"
        "(out / f'result-{sys.argv[2]}-{sys.argv[4]}-trace0.json').write_text(json.dumps(\n"
        "    {'ops': {'lify': {'best': 0.002}, 'perturb': {'best': 0.0005}}}))\n"
        "print('report line')\n"
        "print(json.dumps({'failed': 0, 'attempted': 2, 'metrics': {}}))\n")
    result = bench_pairs.run_once(tree, "w", 3, 1.0)
    assert result["failed"] == 0
    assert result["op_best_ms"] == pytest.approx({"lify": 2.0, "perturb": 0.5})


def test_main_prints_the_median_best_time_of_each_op_per_tree(tmp_path, monkeypatch, capsys):
    base = tmp_path / "base"
    (base / "benchmarks").mkdir(parents=True)
    (base / "benchmarks" / "run.py").write_text("")
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    change_best = iter([1.0, 3.0, 2.0])

    def fake_run(tree, workload, seed, seconds):
        ops = {"lify": 4.0, "perturb": 1.0} if tree == base else {"lify": next(change_best)}
        return {"failed": 0, "attempted": 1, "op_best_ms": ops,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "OUT", tmp_path / "out")
    assert bench_pairs.main([str(base), "--workload", "w", "--pairs", "3",
                             "--seconds", "1", "--seed", "5"]) == 0
    record = json.loads((tmp_path / "out" / "w-5.json").read_text())
    assert record["op_medians"] == {"lify": {"base": 4.0, "change": 2.0},
                                    "perturb": {"base": 1.0, "change": None}}
    out = capsys.readouterr().out
    assert "| op | base median ms | change median ms | change |" in out
    assert "| lify | 4 | 2 | -50.0% |" in out
    assert "| perturb | 1 | - | - |" in out
