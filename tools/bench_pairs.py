"""Paired benchmark comparison of this tree against a base tree.

    python3 tools/bench_pairs.py BASE_DIR --workload generic_pipeline --pairs 10 --seconds 40 --seed 11

BASE_DIR is another checkout of the repository, such as a clone of the
parent commit.  Each pair runs ``benchmarks/run.py`` of both trees, each in
a fresh process started in its own tree, with the same workload, seed and
run length; the tree that runs first alternates from pair to pair, the base
first in the first pair.  A single run misleads on a shared host, where the
same code can read 25% apart from one run to the next.

The end-to-end metrics and the direction in which each is better come from
this tree's BENCHMARK.json, which is only read.  For each metric the table
gives the base's median and quartiles, the change's median, and how many
pairs the change won (ties count for neither side).  ``claim`` is "yes" when
the change won at least nine tenths of the pairs and its median is better
than the base's by more than the base's interquartile range; ``worse`` is
its mirror, "yes" when the change lost at least nine tenths of the pairs
and its median is worse by more than that range.  The runs and the table
are written to ``.bench_build/bench_pairs/`` in this tree.

A second table gives, for each op of the workload, the base's and the
change's median of the op's ``best`` time, read from the run record that
``benchmarks/run.py`` writes into each tree: it shows which op moved.  These
times are not scaled by the speed probe.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "bench_pairs"
TREES = ("base", "change")


def run_order(pairs: int) -> list[tuple[str, str]]:
    """The order of the two trees in each pair: base first in even pairs,
    the change first in odd ones."""
    return [TREES if i % 2 == 0 else TREES[::-1] for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation
    between the sorted values (the "inclusive" method); one value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value is strictly better than the base's."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def compare(base: list[float], change: list[float], better: str) -> dict:
    """One row of the table for one metric, from its values in each pair."""
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    won, lost = wins(base, change, better), wins(change, base, better)
    gain = base_median - change_median if better == "lower" else change_median - base_median
    return {
        "base_median": base_median,
        "base_q1": q1,
        "base_q3": q3,
        "change_median": change_median,
        "relative": change_median / base_median - 1.0 if base_median else float("nan"),
        "wins": won,
        "pairs": len(base),
        "claim": 10 * won >= 9 * len(base) and gain > q3 - q1,
        "worse": 10 * lost >= 9 * len(base) and -gain > q3 - q1,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced run of ``benchmarks/run.py`` in
    ``tree``; it exits 1 when an op failed, which the result records.  Its
    ``op_best_ms`` holds each op's ``best`` time in ms from the run record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree}: benchmarks/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    record = tree / ".bench_build" / "benchmarks" / f"result-{workload}-{seed}-trace0.json"
    ops = json.loads(record.read_text())["ops"]
    result["op_best_ms"] = {op: 1e3 * latency["best"] for op, latency in ops.items()}
    return result


def op_medians(runs: dict) -> dict:
    """Each op's median ``best`` time in ms per tree, over the runs that
    timed the op (None for a tree with none)."""
    names = sorted({op for tree in TREES for r in runs[tree] for op in r.get("op_best_ms", {})})
    medians = {}
    for op in names:
        values = {t: [r["op_best_ms"][op] for r in runs[t] if op in r.get("op_best_ms", {})]
                  for t in TREES}
        medians[op] = {t: statistics.median(v) if v else None for t, v in values.items()}
    return medians


def format_op_table(medians: dict) -> str:
    lines = ["| op | base median ms | change median ms | change |", "|---|---|---|---|"]
    for op, m in medians.items():
        base, change = m["base"], m["change"]
        relative = (f"{100 * (change / base - 1.0):+.1f}%" if base and change is not None
                    else "-")
        cells = ["-" if v is None else f"{v:.4g}" for v in (base, change)]
        lines.append(f"| {op} | {cells[0]} | {cells[1]} | {relative} |")
    return "\n".join(lines)


def format_table(rows: dict, runs: dict) -> str:
    lines = [
        "| metric | unit | better | base median | base q1-q3 | change median | change | wins "
        "| claim | worse |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        lines.append(
            f"| {name} | {row['unit']} | {row['better']} | {row['base_median']:.4g} | "
            f"{row['base_q1']:.4g}-{row['base_q3']:.4g} | {row['change_median']:.4g} | "
            f"{100 * row['relative']:+.1f}% | {row['wins']}/{row['pairs']} | "
            f"{'yes' if row['claim'] else 'no'} | {'yes' if row['worse'] else 'no'} |"
        )
    for tree in TREES:
        failed = sum(r["failed"] for r in runs[tree])
        attempted = sum(r["attempted"] for r in runs[tree])
        lines.append(f"{tree}: {failed}/{attempted} ops failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    base = args.base_dir.resolve()
    if not (base / "benchmarks" / "run.py").is_file():
        parser.error(f"{base} has no benchmarks/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    trees = {"base": base, "change": ROOT}
    runs: dict[str, list[dict]] = {tree: [] for tree in TREES}
    for i, order in enumerate(run_order(args.pairs)):
        for tree in order:
            runs[tree].append(run_once(trees[tree], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr)

    rows = {}
    for name, m in metrics.items():
        values = {t: [r["metrics"][name]["value"] for r in runs[t]] for t in TREES}
        rows[name] = {"unit": m["unit"], "better": m["better"],
                      **compare(values["base"], values["change"], m["better"])}
    table = format_table(rows, runs)
    medians = op_medians(runs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"pairs {args.pairs}  base {base}")
    print(table)
    print(format_op_table(medians))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "base": str(base), "order": run_order(args.pairs),
        "runs": runs, "table": rows, "op_medians": medians,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
