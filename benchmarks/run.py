"""Benchmark of the minbasis package: one seeded, closed-loop workload per run.

    python3 benchmarks/run.py --workload generic_pipeline --seed 1 --seconds 40 --trace 0

One caller makes one public call at a time, each after the previous one has
returned, on one BLAS thread.  Every result is checked against ground truth.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced passes with passes in which every layer is traced, and
reports the per-layer metrics of the traced passes and the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are a readable report, which also gives the
median and tail latency of every op.  Run records and the traced spans are
written under ``.bench_build/benchmarks/`` in the checkout.  The exit code is
1 when any op failed and 2 when the package is missing.

The end-to-end timings are best-of figures, a fast pass and, per input, the
fastest call, scaled to the speed of a reference machine.  On a small
shared host, other tenants slow the machine from a fraction of a second to
minutes at a time, by up to half: medians moved by 20-35% between runs, and
even the fastest figures by up to 45% when a slow stretch covered a whole
run.  A speed probe, fixed numpy work that does not use minbasis, runs
between passes; every timing is multiplied by REFERENCE_PROBE_S over the
run's fastest probe (see NOTES.md).  The readable report and the run record
keep the unscaled figures.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, so BLAS starts with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "benchmarks"
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPS = 5
# Probes timed after each pass; the run's fastest probe gives its speed.
PROBES_PER_PASS = 4
# Fastest probe on the reference machine: 2-vCPU x86_64 virtual machine,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread.
REFERENCE_PROBE_S = 1.6e-3


def latency(by_label: dict[str, list[float]]) -> dict:
    """Summary of one op's latencies in seconds, given per input label.

    ``best`` is the fastest call on each input, combined over the inputs by
    geometric mean; ``worst`` is the fastest call on the slowest input.
    ``p50`` and ``tail`` are the median of the pooled calls and their highest
    percentile with at least ten calls beyond it (``tail_pct`` says which).
    """
    pooled = sorted(v for values in by_label.values() for v in values)
    n = len(pooled)
    tail_index = max(n - 11, 0)
    fastest = [min(values) for values in by_label.values()]
    return {
        "n": n,
        "inputs": len(fastest),
        "best": statistics.geometric_mean(fastest),
        "worst": max(fastest),
        "p50": statistics.median(pooled),
        "tail": pooled[tail_index],
        "tail_pct": 100.0 * (tail_index + 1) / n,
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def make_probe():
    """Speed probe: value-only SVDs of small stacked blocks assembled in Python
    loops (overhead-bound, like small S_k) and of one 130 x 130 matrix
    (LAPACK-bound).  It uses numpy only, so no change to minbasis moves it."""
    import numpy as np

    rng = np.random.default_rng(20161203)
    blocks = [rng.standard_normal((12, 10)) for _ in range(16)]
    square = rng.standard_normal((130, 130))

    def probe() -> float:
        start = perf_counter()
        for block in blocks:
            stacked = np.zeros((36, 20))
            for j in range(2):
                for i in range(2):
                    stacked[(i + j) * 12:(i + j + 1) * 12, j * 10:(j + 1) * 10] = block
            np.linalg.svd(stacked, compute_uv=False)
        np.linalg.svd(square, compute_uv=False)
        return perf_counter() - start

    return probe


def run_passes(workload, state, ops, seconds: float, probe) -> tuple[list[float], list[float]]:
    """Whole passes, each followed by the speed probes, until another pass
    would end after ``seconds``; at least one.  Returns the duration of each
    pass and each probe."""
    start = perf_counter()
    durations, probes = [], []
    while True:
        begun = perf_counter()
        workload.run_pass(state, ops)
        durations.append(perf_counter() - begun)
        probes += [probe() for _ in range(PROBES_PER_PASS)]
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(durations) > seconds:
            return durations, probes


def run_alternating(workload, state, plain_ops, traced_ops, rec, seconds: float):
    """Untraced and traced passes in turn, so that both meet the same load on
    the host; returns the durations of each kind."""
    start = perf_counter()
    plain, traced = [], []
    while True:
        begun = perf_counter()
        workload.run_pass(state, plain_ops)
        plain.append(perf_counter() - begun)
        rec.install()
        try:
            begun = perf_counter()
            workload.run_pass(state, traced_ops)
            traced.append(perf_counter() - begun)
        finally:
            rec.uninstall()
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            return plain, traced


def fast_pass(durations: list[float]) -> float:
    """The pass at the 10th percentile of pass time.  Rare bursts of speed
    make the single fastest pass move more between runs than this."""
    return sorted(durations)[int(0.1 * (len(durations) - 1))]


def end_to_end(ops, durations: list[float], setup_s: float, scale: float) -> dict:
    """End-to-end metrics, every time multiplied by ``scale``."""
    def ms(op, key):
        return latency(ops.samples[op])[key] * 1e3 * scale

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s * scale, "s"),
        "items_per_s": (ops.items / len(durations) / (fast_pass(durations) * scale), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "item_ms_best": (ms("item", "best"), "ms"),
        "item_ms_worst": (ms("item", "worst"), "ms"),
        "certify_ms_best": (ms("certify", "best"), "ms"),
        "certify_ms_worst": (ms("certify", "worst"), "ms"),
        "indices_ms_best": (ms("indices", "best"), "ms"),
        "fullsyl_ms_best": (ms("fullsyl", "best"), "ms"),
        "cli_ms_best": (ms("cli", "best"), "ms"),
    }


def per_layer(rec, items: int, overhead: float) -> dict:
    """Layer counts and times from the traced passes, per matrix or per trial."""
    c = rec.counts

    def per(value):
        return value / items

    svd_calls = rec.calls("linalg.svd")
    certs = rec.calls("minimal.certify")
    python_ms = rec.op_busy_ms() - c.get("linalg.outer_busy_s", 0.0) * 1e3
    return {
        "linalg.svd.calls": (per(svd_calls), "count"),
        "linalg.svd.distinct_ratio": (c.get("linalg.svd.distinct", 0) / max(svd_calls, 1), "1"),
        "linalg.svd.uv_calls": (per(c.get("linalg.svd.uv_calls", 0)), "count"),
        "linalg.svd.busy_ms": (per(rec.busy_ms("linalg.svd")), "ms"),
        "linalg.svd.gflop": (per(c.get("linalg.svd.flops", 0.0)) / 1e9, "GFLOP"),
        "linalg.norm2.calls": (per(c.get("linalg.norm2.calls", 0)), "count"),
        "linalg.lstsq.calls": (per(rec.calls("linalg.lstsq")), "count"),
        "linalg.lstsq.busy_ms": (per(rec.busy_ms("linalg.lstsq")), "ms"),
        "linalg.qr.calls": (per(rec.calls("linalg.qr")), "count"),
        "sylvester.rank_nullity.calls": (per(rec.calls("sylvester.rank_nullity")), "count"),
        "sylvester.build.calls": (per(rec.calls("sylvester.build")), "count"),
        "sylvester.build.busy_ms": (per(rec.busy_ms("sylvester.build")), "ms"),
        "sylvester.build.mb": (per(c.get("sylvester.build.bytes", 0)) / 1e6, "MB"),
        "minimal.rank_profile.k_scanned": (
            per(c.get("minimal.rank_profile.k_scanned", 0)), "count"),
        "minimal.certify.calls": (per(certs), "count"),
        "minimal.marginal_ratio": (c.get("minimal.certify.marginal", 0) / max(certs, 1), "1"),
        "fullsyl.has_full_sylvester_rank.calls": (
            per(rec.calls("fullsyl.has_full_sylvester_rank")), "count"),
        "robust.thetas.calls": (per(rec.calls("robust.thetas")), "count"),
        "dual.verify_duality.calls": (per(rec.calls("dual.verify_duality")), "count"),
        "oracle.exact_rank.calls": (per(rec.calls("oracle.exact_rank")), "count"),
        "oracle.exact_rank.busy_ms": (per(rec.busy_ms("oracle.exact_rank")), "ms"),
        "cli.main.self_ms": (per(rec.self_ms("cli.main")), "ms"),
        "polymat.load.busy_ms": (per(rec.busy_ms("polymat.load")), "ms"),
        "polymat.evaluate.calls": (per(rec.calls("polymat.evaluate")), "count"),
        "polymat.poly_multiply_transpose.busy_ms": (
            per(rec.busy_ms("polymat.poly_multiply_transpose")), "ms"),
        "python.self_ms": (per(python_ms), "ms"),
        "trace.overhead_ratio": (overhead, "1"),
    }


def print_report(args, workload, env, ops, metrics: dict, extra: dict, rec=None) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  items are {workload.item}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{'op':18s} {'calls':>6s} {'inputs':>6s} {'best ms':>10s} {'worst ms':>10s} "
          f"{'p50 ms':>10s} {'tail ms':>10s} {'tail pct':>9s}")
    for op in sorted(ops.samples):
        p = latency(ops.samples[op])
        print(f"{op + '_ms':18s} {p['n']:6d} {p['inputs']:6d} {p['best'] * 1e3:10.4f} "
              f"{p['worst'] * 1e3:10.4f} {p['p50'] * 1e3:10.4f} {p['tail'] * 1e3:10.4f} "
              f"{p['tail_pct']:8.2f}%")
    if rec is not None:
        print(f"{'traced op':18s} {'calls':>6s} {'svd/call':>10s} {'distinct/call':>14s}")
        for op, (calls, svd, distinct) in sorted(rec.op_svd.items()):
            print(f"{op:18s} {calls:6d} {svd / calls:10.4f} {distinct / calls:14.4f}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"failed_ratio {ops.failed}/{ops.attempted} = "
          f"{ops.failed / max(ops.attempted, 1):.6g} "
          "(ops raising or disagreeing with ground truth / ops attempted)")
    for index, op, label, message in ops.failures:
        print(f"FAILED op #{index} {op} on {label}: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minbasis" / "__init__.py").is_file():
        print(f"benchmark: no minbasis package under {SRC}", file=sys.stderr)
        return 2
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import minbasis

    import_s = perf_counter() - started
    if Path(minbasis.__file__).resolve().parent != SRC / "minbasis":
        print(f"benchmark: imported minbasis from {minbasis.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs_dir = OUT / f"inputs-{args.workload}-{args.seed}"

    setup_times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        state, warm_ops = workload.setup(args.seed, inputs_dir)
        setup_times.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    env = environment()
    ops = workloads.Ops()
    rec = None
    raw = {}
    if args.trace == 0:
        durations, probes = run_passes(workload, state, ops, args.seconds, make_probe())
        scale = REFERENCE_PROBE_S / min(probes)
        metrics = end_to_end(ops, durations, setup_s, scale)
        raw = {"speed_scale": (scale, "1"), "probe_best_s": (min(probes), "s"),
               **{f"unscaled_{name}": value
                  for name, value in end_to_end(ops, durations, setup_s, 1.0).items()}}
    else:
        plain = workloads.Ops()
        rec = spans.Recorder()
        ops.recorder = rec
        plain_durations, durations = run_alternating(workload, state, plain, ops, rec,
                                                     args.seconds)
        overhead = min(durations) / min(plain_durations) - 1.0
        metrics = per_layer(rec, ops.items, overhead)
        ops.failures += plain.failures
        ops.attempted += plain.attempted

    # The warm-up of the last set-up is checked like the timed ops.
    ops.failures += warm_ops.failures
    ops.attempted += warm_ops.attempted
    print_report(args, workload, env, ops, metrics,
                 {**raw, "passes": (len(durations), "count"),
                  "measured_s": (sum(durations), "s"),
                  "import_s": (import_s, "s")}, rec)
    correct = ops.failed == 0
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    if rec is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": rec.spans}))
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "pass_s": durations, "items": ops.items,
        "setup_times_s": setup_times, "import_s": import_s,
        "ops": {op: latency(v) for op, v in ops.samples.items()},
        "op_svd": rec.op_svd if rec is not None else None,
        "unscaled": {name: value for name, (value, _) in raw.items()},
        "failures": [list(f) for f in ops.failures],
    }, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
