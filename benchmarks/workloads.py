"""The three benchmark workloads: set-up, one closed-loop pass, ground truth.

A workload's ``setup`` builds its inputs from the seed and warms up on a
separate set of inputs; ``run_pass`` makes one pass over the timed inputs,
calling the public functions of ``minbasis`` one after the other, in the
order a user would, and checks every result.  A pass always covers the same
inputs, so a run of whole passes has a fixed mix of input shapes whatever its
length.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import minbasis as mb
from minbasis import cli

import inputs


class OpFailed(Exception):
    """Raised by ``Ops.call`` after recording a failure; ends the item's chain."""


class Ops:
    """Times each public call and records every disagreement with ground truth.

    ``samples`` maps an op name to its latencies in seconds, per input label.
    A call that raises, or whose result disagrees with the known answer,
    counts once in ``failures``; nothing is filtered out.
    """

    def __init__(self, recorder=None):
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.attempted = 0
        self.failures: list[tuple[int, str, str, str]] = []
        self.items = 0
        self.recorder = recorder
        self.last = 0.0

    def call(self, op: str, label: str, fn: Callable, *args, **kwargs):
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.begin_op(op)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising op is a failed op; list it and go on
            self._fail(op, label, f"{type(exc).__name__}: {exc}")
            raise OpFailed from exc
        finally:
            self.last = perf_counter() - start
            if self.recorder is not None:
                self.recorder.end_op()
        self.sample(op, label, self.last)
        return result

    def expect(self, ok: bool, op: str, label: str, message: str) -> None:
        if not ok:
            self._fail(op, label, message)

    def sample(self, name: str, label: str, seconds: float) -> None:
        self.samples.setdefault(name, {}).setdefault(label, []).append(seconds)

    def _fail(self, op: str, label: str, message: str) -> None:
        # One failure per attempted op, however many of its checks break.
        if not self.failures or self.failures[-1][0] != self.attempted:
            self.failures.append((self.attempted, op, label, message))

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """In-process ``minbasis`` CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def _chain_item(ops: Ops, label: str, body: Callable[[], None]) -> None:
    start = perf_counter()
    try:
        body()
    except OpFailed:
        return
    ops.sample("item", label, perf_counter() - start)
    ops.items += 1


def _check_certification(ops: Ops, M: mb.PolyMat, label: str, is_minimal: bool,
                         reason: str, indices: list[int] | None, fullsyl: bool):
    cert = ops.call("certify", label, mb.certify_minimal_basis, M)
    ops.expect(cert.is_minimal_basis == is_minimal and cert.reason == reason,
               "certify", label, f"verdict {cert.is_minimal_basis} ({cert.reason}), "
               f"expected {is_minimal} ({reason})")
    if indices is not None:
        got = ops.call("indices", label, mb.right_minimal_indices, M)
        ops.expect(got == indices, "indices", label, f"indices {got}, expected {indices}")
    report = ops.call("fullsyl", label, mb.has_full_sylvester_rank, M)
    ops.expect(report.has_full_sylvester_rank == fullsyl, "fullsyl", label,
               f"full-Sylvester-rank {report.has_full_sylvester_rank}, expected {fullsyl}")
    return cert


def _check_analyze(ops: Ops, path: str, label: str, is_minimal: bool,
                   indices: list[int] | None) -> None:
    code, report = ops.call("cli", label, run_cli, ["analyze", "--json", path])
    ok = (code == 0
          and report["results"]["certificate"]["is_minimal_basis"] == is_minimal
          and report["results"]["minimal_indices"] == indices)
    ops.expect(ok, "cli", label, f"analyze exit {code}, report disagrees with ground truth")


def _lify(K, M, delta_K, delta_M):
    return mb.backward_error_map(mb.build_lification(K, M), delta_K, delta_M)


@dataclass(frozen=True)
class Workload:
    item: str  # what items_per_s counts
    setup: Callable[[int, Path], tuple[object, Ops]]  # -> (pass state, warm-up ops)
    run_pass: Callable[[object, Ops], None]


# -- generic_pipeline -------------------------------------------------------------


def _pipeline_chain(ops: Ops, x: inputs.PipelineInput) -> None:
    M = mb.PolyMat(x.coeffs)  # fresh object: no per-matrix state from earlier passes
    label = x.label

    def body():
        _check_certification(ops, M, label, True, "ok", x.indices, True)
        rad = ops.call("radius", label, mb.robustness_radius_minimal, M)
        ops.expect(rad.radius > 0, "radius", label, f"radius {rad.radius}")
        radf = ops.call("radius_fullsyl", label, mb.robustness_radius_fullsyl, M)
        ops.expect(radf.radius > 0, "radius_fullsyl", label, f"radius {radf.radius}")
        pair = ops.call("dual", label, mb.dual_minimal_basis, M)
        degs = sorted(mb.row_degrees(pair.N))
        ops.expect(pair.is_valid and degs == x.indices, "dual", label,
                   f"dual row degrees {degs}, expected {x.indices}")
        rep = ops.call("perturb", label, mb.propagate_perturbation, pair, x.delta)
        ops.expect(rep.relative_change <= rep.guaranteed_bound, "perturb", label,
                   f"relative change {rep.relative_change!r} above bound "
                   f"{rep.guaranteed_bound!r}")
        if x.K is not None:
            be = ops.call("lify", label, _lify, x.K, M, x.delta_K, x.delta)
            ops.expect(be.relative_dP <= be.bound_rhs, "lify", label,
                       f"backward error {be.relative_dP!r} above {be.bound_rhs!r}")
        _check_analyze(ops, x.path, label, True, x.indices)

    _chain_item(ops, label, body)


def pipeline_setup(seed: int, directory: Path) -> tuple[list[inputs.PipelineInput], Ops]:
    warm = inputs.pipeline_inputs(seed + 1_000_003, inputs.PIPELINE_WARMUP_SHAPES,
                                  directory / "warmup")
    timed = inputs.pipeline_inputs(seed, inputs.PIPELINE_SHAPES, directory)
    warm_ops = Ops()
    for x in warm:
        _pipeline_chain(warm_ops, x)
    return timed, warm_ops


def pipeline_pass(timed: list[inputs.PipelineInput], ops: Ops) -> None:
    for x in timed:
        _pipeline_chain(ops, x)


# -- structured_scan --------------------------------------------------------------


def _scan_chain(ops: Ops, x: inputs.ScanInput) -> None:
    M = mb.PolyMat(x.coeffs)
    label = x.label

    def body():
        cert = _check_certification(ops, M, label, x.is_minimal, x.reason, x.indices,
                                    x.full_sylvester)
        _check_analyze(ops, x.path, label, x.is_minimal, x.indices)
        if x.oracle:
            exact = ops.call("oracle", label, mb.exact_rank_profile, M)
            prof = cert.profile
            ops.expect(
                exact.ranks == prof.ranks
                and exact.normal_rank_full == prof.normal_rank_full
                and exact.d_prime == prof.d_prime,
                "oracle", label,
                f"float ranks {prof.ranks} differ from exact ranks {exact.ranks}",
            )

    _chain_item(ops, label, body)


def scan_setup(seed: int, directory: Path) -> tuple[list[inputs.ScanInput], Ops]:
    warm = inputs.scan_inputs(seed + 1_000_003, directory / "warmup", small=True)
    timed = inputs.scan_inputs(seed, directory)
    warm_ops = Ops()
    for x in warm:
        _scan_chain(warm_ops, x)
    return timed, warm_ops


def scan_pass(timed: list[inputs.ScanInput], ops: Ops) -> None:
    for x in timed:
        _scan_chain(ops, x)


# -- genericity_mc ----------------------------------------------------------------

# Trials per genericity_experiment call; small calls give many latency samples.
MC_TRIALS = 50
# (m, n, d, field, zero_leading).  Gaussian strata always have the property;
# the zero_leading stratum never does.
MC_STRATA = (
    (3, 2, 2, "real", False),
    (6, 3, 3, "real", False),
    (3, 2, 2, "complex", False),
    (3, 2, 2, "real", True),
)
# Shapes drawn with sample_full_sylvester each round, then certified.
MC_SAMPLE_SHAPES = ((3, 2, 2), (6, 3, 3))
# Rounds per pass, each with its own seeds; every pass repeats the same rounds
# so that per-trial counts from whole passes repeat exactly.
MC_ROUNDS = 8


def _mc_round(ops: Ops, seed: int, rnd: int) -> None:
    base = (seed * 100_003 + rnd) * 16
    for j, (m, n, d, field, zero) in enumerate(MC_STRATA):
        label = f"experiment_{m}x{m + n}_d{d}_{field}{'_zero_leading' if zero else ''}"
        try:
            res = ops.call("experiment", label, mb.genericity_experiment, m, n, d,
                           trials=MC_TRIALS, seed=base + j, field_tag=field,
                           zero_leading=zero)
        except OpFailed:
            continue
        want = 0 if zero else MC_TRIALS
        ops.expect(res.successes == want, "experiment", label,
                   f"{res.successes} of {MC_TRIALS} trials had the property, expected {want}")
        ops.sample("item", label, ops.last / MC_TRIALS)
        ops.items += MC_TRIALS
    for j, (m, n, d) in enumerate(MC_SAMPLE_SHAPES):
        label = f"sample_{m}x{m + n}_d{d}"
        try:
            M = ops.call("sample", label, mb.sample_full_sylvester, m, n, d,
                         seed=base + 8 + j)
            _check_certification(ops, M, label, True, "ok",
                                 inputs.predicted_indices(m, n, d), True)
        except OpFailed:
            continue
    label = "cli_generic_3x5_d2"
    try:
        code, report = ops.call(
            "cli", label, run_cli,
            ["generic", "--json", "--m", "3", "--n", "2", "--d", "2",
             "--trials", str(MC_TRIALS), "--seed", str(base + 12)],
        )
    except OpFailed:
        return
    ok = code == 0 and report["results"]["successes"] == MC_TRIALS
    ops.expect(ok, "cli", label, f"generic exit {code}, successes disagree")
    ops.items += MC_TRIALS


def mc_setup(seed: int, directory: Path) -> tuple[int, Ops]:
    # The program draws its own matrices from the seeds; only warm up here.
    warm_ops = Ops()
    _mc_round(warm_ops, seed + 1_000_003, 0)
    return seed, warm_ops


def mc_pass(seed: int, ops: Ops) -> None:
    for rnd in range(MC_ROUNDS):
        _mc_round(ops, seed, rnd)


WORKLOADS = {
    "generic_pipeline": Workload("matrices", pipeline_setup, pipeline_pass),
    "structured_scan": Workload("matrices", scan_setup, scan_pass),
    "genericity_mc": Workload("trials", mc_setup, mc_pass),
}
