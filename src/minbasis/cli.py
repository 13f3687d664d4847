"""Command-line front end producing text and JSON analysis reports.

Exit codes: 0 when a report was produced (verdicts included), 1 when a
certify-style command ran with --strict and the verdict was negative, 2 on
invalid input or an operation whose preconditions fail.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import dual as dual_mod
from . import fullsyl as fullsyl_mod
from . import lify as lify_mod
from . import minimal as minimal_mod
from . import oracle as oracle_mod
from . import robust as robust_mod
from .errors import MinBasisError
from .polymat import PolyMat, load, row_degrees, to_dict

PROG = "minbasis"


def _digest(P: PolyMat) -> dict:
    return {
        "rows": P.rows,
        "cols": P.cols,
        "degree_bound": P.degree_bound,
        "field": P.field,
    }


def _fields(report, *drop: str) -> dict:
    """The JSON form of a report dataclass: its fields in order, less ``drop``.

    A nested report dataclass is merged in, less ``drop`` too; a PolyMat takes
    the file format; a tuple becomes a list, of dicts when it holds records.
    """
    out = {}
    for f in dataclasses.fields(report):
        if f.name in drop:
            continue
        value = getattr(report, f.name)
        if isinstance(value, PolyMat):
            out[f.name] = to_dict(value)
        elif dataclasses.is_dataclass(value):
            out.update(_fields(value, *drop))
        elif isinstance(value, tuple):
            out[f.name] = [_record(item) for item in value]
        else:
            out[f.name] = value
    return out


def _record(item):
    if dataclasses.is_dataclass(item):
        return _fields(item)
    return item._asdict() if hasattr(item, "_asdict") else item


# Profile and certificate fields left out of the reports: the per-k rank
# decisions and the tolerances (a report has its own tolerances block), a
# certificate's profile (analyze prints it beside the certificate) and the
# scan's stabilized increment.
_PROFILE_DROP = ("stabilized_increment", "decisions", "tolerance")
_CERT_DROP = ("tolerance_used", "profile")


def _emit(args, input_digest, results: dict, tol: float | None, started: float) -> None:
    policy = "explicit" if tol is not None else "max(rows,cols)*eps*sigma1"
    report = {
        "command": args.command,
        "input": input_digest,
        "results": results,
        "tolerances": {"tol": tol, "policy": policy if "tol" in args else "exact"},
        "wall_time": time.perf_counter() - started,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report)
        if args.summary:
            print(args.summary.format(**results))


def _print_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_text(item, indent + 1)
                print()
        else:
            if isinstance(value, float):
                value = f"{value:.12g}"
            print(f"{pad}{key}: {value}")


# -- subcommand bodies -----------------------------------------------------------
# The commands on one matrix file take it loaded and return (results, verdict);
# generic and lify read their own inputs and return (input digest, results,
# verdict).  The verdict is None for commands that --strict does not apply to.


def _profile_results(profile) -> dict:
    return {
        **_fields(profile, *_PROFILE_DROP),
        "minimal_indices": minimal_mod._indices_or_none(profile),
    }


def _cmd_analyze(M, args, tol):
    cert = minimal_mod.certify_minimal_basis(M, tol=tol)
    profile = (
        cert.profile
        if args.kmax is None
        else minimal_mod.rank_profile(M, k_max=args.kmax, tol=tol)
    )
    results = {**_profile_results(profile), "certificate": _fields(cert, *_CERT_DROP)}
    return results, None


def _cmd_certify(M, args, tol):
    cert = minimal_mod.certify_minimal_basis(M, tol=tol)
    return _fields(cert, *_CERT_DROP), cert.is_minimal_basis


def _cmd_fullsyl(M, args, tol):
    report = fullsyl_mod.has_full_sylvester_rank(M, tol=tol)
    return _fields(report, "tolerance_used"), report.has_full_sylvester_rank


def _cmd_radius(M, args, tol):
    if args.kind == "minimal":
        extra = {} if args.scan_extra is None else {"scan_extra": args.scan_extra}
        report = robust_mod.robustness_radius_minimal(M, tol=tol, **extra)
    elif args.scan_extra is not None:
        raise MinBasisError("--scan-extra applies only to --kind minimal")
    else:
        report = robust_mod.robustness_radius_fullsyl(M, tol=tol)
    return _fields(report), None


def _cmd_dual(M, args, tol):
    pair = dual_mod.dual_minimal_basis(M, tol=tol)
    results = {
        "row_degrees": row_degrees(pair.N),
        **_fields(pair, "M", "N", "is_valid", "failures"),
        "dual_basis": to_dict(pair.N),
    }
    return results, None


def _cmd_perturb(M, args, tol):
    delta_M = load(args.delta)
    if args.dual_file:
        N = load(args.dual_file)
        pair = dual_mod.verify_duality(M, N, tol=tol)
        if not pair.is_valid:
            raise MinBasisError("supplied dual basis failed verification: "
                                + "; ".join(pair.failures))
    else:
        pair = dual_mod.dual_minimal_basis(M, tol=tol)
    report = dual_mod.propagate_perturbation(pair, delta_M, tol=tol)
    # Of the perturbed pair, only its residual is reported.
    return _fields(report, "M", "N", "k_prime_t", "is_valid", "failures"), None


def _cmd_generic(args, tol):
    result = fullsyl_mod.genericity_experiment(
        args.m,
        args.n,
        args.d,
        trials=args.trials,
        seed=args.seed,
        dist=args.dist,
        field_tag=args.field,
        zero_leading=args.zero_leading,
        tol=tol,
    )
    digest = {"m": args.m, "n": args.n, "d": args.d, "field": args.field}
    # zero_leading is reported only when it was asked for.
    drop = () if result.zero_leading else ("zero_leading",)
    return digest, _fields(result, *drop), None


def _cmd_lify(args, tol):
    if bool(args.dk) != bool(args.dm):
        raise MinBasisError("--dk and --dm must be given together")
    K = load(args.k_file)
    M = load(args.m_file)
    lif = lify_mod.build_lification(K, M, tol=tol)
    results = {
        **_fields(lif, "K", "M", "L", "N", "P", "pair"),
        "p_rows": lif.P.rows,
        "p_cols": lif.P.cols,
        "p_degree_bound": lif.P.degree_bound,
        "dual_residual": lif.pair.residual,
        "recovered_P": to_dict(lif.P),
    }
    if args.dk:
        delta_K, delta_M = load(args.dk), load(args.dm)
        report = lify_mod.backward_error_map(lif, delta_K, delta_M, tol=tol)
        results["backward_error"] = _fields(report, "delta_P", "perturbation")
        results["index_shift_check"] = lify_mod.minimal_index_shift_check(
            lif, delta_K, report.perturbation, tol=tol
        )
    return _digest(M), results, None


def _cmd_oracle_rank(M, args, tol):
    return _profile_results(oracle_mod.exact_rank_profile(M, k_max=args.kmax)), None


# -- argument parsing --------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused: parsing
    leaves it unchanged and gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Minimal-basis analysis of polynomial matrices via Sylvester ranks.",
    )
    # summary: a line printed after the text report, formatted from the results.
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--json", action="store_true", help="emit a JSON report")
    base.set_defaults(summary=None)
    common = argparse.ArgumentParser(add_help=False, parents=[base])  # all but oracle-rank
    common.add_argument("--tol", type=float, default=None,
                        help="rank tolerance")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="exit 1 on a negative verdict")
    # The input of every command that reads one matrix file.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, source],
                       help="rank profile, index counts, and certificate")
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", parents=[common, strict, source], help="minimal-basis certificate")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("fullsyl", parents=[common, strict, source], help="full-Sylvester-rank test")
    p.set_defaults(func=_cmd_fullsyl)

    p = sub.add_parser("radius", parents=[common, source], help="robustness radius")
    p.add_argument("--kind", choices=["minimal", "fullsyl"], default="minimal")
    p.add_argument("--scan-extra", type=int, help="k scanned past d' for --kind minimal")
    p.set_defaults(func=_cmd_radius, summary="radius = {radius:.6g} at k = {k_used}")

    p = sub.add_parser("dual", parents=[common, source], help="extract a dual minimal basis")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("perturb", parents=[common, source],
                       help="propagate a perturbation to the dual basis")
    p.add_argument("delta")
    p.add_argument("--dual", dest="dual_file", default=None,
                   help="use this dual basis instead of extracting one")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("generic", parents=[common],
                       help="Monte Carlo full-Sylvester-rank frequency")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--dist", choices=["gaussian", "uniform"], default="gaussian")
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--zero-leading", action="store_true",
                   help="sample the degenerate stratum with zero leading coefficient")
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("lify", parents=[common],
                       help="assemble a strong l-ification and recover P")
    p.add_argument("k_file")
    p.add_argument("m_file")
    p.add_argument("--dk", default=None, help="perturbation of K (JSON file)")
    p.add_argument("--dm", default=None, help="perturbation of M (JSON file)")
    p.set_defaults(func=_cmd_lify)

    p = sub.add_parser("oracle-rank", parents=[base, source],
                       help="exact rational rank profile")
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_rank)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    tol = getattr(args, "tol", None)  # oracle-rank: exact ranks take no tolerance
    try:
        if "file" in args:
            M = load(args.file)
            input_digest = _digest(M)
            results, verdict = args.func(M, args, tol)
        else:
            input_digest, results, verdict = args.func(args, tol)
        _emit(args, input_digest, results, tol, started)
    except (MinBasisError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    return 1 if verdict is False and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
