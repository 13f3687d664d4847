"""Certificate and exact-profile differences between this tree and a base
tree, on the benchmark's inputs.

    python3 tools/verdict_diff.py BASE_DIR [--scan-seeds 30] [--pipeline-seeds 3]

BASE_DIR is another checkout of the repository, such as a clone of the
parent commit.  Each tree certifies, in a fresh process with its own
``src`` on the path, every input of ``benchmarks/inputs.scan_inputs`` at
seeds 1 .. --scan-seeds and of ``pipeline_inputs`` (the timed shapes) at
seeds 1 .. --pipeline-seeds, each on a fresh matrix, and takes the
``exact_rank_profile`` of each scan input marked ``oracle``.  Both trees
build the inputs with this tree's ``benchmarks/inputs.py``, which is only
read; the input files it writes go to a temporary directory.

The script prints every input whose verdict, reason, d', right minimal
indices, marginal flag, Sylvester ranks or normal-rank flag differ between
the trees, and every exact profile whose ranks, d', normal-rank flag or
indices differ, then each tree's count of ``numpy.linalg.svd`` calls during
the certificates.  It exits 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("verdict", "reason", "d_prime", "indices", "marginal", "ranks", "normal_rank_full")


def _profile_record(profile) -> dict:
    """The compared fields of one rank profile, float or exact."""
    indices = None
    if profile.d_prime is not None and profile.normal_rank_full:
        indices = [j for j, count in enumerate(profile.alphas) for _ in range(count)]
    return {
        "d_prime": profile.d_prime,
        "indices": indices,
        "ranks": list(profile.ranks),
        "normal_rank_full": profile.normal_rank_full,
    }


def _record(cert) -> dict:
    """The compared fields of one certificate."""
    return {"verdict": cert.is_minimal_basis, "reason": cert.reason,
            "marginal": cert.marginal, **_profile_record(cert.profile)}


def collect(scan_seeds: int, pipeline_seeds: int) -> dict:
    """Certify every input, and take the exact profile of the oracle inputs,
    with the ``minbasis`` on the path: the records by input, and the SVD
    calls the certificates took."""
    import numpy as np

    import minbasis as mb

    sys.path.insert(0, str(ROOT / "benchmarks"))
    import inputs

    svd, calls = np.linalg.svd, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    def certify(coeffs):
        np.linalg.svd = counted
        try:
            return _record(mb.certify_minimal_basis(mb.PolyMat(coeffs)))
        finally:
            np.linalg.svd = svd

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(1, scan_seeds + 1):
            for x in inputs.scan_inputs(seed, Path(tmp)):
                records[f"scan seed {seed} {x.label}"] = certify(x.coeffs)
                if x.oracle:
                    exact = mb.exact_rank_profile(mb.PolyMat(x.coeffs))
                    records[f"scan seed {seed} {x.label} exact"] = _profile_record(exact)
        for seed in range(1, pipeline_seeds + 1):
            for i, x in enumerate(inputs.pipeline_inputs(seed, inputs.PIPELINE_SHAPES, Path(tmp))):
                records[f"pipeline seed {seed} #{i} {x.label}"] = certify(x.coeffs)
    return {"records": records, "svd_calls": calls[0]}


def run_tree(tree: Path, scan_seeds: int, pipeline_seeds: int) -> dict:
    """``collect`` in a fresh process on ``tree``'s source, on one BLAS
    thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--collect", str(scan_seeds), str(pipeline_seeds)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def differences(base: dict, change: dict) -> list[str]:
    """One line per input and field that differ, and per input only one
    tree has; an exact profile's record lacks the certificate's fields."""
    lines = []
    for key in sorted(set(base) | set(change)):
        if key not in base or key not in change:
            lines.append(f"{key}: only in {'change' if key not in base else 'base'}")
            continue
        for field in FIELDS:
            if base[key].get(field) != change[key].get(field):
                lines.append(f"{key}: {field} {base[key][field]!r} -> {change[key][field]!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:
        print(json.dumps(collect(int(argv[1]), int(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="another checkout of the repository")
    parser.add_argument("--scan-seeds", type=int, default=30)
    parser.add_argument("--pipeline-seeds", type=int, default=3)
    args = parser.parse_args(argv)
    runs = {name: run_tree(tree, args.scan_seeds, args.pipeline_seeds)
            for name, tree in (("base", args.base.resolve()), ("change", ROOT))}
    lines = differences(runs["base"]["records"], runs["change"]["records"])
    for line in lines:
        print(line)
    print(f"{len(runs['base']['records'])} inputs, {len(lines)} differences")
    for name, run in runs.items():
        print(f"{name}: {run['svd_calls']} numpy.linalg.svd calls")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
