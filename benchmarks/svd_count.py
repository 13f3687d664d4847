"""SVD count of one ``dual_minimal_basis`` call at (m, n, d) = (6, 3, 3).

    python3 benchmarks/svd_count.py

Counts the calls into ``numpy.linalg.svd`` with the benchmark's span
recorder, for seeds 1 and 7, twice: once for the call alone, as the traced
benchmark run counts it, and once with the ``sample_full_sylvester`` call that
drew the input inside the count.  The sampler decides full-Sylvester-rank on
the same S_k' that ``dual_minimal_basis`` factors again, so it adds one SVD
and no distinct input: 21 calls with 18 distinct inputs for the call alone,
22 with 18 distinct when the sampler is counted too.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import minbasis as mb  # noqa: E402

import spans  # noqa: E402


def count(seed: int, with_sampler: bool) -> tuple[int, int]:
    rec = spans.Recorder()
    M = None if with_sampler else mb.sample_full_sylvester(6, 3, 3, seed=seed)
    rec.install()
    try:
        rec.begin_op("dual")
        if with_sampler:
            M = mb.sample_full_sylvester(6, 3, 3, seed=seed)
        mb.dual_minimal_basis(M)
        rec.end_op()
    finally:
        rec.uninstall()
    return rec.calls("linalg.svd"), int(rec.counts["linalg.svd.distinct"])


def main() -> int:
    for seed in (1, 7):
        for with_sampler in (False, True):
            calls, distinct = count(seed, with_sampler)
            what = "sampler + dual_minimal_basis" if with_sampler else "dual_minimal_basis"
            print(f"seed {seed}  {what:30s} svd calls {calls}  distinct {distinct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
