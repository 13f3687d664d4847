"""The banded R of a Sylvester matrix: its singular values against those of
S_k itself, and the shape rule that decides which S_k the memo factors
through it."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from minbasis.polymat import PolyMat
from minbasis.sylvester import (
    _EPS,
    _banded_r,
    _sweep_pays,
    singular_values,
    sylvester,
    sylvester_singular_values,
)

from helpers import planted_indices

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _coefficients(rng, m, q, d, field, kind) -> np.ndarray:
    """A grade-d coefficient stack: Gaussian, or with a zero leading
    coefficient, a common factor (lam - 2) of every row, or row 1 equal to
    row 0; the last two make every wide S_k rank deficient."""
    shape = (d + 1, m, q)
    C = rng.standard_normal(shape)
    if field == "complex":
        C = C + 1j * rng.standard_normal(shape)
    if kind == "zero_leading":
        C[-1] = 0
    elif kind == "common_factor":
        C[1:] = C[:-1]
        C[0] = 0
        C[:-1] -= 2 * C[1:]
    elif kind == "duplicate_row" and m > 1:
        C[:, 1] = C[:, 0]
    return C


def _assert_same_spectrum(P: PolyMat, k: int) -> None:
    S = sylvester(P, k)
    R = _banded_r(P, k)
    p, r = S.shape
    assert R.shape == (min(p, r), p)
    assert np.array_equal(R, np.triu(R))
    dense, banded = singular_values(S), singular_values(R)
    bound = 10 * max(p, r) * _EPS * dense[0]
    assert np.abs(dense - banded).max() <= bound
    assert np.abs(R.conj().T @ R - S @ S.conj().T).max() <= bound * dense[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(1, 5), extra=st.integers(1, 5), d=st.integers(1, 3), k=st.integers(1, 8),
       field=st.sampled_from(["real", "complex"]),
       kind=st.sampled_from(["generic", "zero_leading", "common_factor", "duplicate_row"]),
       seed=st.integers(0, 2**16))
@example(m=2, extra=1, d=1, k=3, field="real", kind="generic", seed=1)
@example(m=2, extra=1, d=2, k=4, field="complex", kind="generic", seed=2)
@example(m=3, extra=1, d=3, k=5, field="real", kind="zero_leading", seed=3)  # q < (d + 1) m
@example(m=2, extra=3, d=1, k=4, field="real", kind="common_factor", seed=4)
@example(m=3, extra=2, d=2, k=3, field="complex", kind="duplicate_row", seed=5)
@example(m=3, extra=1, d=2, k=2, field="real", kind="generic", seed=6)  # S_k tall: kq rows
def test_banded_r_matches_the_dense_svd(m, extra, d, k, field, kind, seed):
    C = _coefficients(np.random.default_rng(seed), m, m + extra, d, field, kind)
    _assert_same_spectrum(PolyMat(C), k)


def test_the_memo_reads_a_swept_s_k_off_its_r():
    M = planted_indices((1, 1, 1, 1, 20), np.random.default_rng(7))
    assert (M.rows, M.cols, M.degree_bound) == (24, 29, 1)
    sv = sylvester_singular_values(M, 20)
    assert np.array_equal(sv, singular_values(_banded_r(M, 20)))
    dense = singular_values(sylvester(M, 20))
    assert np.abs(sv - dense).max() <= 10 * 580 * _EPS * dense[0]


def test_the_sweep_rule_takes_only_strongly_wide_large_s_k(monkeypatch):
    # S_20 of planted (1, 1, 1, 1, 20), 504x580, is the one S_k of the
    # benchmark that the sweep serves: every S_k of the pipeline shapes up to
    # the radius scan's d' + 2, and of the genericity shapes up to the
    # forced scan's m d + 2, stays dense.  The widest of those, 330x360 and
    # 300x320, were slower through R.
    assert _sweep_pays(20, 24, 29, 1)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    inputs, workloads = (importlib.import_module(name) for name in ("inputs", "workloads"))
    for m, n, d, *_ in inputs.PIPELINE_SHAPES:
        for k in range(1, math.ceil(m * d / n) + 4):
            assert not _sweep_pays(k, m, m + n, d), (m, n, d, k)
    for m, n, d, *_ in workloads.MC_STRATA + workloads.MC_SAMPLE_SHAPES:
        for k in range(1, m * d + 3):
            assert not _sweep_pays(k, m, m + n, d), (m, n, d, k)
