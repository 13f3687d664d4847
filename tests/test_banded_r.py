"""The banded sweep of a Sylvester matrix: the singular values of its R
against those of S_k itself, its nullspace against the dense complement,
and the shape rule that decides which S_k the memo, the dual's nullspaces
and the minimum-norm corrections take through it."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius
from minbasis.errors import NumericalInconsistencyError
from minbasis.fullsyl import kprime_t
from minbasis.polymat import PolyMat, row_degrees
from minbasis.sylvester import (
    _EPS,
    _banded_r,
    _complement,
    _sweep_pays,
    singular_values,
    sylvester,
    sylvester_nullspace,
    sylvester_rank,
    sylvester_singular_values,
)

from helpers import planted_indices, random_perturbation

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _coefficients(rng, m, q, d, field, kind) -> np.ndarray:
    """A grade-d coefficient stack: Gaussian, or with a zero leading or
    constant coefficient, a common factor (lam - 2) of every row, or row 1
    equal to row 0; all but the first make every wide S_k rank deficient."""
    shape = (d + 1, m, q)
    C = rng.standard_normal(shape)
    if field == "complex":
        C = C + 1j * rng.standard_normal(shape)
    if kind == "zero_leading":
        C[-1] = 0
    elif kind == "zero_constant":
        C[0] = 0
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(1, 5), extra=st.integers(1, 4), d=st.integers(1, 3), wider=st.integers(-1, 3),
       field=st.sampled_from(["real", "complex"]),
       kind=st.sampled_from(["generic", "zero_constant", "common_factor"]),
       seed=st.integers(0, 2**16))
@example(m=2, extra=1, d=1, wider=0, field="real", kind="generic", seed=1)
@example(m=3, extra=2, d=3, wider=2, field="complex", kind="generic", seed=2)
@example(m=4, extra=1, d=2, wider=1, field="real", kind="zero_constant", seed=3)
@example(m=2, extra=3, d=1, wider=3, field="complex", kind="common_factor", seed=4)
@example(m=3, extra=1, d=2, wider=-1, field="real", kind="generic", seed=5)  # S_k tall
def test_the_sweep_complement_is_the_dense_one(m, extra, d, wider, field, kind, seed):
    q = m + extra
    k = max(1, -(-d * m // extra) + wider)  # the first wide S_k from wider = 0
    P = PolyMat(_coefficients(np.random.default_rng(seed), m, q, d, field, kind))
    S = sylvester(P, k)
    p, r = S.shape
    R, Z = _banded_r(P, k, nullspace=True)
    assert np.array_equal(R, _banded_r(P, k))
    assert Z.shape == (r, max(r - p, 0))
    bound = 10 * max(p, r) * _EPS
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(Z.shape[1])) <= bound
    assert np.linalg.norm(S @ Z) <= bound * singular_values(S)[0]
    # With a common factor S_k lacks m of full row rank in directions that
    # rounding picks, and each QR completes its row space with its own.  A
    # zero C_0 makes the first m rows of S_k zero, which neither QR reflects,
    # so there the complement is unique too.
    if kind != "common_factor":
        dense = _complement(S.conj().T)[0]
        assert np.linalg.norm(Z @ Z.conj().T - dense @ dense.conj().T) <= 1e-10


@pytest.mark.parametrize("shape", [(2, 2, 1, 2), (20, 5, 3, 13)], ids=["dense", "swept"])
def test_the_nullspace_of_a_rank_deficient_s_k_raises_on_both_paths(shape):
    m, n, d, k = shape
    assert _sweep_pays(k, m, m + n, d, "complete") == (m == 20)
    P = PolyMat(_coefficients(np.random.default_rng(9), m, m + n, d, "real", "common_factor"))
    dec = sylvester_rank(P, k)
    assert dec.rank < (k + d) * m
    with pytest.raises(NumericalInconsistencyError, match=f"rank {dec.rank} below"):
        sylvester_nullspace(P, k)


def test_the_dual_sweeps_only_the_large_pipeline_shapes(monkeypatch):
    # The dual takes the nullspaces of S_k' (t > 0) and S_k'+1 and solves
    # against the same S_k of M + delta.  The sweep beats both a complete and
    # an R-only QR of S_13 of (20, 5, 3), 320x325, and of S_7 of (30, 10, 2),
    # 270x280; S_25 of (8, 2, 6), 248x250, is near the break-even and stays
    # dense, as do the small pipeline and genericity shapes.
    swept = {(20, 5, 3): 13, (30, 10, 2): 7}
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    inputs, workloads = (importlib.import_module(name) for name in ("inputs", "workloads"))
    shapes = {shape[:3] for shape in inputs.PIPELINE_SHAPES + workloads.MC_STRATA}
    shapes |= set(workloads.MC_SAMPLE_SHAPES)
    assert {(8, 2, 6), *swept} <= shapes
    for m, n, d in shapes:
        kt = kprime_t(m, n, d)
        for k in (kt.k_prime, kt.k_prime + 1):
            for dense in ("complete", "r"):
                assert _sweep_pays(k, m, m + n, d, dense) == (swept.get((m, n, d)) == k), (
                    m, n, d, k, dense)


def _projector(N: PolyMat) -> np.ndarray:
    """The orthogonal projector onto the span of N's rows, each as the stack
    of its coefficients."""
    rows = N.coeffs.transpose(1, 0, 2).reshape(N.rows, -1)
    basis = np.linalg.qr(rows.conj().T)[0]
    return basis @ basis.conj().T


@pytest.mark.parametrize("shape", [(20, 5, 3), (30, 10, 2)], ids=lambda s: "{}x{}x{}".format(*s))
def test_a_swept_dual_spans_the_dense_one(shape, monkeypatch):
    # The sweep may rotate N within its degree-k' rows: the same span and row
    # degrees, and the radius and propagation read from N only norms and
    # singular values, which a rotation keeps.  The radius moves by the
    # rounding of two backward stable nullspaces times the condition number
    # of N's leading coefficient: up to 2e-12 relative at seeds 1-30.
    M = mb.sample_full_sylvester(*shape, seed=3)
    target = 0.25 * admissible_radius(M, mb.dual_minimal_basis(M).N)
    delta = random_perturbation(M, target, np.random.default_rng(4))

    def chain():
        fresh = PolyMat(M.coeffs)
        pair = mb.dual_minimal_basis(fresh)
        return pair, admissible_radius(fresh, pair.N), mb.propagate_perturbation(pair, delta)

    swept = chain()
    monkeypatch.setattr(sys.modules["minbasis.sylvester"], "_sweep_pays",
                        lambda *args: False)
    dense = chain()
    (pair, radius, report), (pair_d, radius_d, report_d) = swept, dense
    assert pair.is_valid and row_degrees(pair.N) == row_degrees(pair_d.N)
    assert np.linalg.norm(_projector(pair.N) - _projector(pair_d.N)) <= 1e-10
    assert radius == pytest.approx(radius_d, rel=1e-11)
    assert report.relative_change == pytest.approx(report_d.relative_change, rel=1e-9)
    assert report.guaranteed_bound == pytest.approx(report_d.guaranteed_bound, rel=1e-9)
