import math

import numpy as np
import pytest

import minbasis as mb
from minbasis.fullsyl import kprime_t
from minbasis.polymat import PolyMat, s1_stack
from minbasis.sylvester import (
    rank_decision,
    rank_nullity,
    singular_values,
    stacked_ranks,
    sylvester,
    sylvester_array,
    sylvester_rank,
)

from helpers import common_factor_2x4, example1, example2, flat_1311, one_lambda


def test_sylvester_sizes_match_block_formula():
    assert sylvester(example1(), 3).shape == (24, 24)
    assert sylvester(example2(), 2).shape == (12, 14)
    assert sylvester(one_lambda(), 1).shape == (2, 2)


def test_sylvester_k1_of_one_lambda_is_identity():
    assert np.array_equal(sylvester(one_lambda(), 1), np.eye(2))


def test_sylvester_block_layout():
    M = example2()
    S = sylvester(M, 3)
    m, q, d = M.rows, M.cols, M.degree_bound
    for i in range(3 + d):
        for j in range(3):
            block = S[i * m : (i + 1) * m, j * q : (j + 1) * q]
            if 0 <= i - j <= d:
                assert np.array_equal(block, M.coeffs[i - j])
            else:
                assert not np.any(block)


def test_sylvester_rejects_k_zero():
    with pytest.raises(mb.ShapeError):
        sylvester(example1(), 0)


PROFILES = {"rank_profile": mb.rank_profile, "exact_rank_profile": mb.exact_rank_profile}


def test_sylvester_accepts_a_numpy_integer_block_count():
    M = example2()
    assert np.array_equal(sylvester(M, np.int64(2)), sylvester(M, 2))


@pytest.mark.parametrize("k", [2.0, True, "2", None])
def test_sylvester_rejects_a_block_count_that_is_not_an_integer(k):
    with pytest.raises(mb.ShapeError, match=f"block-column count k must be an integer, got {k!r}"):
        sylvester(example2(), k)


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
def test_both_profiles_check_the_scan_cap_like_a_block_count(profile):
    M = example2()
    assert profile(M, k_max=np.int64(2)).ranks == profile(M, k_max=2).ranks
    with pytest.raises(mb.ShapeError, match="scan cap must be an integer, got 2.5"):
        profile(M, k_max=2.5)
    with pytest.raises(mb.ShapeError, match=r"scan cap must be positive, got (np\.int64\()?0"):
        profile(M, k_max=np.int64(0))


def test_singular_values_of_a_stack_equal_each_matrix_alone():
    stack = np.random.default_rng(4).standard_normal((2, 3, 4, 5))
    sv = singular_values(stack)
    assert sv.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(sv[idx], singular_values(stack[idx]))


def test_rank_nullity_rejects_a_stack():
    stack = np.ones((2, 3, 4))
    with pytest.raises(mb.ShapeError, match="2-d matrix"):
        rank_nullity(stack)
    with pytest.raises(mb.ShapeError):
        singular_values(np.ones(3))


def test_rank_nullity_worked_example_values():
    dec = rank_nullity(sylvester(example1(), 3))
    assert (dec.rank, dec.nullity) == (24, 0)
    dec = rank_nullity(sylvester(example2(), 2))
    assert (dec.rank, dec.nullity) == (11, 3)


def test_rank_nullity_zero_matrix():
    dec = rank_nullity(np.zeros((3, 4)))
    assert (dec.rank, dec.nullity) == (0, 4)


def test_rank_plus_nullity_is_cols():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p, q = rng.integers(1, 9, size=2)
        A = rng.standard_normal((p, q))
        dec = rank_nullity(A)
        assert dec.rank + dec.nullity == q
        sv = dec.singular_values
        if dec.rank > 0:
            assert sv[dec.rank - 1] > dec.tolerance_used
        if dec.rank < len(sv):
            assert dec.tolerance_used >= sv[dec.rank]


def test_explicit_tolerance_is_respected():
    A = np.diag([1.0, 1e-6])
    assert rank_nullity(A).rank == 2
    assert rank_nullity(A, tol=1e-3).rank == 1


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), -0.5e-300])
def test_invalid_tolerance_is_rejected_on_every_path(tol):
    # A negative threshold counts every singular value and used to certify
    # the common factor (lam - 2) C as a minimal basis; NaN and inf count none.
    M = common_factor_2x4()
    mb.certify_minimal_basis(M)  # fills the memo at the default tolerance
    calls = [
        lambda: rank_nullity(np.diag([1.0, 1e-6]), tol),
        lambda: sylvester_rank(M, 1, tol),
        lambda: mb.certify_minimal_basis(M, tol),
        lambda: mb.certify_minimal_basis(mb.PolyMat(M.coeffs), tol),
        lambda: mb.rank_profile(M, k_max=4, tol=tol),
        lambda: mb.has_full_sylvester_rank(M, tol),
        lambda: mb.right_minimal_indices(example1(), tol=tol),
    ]
    for call in calls:
        with pytest.raises(mb.InputFormatError, match="rank tolerance") as info:
            call()
        assert repr(tol) in str(info.value)


def test_zero_tolerance_is_accepted():
    assert rank_nullity(np.diag([1.0, 1e-300, 0.0]), 0.0).rank == 2
    assert sylvester_rank(example1(), 3, 0).rank == 24


def test_tolerance_below_roundoff_is_marginal():
    # With tol = 0 round-off singular values of the rank-deficient S_k count,
    # so the common factor passes; the verdict must not look confident.
    M = common_factor_2x4()
    assert not mb.certify_minimal_basis(M).marginal
    cert = mb.certify_minimal_basis(M, tol=0.0)
    assert cert.is_minimal_basis and cert.marginal and cert.profile.marginal
    assert rank_nullity(np.eye(3), 0.0).marginal
    assert not rank_nullity(np.eye(3)).marginal


def test_full_rank_gap_ratio_is_measured_against_the_tolerance():
    # A 1e-9 perturbation of (lam - 2) C certifies with one full-rank S_1,
    # whose sigma_min is about 5e-10: the ratio is sigma_min / tau, not inf.
    C = common_factor_2x4()
    rng = np.random.default_rng(0)
    noisy = PolyMat(C.coeffs + 1e-9 * rng.standard_normal(C.coeffs.shape))
    cert = mb.certify_minimal_basis(noisy)
    assert cert.reason == "ok"
    (dec,) = cert.profile.decisions
    assert dec.rank == len(dec.singular_values) == 4
    assert dec.gap_ratio == dec.singular_values[-1] / dec.tolerance_used
    assert dec.gap_ratio == pytest.approx(6.67e4, rel=1e-3)
    assert rank_nullity(np.diag([1.0, 1e-3]), 1e-5).gap_ratio == pytest.approx(100.0)
    assert rank_nullity(np.diag([1.0, 1e-3]), 0.0).gap_ratio == math.inf


def _sylvester_loop(coeffs: np.ndarray, k: int) -> np.ndarray:
    grade, m, q = coeffs.shape
    data = np.zeros(((k + grade - 1) * m, k * q), dtype=coeffs.dtype)
    for j in range(k):
        for i in range(grade):
            data[(j + i) * m : (j + i + 1) * m, j * q : (j + 1) * q] = coeffs[i]
    return data


@pytest.mark.parametrize("k", [1, 2, 4])
def test_batched_sylvester_build_matches_block_loop(k):
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal((2, 3, 4, 3, 5)) + 1j * rng.standard_normal((2, 3, 4, 3, 5))
    stack = sylvester_array(coeffs, k)
    assert stack.shape == (2, 3, (k + 3) * 3, k * 5)
    for index in np.ndindex(2, 3):
        assert np.array_equal(stack[index], _sylvester_loop(coeffs[index], k))
    P = PolyMat(coeffs[1, 2])
    assert np.array_equal(sylvester(P, k), stack[1, 2])


@pytest.mark.parametrize("tol", [None, 1e-3, 0.0])
def test_stacked_ranks_match_single_decisions(tol):
    rng = np.random.default_rng(43)
    stack = rng.standard_normal((6, 4, 7)) * np.logspace(0, -8, 7)
    sv = np.linalg.svd(stack, compute_uv=False)
    ranks, tau, floor = stacked_ranks(sv, (4, 7), tol)
    for b in range(6):
        dec = rank_decision(sv[b], (4, 7), tol)
        assert (dec.rank, dec.tolerance_used, dec.roundoff_floor) == (ranks[b], tau[b], floor[b])


def test_sigma24_of_example1_matches_reported_value():
    sv = singular_values(sylvester(example1(), 3))
    assert sv[23] / math.sqrt(3) == pytest.approx(0.2569, abs=1e-3)


def test_column_rank_persistence():
    # Full column rank at k propagates down to every smaller block count.
    rng = np.random.default_rng(29)
    M = PolyMat(rng.standard_normal((3, 2, 5)))
    k = 2  # S_2 is 10x10-ish: (2+2)*2 x 2*5
    if rank_nullity(sylvester(M, k)).rank == k * M.cols:
        for ell in range(1, k):
            assert rank_nullity(sylvester(M, ell)).rank == ell * M.cols


def test_row_rank_persistence_on_example1():
    M = example1()
    assert rank_nullity(sylvester(M, 3)).rank == 24
    for ell in (4, 5):
        dec = rank_nullity(sylvester(M, ell))
        assert dec.rank == (ell + 1) * 6


def test_row_rank_persistence_on_random_samples():
    M = mb.sample_full_sylvester(2, 3, 2, seed=4)
    kp = kprime_t(2, 3, 2).k_prime
    assert rank_nullity(sylvester(M, kp)).rank == (kp + 2) * 2
    for ell in (kp + 1, kp + 2):
        assert rank_nullity(sylvester(M, ell)).rank == (ell + 2) * 2


def test_norm_sandwich_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(10):
        P = PolyMat(rng.standard_normal((3, 2, 4)))
        s1 = float(np.linalg.norm(s1_stack(P), 2))
        for k in range(1, 7):
            sk = float(np.linalg.norm(sylvester(P, k), 2))
            assert s1 <= sk * (1 + 1e-12)
            assert sk <= math.sqrt(k) * s1 * (1 + 1e-12)


def test_block_column_bound():
    rng = np.random.default_rng(37)
    P = PolyMat(rng.standard_normal((3, 2, 4)))
    for k in (2, 4):
        S = sylvester(P, k)
        sigma1 = float(np.linalg.norm(S, 2))
        col_norms = [
            float(np.linalg.norm(S[:, j * P.cols : (j + 1) * P.cols], 2))
            for j in range(k)
        ]
        assert max(col_norms) <= sigma1 * (1 + 1e-12)
        assert sigma1 <= math.sqrt(k) * max(col_norms) * (1 + 1e-12)


def test_flat_s1_has_orthonormal_rows():
    sv = singular_values(sylvester(flat_1311(), 1))
    assert np.allclose(sv, [1.0, 1.0])
