import math

import numpy as np
import pytest

import minbasis as mb
from minbasis.polymat import PolyMat, s1_norms, s1_stack
from minbasis.sylvester import (
    min_singular_value,
    rank_nullity,
    singular_values,
    sylvester,
    sylvester_rank,
)

from helpers import common_factor_2x4, example1, example2, flat_1311, one_lambda


def test_sylvester_sizes_match_block_formula():
    assert sylvester(example1(), 3).data.shape == (24, 24)
    assert sylvester(example2(), 2).data.shape == (12, 14)
    assert sylvester(one_lambda(), 1).data.shape == (2, 2)


def test_sylvester_k1_of_one_lambda_is_identity():
    assert np.array_equal(sylvester(one_lambda(), 1).data, np.eye(2))


def test_sylvester_block_layout():
    M = example2()
    S = sylvester(M, 3)
    m, q, d = M.rows, M.cols, M.degree_bound
    for i in range(3 + d):
        for j in range(3):
            block = S.data[i * m : (i + 1) * m, j * q : (j + 1) * q]
            if 0 <= i - j <= d:
                assert np.array_equal(block, M.coeffs[i - j])
            else:
                assert not np.any(block)


def test_sylvester_rejects_k_zero():
    with pytest.raises(mb.ShapeError):
        sylvester(example1(), 0)


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


def test_min_singular_value_identity():
    assert min_singular_value(np.eye(4)) == pytest.approx(1.0)


def test_min_singular_value_indexing_and_errors():
    A = np.diag([3.0, 2.0, 1.0])
    assert min_singular_value(A, 0) == pytest.approx(1.0)
    assert min_singular_value(A, 2) == pytest.approx(3.0)
    with pytest.raises(IndexError):
        min_singular_value(A, 3)


def test_min_singular_value_matches_gram_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 8))
    eigs = np.linalg.eigvalsh(A @ A.T)
    assert min_singular_value(A) == pytest.approx(math.sqrt(eigs[0]), rel=1e-10)


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
    kp = mb.kprime_t(2, 3, 2).k_prime
    assert rank_nullity(sylvester(M, kp)).rank == (kp + 2) * 2
    for ell in (kp + 1, kp + 2):
        assert rank_nullity(sylvester(M, ell)).rank == (ell + 2) * 2


def test_norm_sandwich_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(10):
        P = PolyMat(rng.standard_normal((3, 2, 4)))
        s1 = s1_norms(P)[0]
        for k in range(1, 7):
            sk = float(np.linalg.norm(sylvester(P, k).data, 2))
            assert s1 <= sk * (1 + 1e-12)
            assert sk <= math.sqrt(k) * s1 * (1 + 1e-12)


def test_block_column_bound():
    rng = np.random.default_rng(37)
    P = PolyMat(rng.standard_normal((3, 2, 4)))
    for k in (2, 4):
        S = sylvester(P, k)
        sigma1 = float(np.linalg.norm(S.data, 2))
        col_norms = [
            float(np.linalg.norm(S.data[:, j * P.cols : (j + 1) * P.cols], 2))
            for j in range(k)
        ]
        assert max(col_norms) <= sigma1 * (1 + 1e-12)
        assert sigma1 <= math.sqrt(k) * max(col_norms) * (1 + 1e-12)


def test_flat_s1_has_orthonormal_rows():
    sv = singular_values(sylvester(flat_1311(), 1))
    assert np.allclose(sv, [1.0, 1.0])
