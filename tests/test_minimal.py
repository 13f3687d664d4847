import itertools

import numpy as np
import pytest

import minbasis as mb
from minbasis.fullsyl import kprime_t, predicted_minimal_indices
from minbasis.minimal import (
    REASON_DEGREE_SUM,
    REASON_HR,
    REASON_SCAN_EXHAUSTED,
    _minimal_index_sum,
    _profile,
    certify_full_leading,
    certify_minimal_basis,
    indices_from_profile,
    rank_profile,
    right_minimal_indices,
)
from minbasis.polymat import PolyMat
from minbasis.sylvester import full_leading_rank, sylvester_rank

from helpers import common_factor_2x4, example1, example2, example3, planted_indices


def test_rank_profile_example1():
    prof = rank_profile(example1())
    assert prof.ranks == (8, 16, 24, 30)
    assert prof.nullities == (0, 0, 0, 2)
    assert prof.d_prime == 3
    assert prof.alphas == (0, 0, 0, 2)
    assert prof.normal_rank_full


def test_rank_profile_example2():
    prof = rank_profile(example2())
    assert prof.ranks == (6, 11, 15)
    assert prof.nullities == (1, 3, 6)
    assert prof.d_prime == 2
    assert prof.alphas == (1, 1, 1)


def test_rank_profile_example3():
    prof = rank_profile(example3())
    assert prof.ranks == (8, 16, 24, 32, 38)
    assert prof.nullities == (0, 0, 0, 0, 2)
    assert prof.d_prime == 4
    assert prof.alphas == (0, 0, 0, 0, 2)


def test_the_profile_of_the_full_sylvester_ranks_is_the_predicted_one():
    # Pure arithmetic, no SVD: the ranks min((k+d)m, kq) that full-Sylvester-
    # rank forces up to k'+1 stop the scan there, encode t indices k'-1 and
    # n-t indices k', and sum to m*d (the index sum theorem).
    for m, n, d in itertools.product(range(1, 9), range(1, 9), range(1, 7)):
        q, kp = m + n, kprime_t(m, n, d).k_prime
        ranks = [min((k + d) * m, k * q) for k in range(1, kp + 2)]
        assert [b - a for a, b in zip([0] + ranks, ranks)].index(m) == kp, (m, n, d)
        profile = _profile(PolyMat(np.zeros((d + 1, m, q))), ranks, m, True, (), None)
        assert profile.d_prime == kp
        assert indices_from_profile(profile) == predicted_minimal_indices(m, n, d), (m, n, d)
        assert _minimal_index_sum(profile, m) == m * d, (m, n, d)


def test_rank_profile_increments_non_increasing():
    for M in (example1(), example2(), example3()):
        prof = rank_profile(M)
        incs = np.diff(np.concatenate(([0], prof.ranks)))
        assert all(a >= b for a, b in zip(incs, incs[1:]))


def test_rank_profile_nullity_identity():
    for M in (example1(), example2(), example3()):
        prof = rank_profile(M)
        q = M.cols
        for k, (r, n) in enumerate(zip(prof.ranks, prof.nullities), start=1):
            assert r + n == k * q


def test_rank_profile_rejects_tall_or_constant_input():
    with pytest.raises(mb.ShapeError):
        rank_profile(PolyMat.zeros(4, 3, 1))
    with pytest.raises(mb.ShapeError):
        rank_profile(PolyMat.zeros(2, 4, 0))


def test_rank_profile_detects_rank_deficiency():
    # Rows are parallel over the rational functions: normal rank 1 < 2.
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    C1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    C2 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    M = PolyMat.from_coeff_list([C0, C1, C2])  # rows [1+lam*e2, lam*(1+lam*e2)]
    prof = rank_profile(M)
    assert not prof.normal_rank_full
    assert prof.stabilized_increment == 1
    assert prof.alphas == ()
    with pytest.raises(mb.NotFullNormalRankError) as err:
        right_minimal_indices(M)
    assert err.value.stabilized_rank == 1


def test_right_minimal_indices_examples():
    assert right_minimal_indices(example1()) == [3, 3]
    assert right_minimal_indices(example2()) == [0, 1, 2]
    assert right_minimal_indices(example3()) == [4, 4]


def test_minimal_index_sum_examples():
    assert _minimal_index_sum(rank_profile(example1()), 6) == 6
    assert _minimal_index_sum(rank_profile(example2()), 4) == 3
    assert _minimal_index_sum(rank_profile(example3()), 6) == 8


def test_certify_example1_minimal():
    cert = certify_minimal_basis(example1())
    assert cert.is_minimal_basis
    assert cert.reason == "ok"
    assert cert.hr_rank == 6
    assert cert.degree_sum_observed == cert.degree_sum_expected == 6


def test_certify_example2_degree_sum_mismatch():
    cert = certify_minimal_basis(example2())
    assert not cert.is_minimal_basis
    assert cert.reason == REASON_DEGREE_SUM
    assert cert.degree_sum_observed == 3
    assert cert.degree_sum_expected == 4
    assert cert.hr_rank == 4


def test_certify_example3_minimal():
    cert = certify_minimal_basis(example3())
    assert cert.is_minimal_basis
    assert cert.degree_sum_observed == cert.degree_sum_expected == 8


def test_certify_detects_hr_deficiency():
    # Two rows share the same leading vector.
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    C1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    M = PolyMat.from_coeff_list([C0, C1])
    cert = certify_minimal_basis(M)
    assert not cert.is_minimal_basis
    assert cert.reason == REASON_HR


def test_certify_common_factor_not_minimal():
    # [lam, lam^2] drops rank at lam = 0.
    M = PolyMat.from_coeff_list([[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]])
    cert = certify_minimal_basis(M)
    assert not cert.is_minimal_basis
    assert cert.reason == REASON_DEGREE_SUM


def test_a_scan_that_exhausts_the_default_cap_at_full_normal_rank_is_marginal():
    # The default cap m*d + 2 reaches d' for every input of full normal rank.
    # Here the probes decide full normal rank from a sigma_3 just above tol,
    # while the S_k ranks, each decided with a wide gap, never reach an
    # increment of 3: one of them must be wrong, so the verdict is marginal.
    C = np.random.default_rng(0).standard_normal((3, 3, 4))
    C[:, 2, :] *= 3e-7
    M = PolyMat(C)
    cert = certify_minimal_basis(M, tol=1e-6)
    assert (cert.is_minimal_basis, cert.reason) == (False, REASON_SCAN_EXHAUSTED)
    assert cert.profile.ranks == (4, 8, 10, 12, 14, 16, 18, 20)
    assert cert.profile.normal_rank_full and not cert.profile.marginal
    assert cert.marginal
    assert mb.exact_rank_profile(M).d_prime == 6
    assert certify_minimal_basis(M).is_minimal_basis


def test_certify_full_leading_example1():
    cert = certify_full_leading(example1())
    assert cert.is_minimal_basis
    assert cert.d_prime == 3


def test_certify_full_leading_example2():
    cert = certify_full_leading(example2())
    assert not cert.is_minimal_basis
    assert cert.reason == REASON_DEGREE_SUM
    assert cert.degree_sum_observed == 3
    assert cert.degree_sum_expected == 4


def test_certify_full_leading_example3_rejects_deficient_leading():
    with pytest.raises(mb.LeadingCoefficientError, match="certify_minimal_basis"):
        certify_full_leading(example3())


def _full_leading_cases():
    """(M, expected verdict): inputs whose leading coefficient has full row
    rank, minimal or not.  Noise of size 1e-9 breaks the common factor."""
    rng = np.random.default_rng(41)
    cf = common_factor_2x4()
    cases = [(example1(), True), (example2(), False), (cf, False),
             (PolyMat(cf.coeffs + 1e-9 * rng.standard_normal(cf.coeffs.shape)), True)]
    cases += [(planted_indices(eps, rng), True)
              for eps in [(0, 1, 3), (1, 2, 5), (2, 2, 2), (1, 1)]]
    for seed in range(100):
        dims = [(3, 2, 2), (4, 3, 1), (2, 2, 1), (1, 3, 1)][seed % 4]
        cases.append((mb.sample_full_sylvester(*dims, seed=seed), True))
    return cases


_CERT_FIELDS = ("is_minimal_basis", "reason", "hr_rank", "d_prime",
                "degree_sum_expected", "degree_sum_observed", "tolerance_used")


def test_full_leading_agrees_with_general_certificate_on_samples():
    # With a full-rank leading coefficient, the first k whose S_k has full
    # row rank is d' of a minimal basis, and no S_k has full row rank
    # otherwise; every certificate field but the profile and the margin flag
    # agrees with the general certificate on a fresh copy.
    for tol in (None, 1e-10):
        for M, minimal in _full_leading_cases():
            assert full_leading_rank(M, tol) is not None
            cert = certify_full_leading(M, tol)
            ref = certify_minimal_basis(PolyMat(M.coeffs), tol)
            assert [getattr(cert, f) for f in _CERT_FIELDS] == [
                getattr(ref, f) for f in _CERT_FIELDS
            ]
            assert cert.is_minimal_basis is minimal
            m, d = M.rows, M.degree_bound
            full_row = [k for k in range(1, m * d + 3)
                        if sylvester_rank(M, k, tol).rank == (k + d) * m]
            assert (full_row[0] if full_row else None) == (
                ref.d_prime if ref.is_minimal_basis else None
            )


def test_alphas_non_negative_and_sum_to_nullspace_dimension():
    for seed in range(10):
        dims = [(3, 2, 2), (4, 3, 1), (2, 5, 1)][seed % 3]
        M = mb.sample_full_sylvester(*dims, seed=seed)
        prof = rank_profile(M)
        assert all(a >= 0 for a in prof.alphas)
        assert sum(prof.alphas) == M.cols - M.rows
    for M in (example1(), example2(), example3()):
        prof = rank_profile(M)
        assert all(a >= 0 for a in prof.alphas)
        assert sum(prof.alphas) == M.cols - M.rows


def test_d_prime_bounded_by_row_degree_sum():
    for M in (example1(), example3()):
        cert = certify_minimal_basis(M)
        assert cert.is_minimal_basis
        assert cert.d_prime <= sum(mb.row_degrees(M))


def test_degree_zero_right_indices():
    # [1, 0]: the nullspace is spanned by a constant vector, d' = 0.
    M = PolyMat.from_coeff_list([[[1.0, 0.0]], [[0.0, 0.0]]])
    prof = rank_profile(M)
    assert prof.d_prime == 0
    assert right_minimal_indices(M) == [0]
    cert = certify_minimal_basis(M)
    assert cert.is_minimal_basis
