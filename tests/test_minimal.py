import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minbasis as mb
from minbasis.fullsyl import kprime_t, predicted_minimal_indices
from minbasis.minimal import (
    REASON_DEGREE_SUM,
    REASON_HR,
    REASON_SCAN_EXHAUSTED,
    _indices_or_none,
    _minimal_index_sum,
    _profile,
    _scan,
    certify_full_leading,
    certify_minimal_basis,
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
        profile = _profile(PolyMat(np.zeros((d + 1, m, q))), ranks, m, True, (), (), None)
        assert profile.d_prime == kp
        assert _indices_or_none(profile) == predicted_minimal_indices(m, n, d), (m, n, d)
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


def _fake_scan(full_leading):
    """``_scan`` of a 2x5 grade-2 shape on the ranks 5, 8, 10, with the k
    that ``rank_at`` and the ranks that ``jump`` were called with."""
    asked, jumped = [], []

    def rank_at(k):
        asked.append(k)
        return {1: 5, 2: 8, 3: 10}[k]

    def jump(ranks):
        jumped.append(list(ranks))

    out = _scan(PolyMat.zeros(2, 5, 2), None, rank_at, jump, full_leading=full_leading)
    return out, asked, jumped


def test_scan_stops_at_the_first_full_row_rank_s_k_with_full_leading():
    # r_2 = 8 = (2 + d)m: S_2 has full row rank, so r_3 = 10 is implied.
    (ranks, stopped, measured), asked, jumped = _fake_scan(True)
    assert (ranks, stopped, measured) == ([5, 8, 10], True, [1, 2])
    assert asked == [1, 2] and jumped == [[5]]


def test_scan_measures_on_without_full_leading():
    (ranks, stopped, measured), asked, jumped = _fake_scan(False)
    assert (ranks, stopped, measured) == ([5, 8, 10], True, [1, 2, 3])
    assert asked == [1, 2, 3] and jumped == [[5], [5, 8]]


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


@pytest.mark.xfail(strict=True, reason="marginal reads only gap ratios, and this verdict is "
                   "decided on S_1 with a gap ratio of 1.25e4, above MARGINAL_GAP")
def test_a_minimal_basis_a_hair_from_a_common_factor_is_marginal():
    # Noise of size 1e-9 breaks the common factor: the verdict "minimal" is
    # right, but its robustness radius is 5.0e-10, so it is not confident.
    cf = common_factor_2x4()
    M = PolyMat(cf.coeffs + 1e-9 * np.random.default_rng(0).standard_normal(cf.coeffs.shape))
    cert = certify_minimal_basis(M)
    assert cert.is_minimal_basis
    assert cert.marginal


def test_a_wrong_verdict_on_a_long_planted_scan_is_marginal():
    # A minimal basis with indices (1, 1, 1, 10, 20): S_10's smallest nonzero
    # singular value falls under its threshold, every later rank is one
    # short, and the float verdict is a degree-sum mismatch at d' = 20.  The
    # verdict is wrong, but it must not be reported as confident.
    M = planted_indices((1, 1, 1, 10, 20), np.random.default_rng(0))
    assert (M.rows, M.cols) == (33, 38)
    assert certify_minimal_basis(M).marginal


def test_the_normal_rank_probes_are_the_seeded_draws():
    from minbasis.minimal import _PROBES

    drawn = np.array([complex(re, im) for re, im in
                      np.random.default_rng(0x5E_ED).uniform(0.5, 1.5, (2, 2))])
    assert _PROBES.dtype == drawn.dtype and _PROBES.tobytes() == drawn.tobytes()


def test_importing_the_package_does_not_load_numpy_random():
    # NumPy 2 loads numpy.random on first use only; the package draws its
    # probes at import time no more, so a command-line start skips it.
    src = str(Path(mb.__file__).resolve().parent.parent)
    code = ("import sys; import numpy; before = 'numpy.random' in sys.modules; "
            "import minbasis, minbasis.cli; print(before, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    if out[0] == "True":
        pytest.skip("this NumPy loads numpy.random with numpy")
    assert out == ["False", "False"]
