"""Differential tests: ``rank_profile``, whose scan starts past the S_k that
the full-Sylvester-rank tests found of full column rank, against the plain
scan from k = 1, and both against the exact oracle where it fits."""

import numpy as np
import pytest

import minbasis as mb
from minbasis import minimal
from minbasis.fullsyl import kprime_t
from minbasis.polymat import PolyMat

from helpers import LinalgSpy, common_factor_2x4, planted_indices, raised_first_row

GENERIC = [
    (3, 2, 2, "real"),
    (2, 3, 1, "real"),
    (4, 3, 2, "real"),
    (3, 2, 2, "complex"),
    (6, 3, 3, "real"),
    (8, 2, 6, "real"),
]


def _structured():
    rng = np.random.default_rng(2024)
    cf = common_factor_2x4()
    planted_12 = planted_indices((1, 2), rng)
    return {
        "planted_0_1_3": planted_indices((0, 1, 3), rng),
        "planted_1_2_5": planted_indices((1, 2, 5), rng),
        "planted_2_2_2": planted_indices((2, 2, 2), rng),
        "common_factor": cf,
        "raised_first_row": raised_first_row(planted_12),
        "duplicated_row": PolyMat(
            np.concatenate([planted_12.coeffs, planted_12.coeffs[:, :1, :]], axis=1)
        ),
        "near_miss": PolyMat(cf.coeffs + 1e-9 * rng.standard_normal(cf.coeffs.shape)),
    }


STRUCTURED = _structured()


def _fresh(M: PolyMat) -> PolyMat:
    """Same coefficients, empty memo."""
    return PolyMat(M.coeffs)


def _same_profile(a, b):
    return (
        a.ranks == b.ranks
        and a.nullities == b.nullities
        and a.alphas == b.alphas
        and a.d_prime == b.d_prime
        and a.normal_rank_full == b.normal_rank_full
    )


def _scan_certificate(M, monkeypatch):
    """M's certificate, on a fresh memo, with every scan started at k = 1."""
    scan = minimal._scan
    with monkeypatch.context() as patch:
        patch.setattr(minimal, "_scan",
                      lambda M, k_max, rank_at, jump=None, start=1, full_leading=False:
                      scan(M, k_max, rank_at, jump, full_leading=full_leading))
        return mb.certify_minimal_basis(_fresh(M))


def _check_against_scan(M, monkeypatch):
    fast = mb.rank_profile(M)
    scan = mb.rank_profile(_fresh(M), k_max=M.rows * M.degree_bound + 2)
    assert _same_profile(fast, scan), (fast, scan)
    cert = mb.certify_minimal_basis(M)
    ref = _scan_certificate(M, monkeypatch)
    assert (cert.is_minimal_basis, cert.reason, cert.d_prime) == (
        ref.is_minimal_basis, ref.reason, ref.d_prime
    )
    assert (cert.degree_sum_expected, cert.degree_sum_observed) == (
        ref.degree_sum_expected, ref.degree_sum_observed
    )
    assert _same_profile(cert.profile, fast)
    if M.field == "real" and M.rows * M.cols * M.degree_bound <= 200:  # desk size
        assert _same_profile(mb.exact_rank_profile(M), fast)
    return fast


@pytest.mark.parametrize("m,n,d,field", GENERIC)
def test_fast_path_matches_scan_on_full_sylvester_samples(m, n, d, field, monkeypatch):
    M = mb.sample_full_sylvester(m, n, d, seed=100 + m * 10 + n, field_tag=field)
    fast = _check_against_scan(M, monkeypatch)
    kt = kprime_t(m, n, d)
    # The scan started at the decisive tests and stopped at S_k': only they
    # are attached.
    assert len(fast.decisions) == (2 if kt.k_prime > 1 and kt.t > 0 else 1)
    assert fast.d_prime == kt.k_prime
    assert mb.right_minimal_indices(M) == mb.predicted_minimal_indices(m, n, d)


@pytest.mark.parametrize("label", sorted(STRUCTURED))
def test_fast_path_matches_scan_on_structured_inputs(label, monkeypatch):
    _check_against_scan(STRUCTURED[label], monkeypatch)


def test_planted_indices_are_recovered():
    for label, want in [("planted_0_1_3", [0, 1, 3]), ("planted_1_2_5", [1, 2, 5]),
                        ("planted_2_2_2", [2, 2, 2])]:
        assert mb.right_minimal_indices(STRUCTURED[label]) == want
    # Indices (2, 2, 2) at 6x9, grade 1 are the full-Sylvester-rank pattern
    # (k' = 2, t = 0), so the scan of this integer input starts at S_2.
    assert len(mb.rank_profile(STRUCTURED["planted_2_2_2"]).decisions) == 1


def test_near_miss_takes_the_shortcut_and_common_factor_does_not():
    # The noise makes the matrix generic, so the one decisive test, on S_1,
    # settles it; the exact common factor fails that test, and its scan
    # goes on past S_1.
    near = mb.rank_profile(_fresh(STRUCTURED["near_miss"]))
    assert (near.ranks, near.d_prime, len(near.decisions)) == ((4, 6), 1, 1)
    cf = mb.certify_minimal_basis(common_factor_2x4())
    assert (cf.is_minimal_basis, cf.reason, cf.d_prime) == (False, "degree_sum_mismatch", 0)


def test_kmax_forces_the_scan():
    M = mb.sample_full_sylvester(3, 2, 2, seed=5)
    k_prime = kprime_t(3, 2, 2).k_prime
    prof = mb.rank_profile(M, k_max=10)
    assert len(prof.decisions) == len(prof.ranks) == k_prime + 1


@pytest.mark.parametrize("indices, parent_decided_k", [
    ((2, 2, 4), (1, 2, 3, 4)),
    ((2, 2, 2, 5), (1, 2, 3, 5)),
])
def test_the_scan_starts_at_a_column_test_that_passed(indices, parent_decided_k, monkeypatch):
    # k' = 3 and t = 1: S_2 has full column rank, so r_1 = q is implied, and
    # S_3 lacks full row rank, so the property fails and the scan goes on
    # from S_2.  A scan from k = 1 would also have factored S_1.
    M = planted_indices(indices, np.random.default_rng(0))
    spy = LinalgSpy(monkeypatch)
    profile = mb.rank_profile(M)
    factored = {c.key[1] for c in spy.take("svd") if c.key is not None}
    report = mb.has_full_sylvester_rank(M)
    assert [(c.k, c.kind, c.rank == c.required) for c in report.checked_ranks] == [
        (2, "column", True), (3, "row", False)]
    assert profile.decided_k == parent_decided_k[1:]
    assert 1 not in factored
    forced = mb.rank_profile(_fresh(M), k_max=M.rows * M.degree_bound + 2)
    exact = mb.exact_rank_profile(M)
    for other in (forced, exact):
        assert (profile.ranks, profile.d_prime, profile.alphas) == (
            other.ranks, other.d_prime, other.alphas)
    assert mb.right_minimal_indices(M) == sorted(indices)
