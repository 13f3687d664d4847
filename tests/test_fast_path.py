"""Differential tests: the full-Sylvester-rank shortcut of ``rank_profile``
against the plain scan, and both against the exact oracle where it fits."""

import numpy as np
import pytest

import minbasis as mb
from minbasis import minimal
from minbasis.polymat import PolyMat

from helpers import common_factor_2x4, planted_indices

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
    raised = np.zeros((3,) + planted_12.coeffs.shape[1:])
    raised[:2] = planted_12.coeffs
    raised[1:, 0, :] += planted_12.coeffs[:, 1, :]  # (I + lam e1 e2^T) M
    return {
        "planted_0_1_3": planted_indices((0, 1, 3), rng),
        "planted_1_2_5": planted_indices((1, 2, 5), rng),
        "planted_2_2_2": planted_indices((2, 2, 2), rng),
        "common_factor": cf,
        "raised_first_row": PolyMat(raised),
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
    with monkeypatch.context() as patch:
        patch.setattr(minimal, "_full_sylvester_profile", lambda M, tol: None)
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
    kt = mb.kprime_t(m, n, d)
    # The shortcut fired: only the decisive tests are attached.
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
    # (k' = 2, t = 0), so this integer input takes the shortcut.
    assert len(mb.rank_profile(STRUCTURED["planted_2_2_2"]).decisions) == 1


def test_near_miss_takes_the_shortcut_and_common_factor_does_not():
    # The noise makes the matrix generic, so the theorem decides it; the exact
    # common factor fails the decisive test and falls back to the scan.
    near = mb.rank_profile(_fresh(STRUCTURED["near_miss"]))
    assert (near.ranks, near.d_prime, len(near.decisions)) == ((4, 6), 1, 1)
    cf = mb.certify_minimal_basis(common_factor_2x4())
    assert (cf.is_minimal_basis, cf.reason, cf.d_prime) == (False, "degree_sum_mismatch", 0)


def test_kmax_forces_the_scan():
    M = mb.sample_full_sylvester(3, 2, 2, seed=5)
    k_prime = mb.kprime_t(3, 2, 2).k_prime
    prof = mb.rank_profile(M, k_max=10)
    assert len(prof.decisions) == len(prof.ranks) == k_prime + 1
