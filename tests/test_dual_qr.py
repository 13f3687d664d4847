"""Differential tests of the QR-based dual path against SVD and lstsq
references, and of the dual-degree check of N against its full certificate."""

import numpy as np
import pytest

import minbasis as mb
from minbasis import dual
from minbasis.dual import (
    admissible_radius,
    dual_minimal_basis,
    propagate_perturbation,
    verify_duality,
)
from minbasis.polymat import PolyMat
from minbasis.sylvester import _min_norm_solve, sylvester, sylvester_nullspace, sylvester_rank

from helpers import common_factor_2x4, random_perturbation

# (m, n, d, field): (2,3,1) and (4,3,2) have t > 0, (6,3,3) has t = 0.
SHAPES = [(2, 3, 1, "real"), (4, 3, 2, "real"), (3, 2, 2, "complex"), (6, 3, 3, "real")]


@pytest.fixture(params=SHAPES, ids=lambda s: "{}x{}x{}-{}".format(*s))
def sample(request) -> PolyMat:
    m, n, d, field = request.param
    return PolyMat(mb.sample_full_sylvester(m, n, d, seed=17, field_tag=field).coeffs)


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def test_qr_nullspace_matches_svd_nullspace(sample):
    kp = mb.kprime_t(sample.rows, sample.cols - sample.rows, sample.degree_bound).k_prime
    for k in (kp, kp + 1):
        S = sylvester(sample, k)
        Z = sylvester_nullspace(sample, k)
        _, _, vh = np.linalg.svd(S, full_matrices=True)
        reference = vh[sylvester_rank(sample, k).rank :].conj().T
        assert Z.shape == reference.shape
        assert np.linalg.norm(Z.conj().T @ Z - np.eye(Z.shape[1])) < 1e-12
        assert np.linalg.norm(_projector(Z) - _projector(reference)) < 1e-10


def test_qr_correction_matches_lstsq_reference(sample, monkeypatch):
    pair = dual_minimal_basis(sample)
    rng = np.random.default_rng(18)
    delta = random_perturbation(sample, 0.25 * admissible_radius(sample, pair.N), rng)
    report = propagate_perturbation(pair, delta)
    assert report.relative_change <= report.guaranteed_bound
    monkeypatch.setattr(
        dual, "_min_norm_solve", lambda A, B: np.linalg.lstsq(A, B, rcond=None)[0]
    )
    reference = propagate_perturbation(pair, delta).delta_N.coeffs
    assert np.any(reference)
    diff = np.linalg.norm(report.delta_N.coeffs - reference)
    assert diff <= 1e-9 * np.linalg.norm(reference)


def _one_grade_up(N: PolyMat) -> np.ndarray:
    coeffs = np.zeros((N.coeffs.shape[0] + 1, *N.coeffs.shape[1:]), dtype=N.coeffs.dtype)
    coeffs[:-1] = N.coeffs
    return coeffs


def _common_factor_row(N: PolyMat) -> PolyMat:
    """Row 0 of N times (lambda - 2): still dual, but its degree sum is 1 too big."""
    coeffs = _one_grade_up(N)
    coeffs[:, 0] = 0.0
    coeffs[1:, 0] = N.coeffs[:, 0]
    coeffs[:-1, 0] -= 2.0 * N.coeffs[:, 0]
    return PolyMat(coeffs)


def _sheared(N: PolyMat) -> PolyMat:
    """U N with U = I + lambda e1 e2^T: row 0 gains lambda times row 1, whose
    degree is at least row 0's, so rows 0 and 1 share their leading vector."""
    coeffs = _one_grade_up(N)
    coeffs[1:, 0] += N.coeffs[:, 1]
    return PolyMat(coeffs)


def test_dual_degree_check_agrees_with_certificate(sample):
    N = dual_minimal_basis(sample).N
    candidates = {"ok": N, "degree_sum_mismatch": _common_factor_row(N)}
    if N.rows >= 2:
        candidates["hr_rank_deficient"] = _sheared(N)
    for reason, candidate in candidates.items():
        cert = mb.certify_minimal_basis(PolyMat(candidate.coeffs))
        assert cert.reason == reason
        # Exactly the minimality clause fails: the product stays zero.
        pair = verify_duality(sample, candidate)
        expected = () if reason == "ok" else (f"N is not a minimal basis ({reason})",)
        assert pair.failures == expected
        assert pair.is_valid == (reason == "ok")


def test_qr_nullspace_requires_full_row_rank():
    M = common_factor_2x4()
    dec = sylvester_rank(M, 2)
    assert dec.rank < sylvester(M, 2).shape[0]
    with pytest.raises(mb.NumericalInconsistencyError, match=f"rank {dec.rank}"):
        sylvester_nullspace(M, 2)


def test_min_norm_solve_rejects_a_singular_system():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(mb.NumericalInconsistencyError, match="singular"):
        _min_norm_solve(A, np.ones((2, 1)))
