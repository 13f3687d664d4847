"""Differential tests of the QR-based dual path against SVD and lstsq
references, of its triangular and minimum-norm solves against numpy's solve
and a solve through Q, and of the dual-degree check of N against its full
certificate."""

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
from minbasis.fullsyl import kprime_t
from minbasis.polymat import PolyMat
from minbasis.sylvester import (
    _min_norm_solve,
    _triangular_solve,
    sylvester,
    sylvester_nullspace,
    sylvester_rank,
)

from helpers import common_factor_2x4, qr_min_norm_solve, random_perturbation

# (m, n, d, field): (2,3,1) and (4,3,2) have t > 0, (6,3,3) has t = 0.
SHAPES = [(2, 3, 1, "real"), (4, 3, 2, "real"), (3, 2, 2, "complex"), (6, 3, 3, "real")]


@pytest.fixture(params=SHAPES, ids=lambda s: "{}x{}x{}-{}".format(*s))
def sample(request) -> PolyMat:
    m, n, d, field = request.param
    return PolyMat(mb.sample_full_sylvester(m, n, d, seed=17, field_tag=field).coeffs)


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def test_qr_nullspace_matches_svd_nullspace(sample):
    kp = kprime_t(sample.rows, sample.cols - sample.rows, sample.degree_bound).k_prime
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
    # A copy of delta, so that the propagation is not read from M's memo.
    reference = propagate_perturbation(pair, PolyMat(delta.coeffs)).delta_N.coeffs
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


def _gaussian(rng, shape, complex_field: bool) -> np.ndarray:
    real = rng.standard_normal(shape)
    return real + 1j * rng.standard_normal(shape) if complex_field else real


# n = 1, one block minus one row, one block, one block plus one row, and more
# than two blocks of the block substitution.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("nrhs", [1, 5])
def test_triangular_solve_matches_numpy_solve(n, lower, complex_field, nrhs):
    rng = np.random.default_rng(n + 7 * nrhs)
    # A unit-scale off-diagonal over a dominant diagonal keeps T well
    # conditioned, so both solves agree to a few ulps of the solution.
    T = _gaussian(rng, (n, n), complex_field) / np.sqrt(n) + 3.0 * np.eye(n)
    T = np.tril(T) if lower else np.triu(T)
    B = _gaussian(rng, (n, nrhs), complex_field)
    X = _triangular_solve(T, B, lower)
    reference = np.linalg.solve(T, B)
    assert X.shape == B.shape and X.dtype == reference.dtype
    assert np.linalg.norm(X - reference) <= 1e-13 * np.linalg.norm(reference)


def _planted_system(rng, rows, cols, kappa, complex_field):
    """Wide A = U diag(s) V^H with singular values from 1 down to 1/kappa,
    and B = A X for an X in the row space of A, so X is the minimum-norm
    solution."""
    U = np.linalg.qr(_gaussian(rng, (rows, rows), complex_field))[0]
    V = np.linalg.qr(_gaussian(rng, (cols, rows), complex_field))[0]
    A = (U * np.geomspace(1.0, 1.0 / kappa, rows)) @ V.conj().T
    X = V @ _gaussian(rng, (rows, 3), complex_field)
    return A, A @ X, X


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_min_norm_solve_by_triangular_solves_is_as_accurate_as_through_q(kappa, complex_field):
    # 90 rows: R has two diagonal blocks.  Past cond(A) of about 1e8 the
    # residual of the semi-normal equations alone exceeds the inconsistency
    # check; the refinement step keeps such systems solvable.
    rng = np.random.default_rng(int(np.log10(kappa)) + 100 * complex_field)
    A, B, X = _planted_system(rng, 90, 130, kappa, complex_field)
    error = np.linalg.norm(_min_norm_solve(A, B) - X)
    reference = np.linalg.norm(qr_min_norm_solve(A, B) - X)
    assert error <= 4.0 * reference


def test_min_norm_solve_rejects_an_inconsistent_system():
    # The rows differ only by the rounding of 1/3, so R is not singular but
    # no float solution meets the residual check, refined or not.
    A = np.array([[1.0, 1 / 3, 0.0], [3.0, 1.0, 0.0]])
    with pytest.raises(mb.NumericalInconsistencyError, match="inconsistent"):
        _min_norm_solve(A, np.array([[1.0], [0.0]]))
