"""Dual minimal bases: extraction, verification, and perturbation propagation.

For a full-Sylvester-rank matrix the row degrees of every dual minimal basis
are pinned to k'-1 and k', which makes a perturbation theory possible: when
the perturbation of M stays inside an admissible radius, a dual basis of the
perturbed matrix exists whose relative change is bounded by 2/theta2 times
the applied perturbation norm.  The propagation below realizes exactly the
minimum-Frobenius-norm construction that yields that guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    NumericalInconsistencyError,
    PreconditionError,
    ShapeError,
)
from .fullsyl import KPrimeT, has_full_sylvester_rank, kprime_t
from .minimal import certify_minimal_basis
from .polymat import (
    PolyMat,
    add,
    poly_multiply_transpose,
    reversal,
    row_degrees,
    s1_stack,
)
from .robust import Thetas, thetas
from .sylvester import (
    highest_row_degree_rank,
    sylvester,
    sylvester_rank,
    sylvester_right_vectors,
)

__all__ = [
    "DualPair",
    "PerturbReport",
    "dual_minimal_basis",
    "verify_duality",
    "propagate_perturbation",
    "check_dual_fullsyl",
    "reversal_dual",
    "product_residual",
]

RESIDUAL_FACTOR = 1e-10
LSTSQ_RESIDUAL_FACTOR = 1e-8


def product_residual(M: PolyMat, N: PolyMat) -> float:
    """Frobenius norm of the coefficients of M(lambda) * N(lambda)^T."""
    prod = poly_multiply_transpose(M, N)
    return float(np.linalg.norm(prod.coeffs))


def _residual_threshold(M: PolyMat, N: PolyMat) -> float:
    norm_m = float(np.linalg.norm(s1_stack(M)))
    norm_n = float(np.linalg.norm(s1_stack(N)))
    return RESIDUAL_FACTOR * (1.0 + norm_m * norm_n)


@dataclass(frozen=True)
class DualPair:
    """A verified (or diagnosed) pair of dual minimal bases.

    ``failures`` lists the clauses that broke when ``is_valid`` is False:
    dimension sum, duality residual, or either minimality certificate.
    """

    M: PolyMat
    N: PolyMat
    k_prime_t: KPrimeT
    residual: float
    is_valid: bool = True
    failures: tuple[str, ...] = ()


def verify_duality(M: PolyMat, N: PolyMat, tol: float | None = None) -> DualPair:
    """Check dimension sum, product residual, and both minimality certificates."""
    failures = []
    if M.cols != N.cols:
        raise ShapeError(f"column counts differ ({M.cols} vs {N.cols})")
    if M.rows + N.rows != M.cols:
        failures.append(
            f"dimension sum: rows {M.rows}+{N.rows} != cols {M.cols}"
        )
    residual = product_residual(M, N)
    if residual > _residual_threshold(M, N):
        failures.append(f"duality residual {residual:.3e} above tolerance")
    cert_m = certify_minimal_basis(M, tol)
    if not cert_m.is_minimal_basis:
        failures.append(f"M is not a minimal basis ({cert_m.reason})")
    cert_n = certify_minimal_basis(N, tol)
    if not cert_n.is_minimal_basis:
        failures.append(f"N is not a minimal basis ({cert_n.reason})")
    kt = kprime_t(M.rows, max(M.cols - M.rows, 1), max(M.degree_bound, 1))
    return DualPair(
        M=M,
        N=N,
        k_prime_t=kt,
        residual=residual,
        is_valid=not failures,
        failures=tuple(failures),
    )


def _nullspace(M: PolyMat, k: int, expected_dim: int, tol: float | None) -> np.ndarray:
    """Orthonormal basis of the right nullspace of S_k(M), as columns."""
    dec = sylvester_rank(M, k, tol)
    if dec.nullity != expected_dim:
        raise NumericalInconsistencyError(
            f"nullspace dimension {dec.nullity}, expected {expected_dim}; "
            "rank tolerance breakdown"
        )
    return sylvester_right_vectors(M, k)[dec.rank :].conj().T


def _canonicalize_stack(vec: np.ndarray) -> np.ndarray:
    # Unit norm with the largest-magnitude entry made real positive, so the
    # extracted basis is deterministic despite nullspace non-uniqueness.
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        return vec
    vec = vec / nrm
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return vec / phase


def dual_minimal_basis(M: PolyMat, tol: float | None = None) -> DualPair:
    """Extract a canonical minimal basis dual to a full-Sylvester-rank matrix.

    The t rows of degree k'-1 come from the nullspace of the k'-th Sylvester
    matrix; the remaining n-t rows of degree k' come from the nullspace of
    the next one, orthogonalized against both one-step shifts of the
    lower-degree rows.  The result is certified before being returned.
    """
    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        raise PreconditionError("dual extraction requires a full-Sylvester-rank input")
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    kp, t = report.k_prime_t.k_prime, report.k_prime_t.t

    x_stacks = []
    if t > 0:
        basis = _nullspace(M, kp, t, tol)
        x_stacks = [_canonicalize_stack(basis[:, j]) for j in range(t)]

    big = _nullspace(M, kp + 1, n + t, tol)
    if t > 0:
        shifts = np.zeros(((kp + 1) * q, 2 * t), dtype=big.dtype)
        for j, v in enumerate(x_stacks):
            shifts[: kp * q, 2 * j] = v
            shifts[q:, 2 * j + 1] = v
        q_shift, _ = np.linalg.qr(shifts)
        big = big - q_shift @ (q_shift.conj().T @ big)
    u, s, _ = np.linalg.svd(big, full_matrices=False)
    keep = n - t
    if keep > 0 and s[keep - 1] < 1e-8:
        raise NumericalInconsistencyError(
            f"degree-k' nullspace directions nearly vanished (sigma={s[keep - 1]:.3e})"
        )
    y_stacks = [_canonicalize_stack(u[:, j]) for j in range(keep)]

    dtype = M.coeffs.dtype
    coeffs = np.zeros((kp + 1, n, q), dtype=dtype)
    for row, v in enumerate(x_stacks):
        for i in range(kp):
            coeffs[i, row, :] = v[i * q : (i + 1) * q]
    for row, v in enumerate(y_stacks, start=t):
        for i in range(kp + 1):
            coeffs[i, row, :] = v[i * q : (i + 1) * q]
    N = PolyMat(coeffs)

    pair = verify_duality(M, N, tol)
    if not pair.is_valid:
        raise NumericalInconsistencyError(
            "extracted dual basis failed verification: " + "; ".join(pair.failures)
        )
    return pair


# -- perturbation propagation ---------------------------------------------------


@dataclass(frozen=True)
class PerturbReport:
    """Outcome of propagating a perturbation of M to its dual basis."""

    thetas: Thetas
    admissible_radius: float
    applied_norm: float
    delta_N: PolyMat
    relative_change: float
    guaranteed_bound: float
    row_degree_split: tuple[int, int]
    perturbed_pair: DualPair

    def to_dict(self) -> dict:
        return {
            "theta1": self.thetas.theta1,
            "theta2": self.thetas.theta2,
            "case": self.thetas.case,
            "admissible_radius": self.admissible_radius,
            "applied_norm": self.applied_norm,
            "relative_change": self.relative_change,
            "guaranteed_bound": self.guaranteed_bound,
            "row_degree_split": list(self.row_degree_split),
            "residual": self.perturbed_pair.residual,
        }


def admissible_radius(M: PolyMat, N: PolyMat, theta: Thetas | None = None,
                      tol: float | None = None) -> float:
    """Half of theta1 scaled by the conditioning of N's leading rows."""
    if theta is None:
        theta = thetas(M, tol)
    sigma_n = highest_row_degree_rank(N, tol).singular_values[N.rows - 1]
    return 0.5 * theta.theta1 * sigma_n / float(np.linalg.norm(s1_stack(N)))


def _coeff_stack_of_transpose(P: PolyMat, rows: list[int], grade: int) -> np.ndarray:
    # S_1 of the transposed row subset: blocks C_i^T restricted to the rows.
    return np.vstack([P.coeffs[i][rows, :].T for i in range(grade + 1)])


def _min_norm_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    X, _, _, _ = np.linalg.lstsq(A, B, rcond=None)
    resid = np.linalg.norm(A @ X - B)
    if resid > LSTSQ_RESIDUAL_FACTOR * (1.0 + np.linalg.norm(B)):
        raise NumericalInconsistencyError(
            f"least-squares system inconsistent (residual {resid:.3e}); the "
            "perturbed matrix may have lost full-Sylvester-rank"
        )
    return X


def propagate_perturbation(
    pair: DualPair, delta_M: PolyMat, tol: float | None = None
) -> PerturbReport:
    """Update the dual basis after an admissible perturbation of M.

    Splits N by row degree into the k'-1 part X and the k' part Y, solves
    the two minimum-Frobenius-norm correction systems against the perturbed
    Sylvester operators, and certifies the assembled pair.  The relative
    change is guaranteed not to exceed (2/theta2) * ||perturbation||.
    """
    if not pair.is_valid:
        raise PreconditionError("propagation requires a valid dual pair")
    M, N = pair.M, pair.N
    if delta_M.coeffs.shape != M.coeffs.shape or delta_M.field != M.field:
        raise ShapeError("perturbation must match M's shape, grade, and field")
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    kp, t = pair.k_prime_t.k_prime, pair.k_prime_t.t

    theta = thetas(M, tol)
    radius = admissible_radius(M, N, theta, tol)
    applied = float(np.linalg.norm(s1_stack(delta_M), 2))
    if applied >= radius:
        raise AdmissibilityError(
            f"perturbation norm {applied:.6e} is not below the admissible "
            f"radius {radius:.6e}",
            applied_norm=applied,
            admissible_radius=radius,
        )

    degs = row_degrees(N)
    x_rows = [j for j, dg in enumerate(degs) if dg == kp - 1]
    y_rows = [j for j, dg in enumerate(degs) if dg == kp]
    if len(x_rows) != t or len(y_rows) != n - t:
        raise PreconditionError(
            f"row degrees {degs} do not split as {t} rows at {kp - 1} and "
            f"{n - t} rows at {kp}"
        )

    M_new = add(M, delta_M)
    delta_coeffs = np.zeros_like(N.coeffs)
    if t > 0:
        A = sylvester(M_new, kp).data
        rhs = -sylvester(delta_M, kp).data @ _coeff_stack_of_transpose(N, x_rows, kp - 1)
        dX = _min_norm_solve(A, rhs)
        for i in range(kp):
            delta_coeffs[i][x_rows, :] = dX[i * q : (i + 1) * q, :].T
    if n - t > 0:
        A = sylvester(M_new, kp + 1).data
        rhs = -sylvester(delta_M, kp + 1).data @ _coeff_stack_of_transpose(N, y_rows, kp)
        dY = _min_norm_solve(A, rhs)
        for i in range(kp + 1):
            delta_coeffs[i][y_rows, :] = dY[i * q : (i + 1) * q, :].T

    delta_N = PolyMat(delta_coeffs)
    N_new = add(N, delta_N)
    new_pair = verify_duality(M_new, N_new, tol)
    if not new_pair.is_valid:
        raise NumericalInconsistencyError(
            "perturbed pair failed verification: " + "; ".join(new_pair.failures)
        )
    norm_n = float(np.linalg.norm(s1_stack(N)))
    relative = float(np.linalg.norm(s1_stack(delta_N))) / norm_n
    bound = 2.0 / theta.theta2 * applied
    return PerturbReport(
        thetas=theta,
        admissible_radius=radius,
        applied_norm=applied,
        delta_N=delta_N,
        relative_change=relative,
        guaranteed_bound=bound,
        row_degree_split=(t, n - t),
        perturbed_pair=new_pair,
    )


def check_dual_fullsyl(pair: DualPair, tol: float | None = None) -> bool:
    """The dual basis has full-Sylvester-rank exactly when t = 0."""
    if not pair.is_valid:
        raise PreconditionError("check requires a valid dual pair")
    n_has = has_full_sylvester_rank(pair.N, tol).has_full_sylvester_rank
    if n_has != (pair.k_prime_t.t == 0):
        raise NumericalInconsistencyError(
            f"dual basis full-Sylvester-rank={n_has} contradicts t={pair.k_prime_t.t}"
        )
    return n_has


def reversal_dual(pair: DualPair, tol: float | None = None) -> DualPair:
    """Reversed pair (rev_d M, rev_k' N); requires t = 0.

    Both components of the result are verified to keep full-Sylvester-rank.
    """
    if not pair.is_valid:
        raise PreconditionError("reversal requires a valid dual pair")
    if pair.k_prime_t.t != 0:
        raise PreconditionError("reversal duality requires t=0")
    M_rev = reversal(pair.M, pair.M.degree_bound)
    N_rev = reversal(pair.N, pair.N.degree_bound)
    new_pair = verify_duality(M_rev, N_rev, tol)
    if not new_pair.is_valid:
        raise NumericalInconsistencyError(
            "reversed pair failed verification: " + "; ".join(new_pair.failures)
        )
    for comp in (M_rev, N_rev):
        if not has_full_sylvester_rank(comp, tol).has_full_sylvester_rank:
            raise NumericalInconsistencyError(
                "reversed component lost full-Sylvester-rank"
            )
    return new_pair
