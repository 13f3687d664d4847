"""Dual minimal bases: extraction, verification, and perturbation propagation.

For a full-Sylvester-rank matrix the row degrees of every dual minimal basis
are pinned to k'-1 and k', which makes a perturbation theory possible: when
the perturbation of M stays inside an admissible radius, a dual basis of the
perturbed matrix exists whose relative change is bounded by 2/theta2 times
the applied perturbation norm.  The propagation below realizes exactly the
minimum-Frobenius-norm construction that yields that guarantee.

Every Sylvester matrix factored for the dual is wide with full row rank, as
its singular values certify first, so QR factorizations of S_k^H give both
the nullspaces the dual is built from and the minimum-norm corrections.
Where the shape pays for it, as for S_k'+1 of a 20 x 25 matrix of grade 3
(320 x 325) or a 30 x 40 one of grade 2 (270 x 280), both come from the
banded sweep of S_k^H (``sylvester._banded_r``), one small QR per block row,
instead of a dense QR that forms Q for all of S_k^H: about half the time.
The sweep's nullspace is another orthonormal basis of the same space, so
N's coefficients then differ from the dense path's in their bits, while
its span and row degrees do not.
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
from .fullsyl import (
    KPrimeT,
    _require_full_sylvester,
    has_full_sylvester_rank,
    kprime_t,
)
from .minimal import REASON_DEGREE_SUM, REASON_HR, certify_minimal_basis
from .polymat import (
    PolyMat,
    _multiply_transpose,
    _require_congruent,
    _require_same_field,
    add,
    row_degrees,
    s1_stack,
)
from .robust import Thetas, thetas
from .sylvester import (
    _HR,
    _complement,
    highest_row_degree_rank,
    memoized,
    memoized_for,
    singular_values,
    sylvester,
    sylvester_min_norm_solve,
    sylvester_nullspace,
    weyl_full_rank,
)

RESIDUAL_FACTOR = 1e-10


def _residuals(M: PolyMat, N: PolyMat) -> tuple[float, float]:
    """The Frobenius norm of the coefficients of M(lambda) * N(lambda)^T,
    and that norm relative to those of M and N: from copies of M and N
    scaled by their largest entries, so that it neither underflows nor
    overflows at any scale."""
    a, b = float(np.abs(M.coeffs).max()), float(np.abs(N.coeffs).max())
    if a == 0 or b == 0:
        return 0.0, 0.0
    Ms, Ns = M.coeffs / a, N.coeffs / b
    norm = float(np.linalg.norm(_multiply_transpose(Ms, Ns)))
    relative = norm / float(np.linalg.norm(Ms)) / float(np.linalg.norm(Ns))
    return norm * a * b, relative


@dataclass(frozen=True)
class DualPair:
    """A verified (or diagnosed) pair of dual minimal bases.

    ``failures`` lists the clauses that broke when ``is_valid`` is False:
    dimension sum, duality residual, or either minimality certificate.
    """

    # Fields in the order the CLI reports them.
    M: PolyMat
    N: PolyMat
    residual: float
    k_prime_t: KPrimeT
    is_valid: bool = True
    failures: tuple[str, ...] = ()


def verify_duality(M: PolyMat, N: PolyMat, tol: float | None = None) -> DualPair:
    """Check dimension sum, product residual, and that M and N are minimal bases.

    Once M is certified minimal and the first two checks pass, N is a minimal
    basis exactly when it is row reduced, so that its rows are a polynomial
    basis of M's right nullspace, and its row degrees sum to M's, the least
    degree sum such a basis can have.  Only otherwise is N certified alone.
    """
    failures = []
    if M.cols != N.cols:
        raise ShapeError(f"column counts differ ({M.cols} vs {N.cols})")
    _require_same_field(M, N, "verify_duality")
    if M.rows + N.rows != M.cols:
        failures.append(
            f"dimension sum: rows {M.rows}+{N.rows} != cols {M.cols}"
        )
    residual, relative = _residuals(M, N)
    if relative > RESIDUAL_FACTOR:
        failures.append(
            f"duality residual {residual:.3e} (relative {relative:.3e}) above tolerance"
        )
    cert_m = certify_minimal_basis(M, tol)
    if not cert_m.is_minimal_basis:
        failures.append(f"M is not a minimal basis ({cert_m.reason})")
    if failures:
        cert_n = certify_minimal_basis(N, tol)
        reason_n = None if cert_n.is_minimal_basis else cert_n.reason
    elif highest_row_degree_rank(N, tol).rank < N.rows:
        reason_n = REASON_HR
    elif sum(row_degrees(N)) != cert_m.degree_sum_expected:
        reason_n = REASON_DEGREE_SUM
    else:
        reason_n = None
    if reason_n is not None:
        failures.append(f"N is not a minimal basis ({reason_n})")
    kt = kprime_t(M.rows, M.cols - M.rows, M.degree_bound)
    return DualPair(
        M=M,
        N=N,
        k_prime_t=kt,
        residual=residual,
        is_valid=not failures,
        failures=tuple(failures),
    )


def _verified(M: PolyMat, N: PolyMat, tol: float | None, what: str) -> DualPair:
    """``verify_duality(M, N, tol)`` of a pair this module built, or
    NumericalInconsistencyError naming ``what`` when it fails."""
    pair = verify_duality(M, N, tol)
    if not pair.is_valid:
        raise NumericalInconsistencyError(
            f"{what} failed verification: " + "; ".join(pair.failures)
        )
    return pair


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    # Make each column's largest-magnitude entry real positive, so the
    # extracted basis does not depend on the signs or phases QR picks.
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (np.abs(pivots) / pivots)


def dual_minimal_basis(M: PolyMat, tol: float | None = None) -> DualPair:
    """Extract a canonical minimal basis dual to a full-Sylvester-rank matrix.

    The t rows of degree k'-1 come from the nullspace of the k'-th Sylvester
    matrix; the remaining n-t rows of degree k' come from the nullspace of
    the next one, orthogonalized against both one-step shifts of the
    lower-degree rows.  The result is certified.  M's memo keeps its N,
    residual and (k', t), not the pair: through the pair the memo would
    reference M, which would then outlive its last outside reference.
    """
    return DualPair(M, *memoized(M, "dual", tol, lambda: _extracted_dual(M, tol)))


def _extracted_dual(M: PolyMat, tol: float | None) -> tuple[PolyMat, float, KPrimeT]:
    report = _require_full_sylvester(M, tol, "dual_minimal_basis")
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    kp, t = report.k_prime_t.k_prime, report.k_prime_t.t

    # Column j of a nullspace basis of S_k stacks the coefficients of one
    # row of N, constant term first.
    coeffs = np.zeros((kp + 1, n, q), dtype=M.coeffs.dtype)
    if t > 0:
        x = _fix_phases(sylvester_nullspace(M, kp, tol))
        coeffs[:kp, :t] = x.reshape(kp, q, t).transpose(0, 2, 1)
    big = sylvester_nullspace(M, kp + 1, tol)
    if t > 0:
        shifts = np.zeros(((kp + 1) * q, 2 * t), dtype=big.dtype)
        shifts[: kp * q, :t] = x
        shifts[q:, t:] = x
        # The shifts lie in the nullspace: keep the part orthogonal to them.
        coords, smallest = _complement(big.conj().T @ shifts)
        if smallest < 1e-8:
            raise NumericalInconsistencyError(
                f"shifted degree-k'-1 rows nearly dependent (|r_ii| = {smallest:.3e})"
            )
        big = big @ coords
    coeffs[:, t:] = _fix_phases(big).reshape(kp + 1, q, n - t).transpose(0, 2, 1)
    pair = _verified(M, PolyMat(coeffs), tol, "extracted dual basis")
    return pair.N, pair.residual, pair.k_prime_t


# -- perturbation propagation ---------------------------------------------------


@dataclass(frozen=True)
class PerturbReport:
    """Outcome of propagating a perturbation of M to its dual basis."""

    # Fields in the order the CLI reports them.
    thetas: Thetas
    admissible_radius: float
    applied_norm: float
    relative_change: float
    guaranteed_bound: float
    row_degree_split: tuple[int, int]
    perturbed_pair: DualPair
    delta_N: PolyMat


def admissible_radius(M: PolyMat, N: PolyMat, theta: Thetas | None = None,
                      tol: float | None = None) -> float:
    """Half of theta1 scaled by the conditioning of N's leading rows."""
    if theta is None:
        theta = thetas(M, tol)
    sigma_n = highest_row_degree_rank(N, tol).singular_values[N.rows - 1]
    return 0.5 * theta.theta1 * sigma_n / float(np.linalg.norm(s1_stack(N)))


def propagate_perturbation(
    pair: DualPair, delta_M: PolyMat, tol: float | None = None
) -> PerturbReport:
    """Update the dual basis after an admissible perturbation of M.

    Splits N by row degree into the k'-1 part X and the k' part Y, solves
    the two minimum-Frobenius-norm correction systems against the perturbed
    Sylvester operators, and certifies the assembled pair.  The relative
    change is guaranteed not to exceed (2/theta2) * ||perturbation||.
    M's memo keeps the latest report at ``tol``: a call with the same N and
    delta_M objects, such as ``backward_error_map``'s after a propagation,
    reads it back.
    """
    if not pair.is_valid:
        raise PreconditionError("propagation requires a valid dual pair")
    _require_congruent(pair.M, delta_M, "propagate_perturbation")
    return memoized_for(pair.M, "perturb", tol, (pair.N, delta_M),
                        lambda: _propagated(pair, delta_M, tol))


def _propagated(pair: DualPair, delta_M: PolyMat, tol: float | None) -> PerturbReport:
    M, N = pair.M, pair.N
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    kp, t = pair.k_prime_t.k_prime, pair.k_prime_t.t

    theta = thetas(M, tol)
    radius = admissible_radius(M, N, theta, tol)
    applied = float(singular_values(s1_stack(delta_M))[0])
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
    for rows, k in ((x_rows, kp), (y_rows, kp + 1)):
        if rows:
            # S_1 of the transposed rows: blocks C_i^T for i = 0 .. k - 1.
            stack = N.coeffs[:k, rows].transpose(0, 2, 1).reshape(k * q, len(rows))
            rhs = -sylvester(delta_M, k) @ stack
            delta = sylvester_min_norm_solve(M_new, k, rhs)
            delta_coeffs[:k, rows] = delta.reshape(k, q, len(rows)).transpose(0, 2, 1)
    delta_N = PolyMat(delta_coeffs)
    # The Frobenius norm bounds the spectral norm of the stack.
    norm_delta_n = float(np.linalg.norm(s1_stack(delta_N)))
    N_new = add(N, delta_N)
    residual, relative = _residuals(M_new, N_new)
    # Inside the admissible radius the parents' memos usually decide the
    # checks of verify_duality without a factorization: the bounds keep the
    # row degrees, so both degree sums stay m*d (M's property, N's split).
    decisive = [_HR] + [c.k for c in has_full_sylvester_rank(M, tol).checked_ranks]
    if (weyl_full_rank(M, M_new, decisive, applied, tol)
            and weyl_full_rank(N, N_new, [_HR], norm_delta_n, tol)
            and relative <= RESIDUAL_FACTOR):
        new_pair = DualPair(M_new, N_new, residual, pair.k_prime_t)
    else:
        new_pair = _verified(M_new, N_new, tol, "perturbed pair")
    relative = norm_delta_n / float(np.linalg.norm(s1_stack(N)))
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
