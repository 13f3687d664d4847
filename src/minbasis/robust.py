"""Robustness radii, perturbation quantities, and the singular-value lower bound.

Distances between polynomial matrices of a common grade are measured by the
spectral norm of the difference of their stacked coefficient matrices.  Inside
the radii computed here the certified property (minimal basis with full-rank
leading coefficient, or full-Sylvester-rank) provably survives arbitrary
perturbations that do not raise the grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    LeadingCoefficientError,
    NumericalInconsistencyError,
    PreconditionError,
    ShapeError,
)
from .fullsyl import _require_full_sylvester, has_full_sylvester_rank
from .minimal import certify_minimal_basis
from .polymat import PolyMat, _require_congruent, evaluate, s1_stack
from .sylvester import (
    _block_count,
    _nearest_lower_rank,
    _require_wide,
    full_leading_rank,
    rank_decision,
    singular_values,
    sylvester_singular_values,
)


def distance(A: PolyMat, B: PolyMat) -> float:
    """Spectral-norm distance between the stacked coefficient matrices of
    two matrices of one shape, grade and field."""
    _require_congruent(A, B, "distance")
    return float(singular_values(s1_stack(A) - s1_stack(B))[0])


def _require_robust_minimal(M: PolyMat, tol: float | None, what: str) -> int:
    """d' of a minimal basis whose leading coefficient has full row rank, the
    one check of that hypothesis: LeadingCoefficientError naming ``what``
    without the full-rank leading coefficient, PreconditionError when M is
    not a minimal basis."""
    if full_leading_rank(M, tol) is None:
        raise LeadingCoefficientError(f"{what} requires a full-rank leading coefficient")
    cert = certify_minimal_basis(M, tol)
    if not cert.is_minimal_basis:
        raise PreconditionError(f"{what} requires a minimal basis ({cert.reason})")
    return cert.d_prime


def _radius(M: PolyMat, k: int) -> float:
    """sigma_min(S_k) / sqrt(k) from M's memo, the radius a full-rank S_k
    certifies.  Every S_k read for a radius, theta or bound is wide with full
    row rank or is the tall S_{k'-1} of the column test, so its sigma_min is
    the sigma_{(k+d)m} or sigma_{kq} that the theorems name."""
    return float(sylvester_singular_values(M, k)[-1]) / math.sqrt(k)


class RadiusCandidate(NamedTuple):
    """The radius that S_k certifies, one row of a radius report's scan."""

    k: int
    candidate: float


@dataclass(frozen=True)
class RadiusReport:
    """A robustness radius together with the candidate table that produced it."""

    radius: float
    k_used: int
    scanned: tuple[RadiusCandidate, ...]
    kind: str  # "minimal_basis" | "full_sylvester"


def robustness_radius_minimal(
    M: PolyMat, scan_extra: int = 3, tol: float | None = None
) -> RadiusReport:
    """Largest certified radius within which perturbed matrices stay minimal.

    Starting from d', the smallest block count whose Sylvester matrix has
    full row rank, each candidate sigma_{(k+d)m}(S_k)/sqrt(k) certifies a
    neighborhood; a short scan over larger k keeps the best one.  With a
    full-rank leading coefficient every row has degree d, so the certificate
    (r_{d'} - m*d' = m*d) already says that S_{d'} has full row rank.
    """
    scan_extra = _block_count(scan_extra, "scan_extra", least=0)
    k0 = _require_robust_minimal(M, tol, "robustness_radius_minimal")
    scanned = [RadiusCandidate(k, _radius(M, k)) for k in range(k0, k0 + scan_extra + 1)]
    k_used, radius = max(scanned, key=lambda kv: kv[1])
    return RadiusReport(
        radius=radius, k_used=k_used, scanned=tuple(scanned), kind="minimal_basis"
    )


def robustness_radius_fullsyl(M: PolyMat, tol: float | None = None) -> RadiusReport:
    """Radius within which every perturbation keeps full-Sylvester-rank."""
    report = _require_full_sylvester(M, tol, "robustness_radius_fullsyl")
    scanned = [RadiusCandidate(c.k, _radius(M, c.k)) for c in report.checked_ranks]
    k_used, radius = min(scanned, key=lambda kv: kv[1])
    return RadiusReport(
        radius=radius, k_used=k_used, scanned=tuple(scanned), kind="full_sylvester"
    )


def sharp_witness_flat(M: PolyMat, tol: float | None = None) -> tuple[PolyMat, float]:
    """Nearest loss of full-Sylvester-rank for flat matrices (m*d <= n).

    In this regime the first coefficient stack carries no Toeplitz structure,
    so zeroing its smallest singular value produces a witness exactly at the
    robustness boundary.  Returns the witness and its distance.
    """
    _require_wide(M, "sharp_witness_flat", graded=True)
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    if m * d > n:
        raise PreconditionError(f"flat case requires m*d <= n, got {m}*{d} > {n}")
    stack = s1_stack(M)
    s, flat = _nearest_lower_rank(stack)
    if rank_decision(s, stack.shape, tol).rank < (d + 1) * m:
        raise PreconditionError("first coefficient stack is not of full row rank")
    dist = float(s[-1])
    witness = PolyMat(flat.reshape(d + 1, m, q))
    if has_full_sylvester_rank(witness, tol).has_full_sylvester_rank:
        raise NumericalInconsistencyError("witness unexpectedly kept full-Sylvester-rank")
    achieved = distance(M, witness)
    if abs(achieved - dist) > 1e-12 * (1.0 + dist):
        raise NumericalInconsistencyError(
            f"witness distance {achieved!r} differs from sigma_min {dist!r}"
        )
    return witness, dist


@dataclass(frozen=True)
class Thetas:
    """The two scaled-singular-value minima governing dual-basis perturbation.

    theta1 bounds the admissible perturbation size, theta2 the amplification
    of the dual basis change; theta1 <= theta2 except in the k' = 1, t > 0
    case where they coincide.
    """

    theta1: float
    theta2: float
    case: str  # "a" (k'>1, t>0) | "b" (k'=1, t>0) | "c" (t=0)


def thetas(M: PolyMat, tol: float | None = None) -> Thetas:
    """theta1 and theta2 of a full-Sylvester-rank M, from s_k =
    sigma_min(S_k)/sqrt(k): theta1 is the smaller of the full-Sylvester-rank
    radius and s_{k'+1}; theta2 is s_{k'+1} when t = 0, theta1 when k' = 1,
    and min(s_k', s_{k'+1}) otherwise.  Raises PreconditionError without
    the property."""
    report = _require_full_sylvester(M, tol, "thetas")
    kp, t = report.k_prime_t.k_prime, report.k_prime_t.t
    s_kp = _radius(M, kp)
    s_kp1 = _radius(M, kp + 1)
    # The full-Sylvester-rank radius is the minimum over the decisive tests.
    theta1 = min(robustness_radius_fullsyl(M, tol).radius, s_kp1)
    if t == 0:
        return Thetas(theta1=theta1, theta2=s_kp1, case="c")
    if kp == 1:
        return Thetas(theta1=theta1, theta2=theta1, case="b")
    return Thetas(theta1=theta1, theta2=min(s_kp, s_kp1), case="a")


@dataclass(frozen=True)
class LowerBoundReport:
    """Sampled verification of the Sylvester lower bound on evaluation ranks.

    The bound itself is proven for the infimum over all complex points; the
    sampled minimum reported here is a spot check, never a certificate.
    """

    lower_bound: float
    d_prime: int
    sigma_leading: float
    min_sampled_sigma: float
    min_sampled_at: complex
    tightest_ratio: float
    samples: int
    radii: tuple[float, ...]
    violations: int


_SLACK = 1e-12
# Radii of the circles that classical_lower_bound_check samples.
_CLASSICAL_RADII = (0.5, 1.0, 2.0, 10.0)


def classical_lower_bound_check(
    M: PolyMat,
    num_samples: int = 500,
    seed: int = 0,
    radii: tuple[float, ...] = _CLASSICAL_RADII,
    tol: float | None = None,
) -> LowerBoundReport:
    """Check sigma_{(d+d')m}(S_{d'}) against the leading coefficient and
    sampled evaluations on circles of the given radii, taken from one SVD
    of the stack of evaluations."""
    num_samples = _block_count(num_samples, "num_samples")
    seed = _block_count(seed, "seed", least=0)
    _block_count(len(radii), "number of radii")
    dp = _require_robust_minimal(M, tol, "classical_lower_bound_check")
    m = M.rows
    lower = float(sylvester_singular_values(M, dp)[-1])
    sigma_lead = float(full_leading_rank(M, tol).singular_values[m - 1])
    violations = 0
    if lower > sigma_lead + _SLACK:
        violations += 1
    # One uniform per sample, in the order of a per-sample loop.
    u = np.random.default_rng(seed).uniform(size=num_samples)
    lam = np.resize(radii, num_samples) * np.exp(2j * np.pi * u)
    sigma = singular_values(evaluate(M, lam))[:, m - 1]
    violations += int(np.count_nonzero(lower > sigma + _SLACK))
    at = int(np.argmin(sigma))  # the first minimum
    min_sigma = float(sigma[at])
    return LowerBoundReport(
        lower_bound=lower,
        d_prime=dp,
        sigma_leading=sigma_lead,
        min_sampled_sigma=min_sigma,
        min_sampled_at=complex(lam[at]),
        tightest_ratio=min(min_sigma, sigma_lead) / lower if lower > 0 else float("inf"),
        samples=num_samples,
        radii=tuple(radii),
        violations=violations,
    )


def fragile_neighbor(M: PolyMat, eps: float) -> tuple[PolyMat, float]:
    """Explicit non-minimal neighbor at distance below eps.

    Applies to matrices whose leading coefficient is rank deficient (the
    fragile case): depending on whether the leading coefficient is nonzero,
    a zero row of it receives a scaled copy of a nonzero row, two zero rows
    receive a common tiny vector, or (single-row case) a degree-raising term
    is subtracted so the result vanishes at a far-away point.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ShapeError(f"eps must be a finite positive number, got {eps!r}")
    m, q, d = M.rows, M.cols, M.degree_bound
    lead = M.coeffs[d]
    if full_leading_rank(M) is not None:
        raise PreconditionError(
            "leading coefficient has full rank: the input is robust and no "
            "arbitrarily close non-minimal neighbor exists at this grade"
        )
    coeffs = np.array(M.coeffs)
    if m == 1:
        # Leading row is zero; push a root out near infinity.
        lam = 2.0
        while True:
            row = evaluate(M, lam)[0] / lam**d
            if np.linalg.norm(row) < eps / 2.0:
                break
            lam *= 2.0
        coeffs[d, 0, :] -= row
        witness = PolyMat(coeffs)
        return witness, distance(M, witness)
    zero_rows = [j for j in range(m) if not np.any(lead[j])]
    if not zero_rows:
        raise PreconditionError(
            "rank-deficient leading coefficient without a zero row: input is "
            "not a minimal basis, construction undefined"
        )
    nonzero_rows = [j for j in range(m) if np.any(lead[j])]
    if nonzero_rows:
        w = lead[nonzero_rows[0]]
        coeffs[d, zero_rows[0], :] = (0.5 * eps / np.linalg.norm(w)) * w
    else:
        v = np.zeros(q, dtype=M.coeffs.dtype)
        v[0] = 0.45 * eps
        coeffs[d, zero_rows[0], :] = v
        coeffs[d, zero_rows[1], :] = v
    witness = PolyMat(coeffs)
    return witness, distance(M, witness)
