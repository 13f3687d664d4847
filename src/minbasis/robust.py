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

import numpy as np

from .errors import (
    LeadingCoefficientError,
    NumericalInconsistencyError,
    PreconditionError,
    ShapeError,
)
from .fullsyl import has_full_sylvester_rank
from .minimal import certify_minimal_basis
from .polymat import PolyMat, evaluate, s1_stack
from .sylvester import (
    full_leading_rank,
    rank_nullity,
    sylvester_rank,
    sylvester_singular_values,
)

__all__ = [
    "RadiusReport",
    "Thetas",
    "LowerBoundReport",
    "robustness_radius_minimal",
    "robustness_radius_fullsyl",
    "sharp_witness_flat",
    "thetas",
    "classical_lower_bound_check",
    "fragile_neighbor",
    "distance",
]


def distance(A: PolyMat, B: PolyMat) -> float:
    """Spectral-norm distance between the stacked coefficient matrices."""
    diff = s1_stack(A) - s1_stack(B)
    return float(np.linalg.norm(diff, 2))


def _sigma(M: PolyMat, k: int, index_one_based: int) -> float:
    """The index-th largest singular value of S_k(M), read from M's memo."""
    sv = sylvester_singular_values(M, k)
    if not 1 <= index_one_based <= len(sv):
        raise IndexError(
            f"singular value index {index_one_based} out of range (have {len(sv)})"
        )
    return float(sv[index_one_based - 1])


@dataclass(frozen=True)
class RadiusReport:
    """A robustness radius together with the candidate table that produced it."""

    radius: float
    k_used: int
    scanned: tuple[tuple[int, float], ...]
    kind: str  # "minimal_basis" | "full_sylvester" | "sharp_flat"

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "k_used": self.k_used,
            "scanned": [{"k": k, "candidate": c} for k, c in self.scanned],
            "kind": self.kind,
        }


def robustness_radius_minimal(
    M: PolyMat, scan_extra: int = 3, tol: float | None = None
) -> RadiusReport:
    """Largest certified radius within which perturbed matrices stay minimal.

    Starting from the smallest block count whose Sylvester matrix has full
    row rank, each candidate sigma_{(k+d)m}(S_k)/sqrt(k) certifies a
    neighborhood; a short scan over larger k keeps the best one.
    """
    m, d = M.rows, M.degree_bound
    if scan_extra < 0:
        raise ShapeError("scan_extra must be non-negative")
    if full_leading_rank(M, tol) is None:
        raise LeadingCoefficientError(
            "leading coefficient rank deficient: no robustness neighborhood exists"
        )
    cert = certify_minimal_basis(M, tol)
    if not cert.is_minimal_basis:
        raise PreconditionError(f"input is not a minimal basis ({cert.reason})")
    n = M.cols - m
    k0 = None
    for k in range(-(-m * d // n), m * d + 3):
        if sylvester_rank(M, k, tol).rank == (k + d) * m:
            k0 = k
            break
    if k0 is None:
        raise NumericalInconsistencyError(
            "certified minimal with full-rank leading coefficient, yet no "
            "Sylvester matrix reached full row rank"
        )
    scanned = []
    for k in range(k0, k0 + scan_extra + 1):
        cand = _sigma(M, k, (k + d) * m) / math.sqrt(k)
        scanned.append((k, cand))
    k_used, radius = max(scanned, key=lambda kv: kv[1])
    return RadiusReport(
        radius=radius, k_used=k_used, scanned=tuple(scanned), kind="minimal_basis"
    )


def robustness_radius_fullsyl(M: PolyMat, tol: float | None = None) -> RadiusReport:
    """Radius within which every perturbation keeps full-Sylvester-rank."""
    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        raise PreconditionError("input does not have full-Sylvester-rank")
    kp, t = report.k_prime_t.k_prime, report.k_prime_t.t
    m, q, d = M.rows, M.cols, M.degree_bound
    scanned = []
    if kp > 1 and t > 0:
        scanned.append((kp - 1, _sigma(M, kp - 1, (kp - 1) * q) / math.sqrt(kp - 1)))
    scanned.append((kp, _sigma(M, kp, (kp + d) * m) / math.sqrt(kp)))
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
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    if m * d > n:
        raise PreconditionError(f"flat case requires m*d <= n, got {m}*{d} > {n}")
    stack = s1_stack(M)
    dec = rank_nullity(stack, tol)
    if dec.rank < (d + 1) * m:
        raise PreconditionError("first coefficient stack is not of full row rank")
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    dist = float(s[-1])
    s_mod = s.copy()
    s_mod[-1] = 0.0
    flat = (u * s_mod) @ vh
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
    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        raise PreconditionError("thetas require a full-Sylvester-rank input")
    kp, t = report.k_prime_t.k_prime, report.k_prime_t.t
    m, q, d = M.rows, M.cols, M.degree_bound

    def scaled(k: int, index: int) -> float:
        return _sigma(M, k, index) / math.sqrt(k)

    s_kp = scaled(kp, (kp + d) * m)
    s_kp1 = scaled(kp + 1, (kp + 1 + d) * m)
    if t == 0:
        return Thetas(theta1=min(s_kp, s_kp1), theta2=s_kp1, case="c")
    if kp == 1:
        both = min(s_kp, s_kp1)
        return Thetas(theta1=both, theta2=both, case="b")
    s_prev = scaled(kp - 1, (kp - 1) * q)
    return Thetas(theta1=min(s_prev, s_kp, s_kp1), theta2=min(s_kp, s_kp1), case="a")


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

    def to_dict(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "d_prime": self.d_prime,
            "sigma_leading": self.sigma_leading,
            "min_sampled_sigma": self.min_sampled_sigma,
            "min_sampled_at": [self.min_sampled_at.real, self.min_sampled_at.imag],
            "tightest_ratio": self.tightest_ratio,
            "samples": self.samples,
            "radii": list(self.radii),
            "violations": self.violations,
        }


_SLACK = 1e-12


def classical_lower_bound_check(
    M: PolyMat,
    num_samples: int = 500,
    seed: int = 0,
    radii: tuple[float, ...] = (0.5, 1.0, 2.0, 10.0),
    tol: float | None = None,
) -> LowerBoundReport:
    """Check sigma_{(d+d')m}(S_{d'}) against the leading coefficient and
    sampled evaluations on circles of the given radii."""
    m, d = M.rows, M.degree_bound
    lead_dec = full_leading_rank(M, tol)
    if lead_dec is None:
        raise LeadingCoefficientError("lower bound requires a full-rank leading coefficient")
    cert = certify_minimal_basis(M, tol)
    if not cert.is_minimal_basis:
        raise PreconditionError(f"input is not a minimal basis ({cert.reason})")
    dp = cert.d_prime
    lower = _sigma(M, dp, (d + dp) * m)
    sigma_lead = float(lead_dec.singular_values[m - 1])
    violations = 0
    if lower > sigma_lead + _SLACK:
        violations += 1
    rng = np.random.default_rng(seed)
    min_sigma = float("inf")
    min_at = 0j
    for i in range(num_samples):
        radius = radii[i % len(radii)]
        lam = radius * np.exp(2j * np.pi * rng.uniform())
        sv = np.linalg.svd(evaluate(M, lam), compute_uv=False)
        sigma_m = float(sv[m - 1])
        if sigma_m < min_sigma:
            min_sigma, min_at = sigma_m, complex(lam)
        if lower > sigma_m + _SLACK:
            violations += 1
    return LowerBoundReport(
        lower_bound=lower,
        d_prime=dp,
        sigma_leading=sigma_lead,
        min_sampled_sigma=min_sigma,
        min_sampled_at=min_at,
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
    if eps <= 0:
        raise ShapeError("eps must be positive")
    m, q, d = M.rows, M.cols, M.degree_bound
    lead = M.coeffs[d]
    if rank_nullity(lead).rank >= m:
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
            if np.linalg.norm(row, 2) < eps / 2.0:
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
        coeffs[d, zero_rows[0], :] = (0.5 * eps / np.linalg.norm(w, 2)) * w
    else:
        v = np.zeros(q, dtype=M.coeffs.dtype)
        v[0] = 0.45 * eps
        coeffs[d, zero_rows[0], :] = v
        coeffs[d, zero_rows[1], :] = v
    witness = PolyMat(coeffs)
    return witness, distance(M, witness)
