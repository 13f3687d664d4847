"""Rank-profile recursion, minimal-index recovery, and minimal-basis certificates.

The certification route replaces the classical ``full rank at every lambda_0``
test by finitely many Sylvester-matrix rank decisions: a wide polynomial
matrix is a minimal basis exactly when its highest-row-degree coefficient
matrix has full row rank and the Sylvester-derived minimal-index sum matches
the sum of its row degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotFullNormalRankError,
    NumericalInconsistencyError,
    PreconditionError,
    LeadingCoefficientError,
    ShapeError,
)
from .fullsyl import decisive_rank_tests, kprime_t
from .polymat import PolyMat, evaluate, row_degrees
from .sylvester import (
    RankDecision,
    full_leading_rank,
    highest_row_degree_rank,
    rank_nullity,
    sylvester_rank,
)

__all__ = [
    "RankProfile",
    "Certificate",
    "ClassicalCheck",
    "rank_profile",
    "right_minimal_indices",
    "indices_from_profile",
    "minimal_index_sum",
    "certify_minimal_basis",
    "certify_full_leading",
    "classical_check",
]

# Gap ratio below which a rank decision is reported as marginal.
MARGINAL_GAP = 1e3

REASON_OK = "ok"
REASON_HR = "hr_rank_deficient"
REASON_DEGREE_SUM = "degree_sum_mismatch"
REASON_NOT_FULL_RANK = "not_full_normal_rank"
REASON_SCAN_EXHAUSTED = "scan_exhausted"


@dataclass(frozen=True)
class RankProfile:
    """Per-k record of Sylvester ranks, nullities, and index counts.

    ``ranks[k-1]`` is the rank of the k-th Sylvester matrix.  ``alphas[j]``
    counts the right minimal indices equal to j; it is empty when the matrix
    does not have full row normal rank, where the recursion does not apply.
    ``d_prime`` is the first k with rank increment equal to the row count
    (the largest right minimal index), or None.
    """

    ranks: tuple[int, ...]
    nullities: tuple[int, ...]
    alphas: tuple[int, ...]
    d_prime: int | None
    normal_rank_full: bool
    stabilized_increment: int | None
    decisions: tuple[RankDecision, ...]
    tolerance: float | None

    @property
    def marginal(self) -> bool:
        return any(dec.gap_ratio < MARGINAL_GAP for dec in self.decisions)


def _evaluation_rank(M: PolyMat, tol: float | None) -> int:
    # Normal rank equals the evaluation rank away from finitely many points;
    # two fixed pseudo-random probes make an accidental hit vanishingly rare.
    rng = np.random.default_rng(0x5E_ED)
    best = 0
    for _ in range(2):
        lam = complex(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))
        best = max(best, rank_nullity(evaluate(M, lam), tol).rank)
    return best


def _alphas_from_nullities(nullities: tuple[int, ...]) -> tuple[int, ...]:
    # alpha_0 = n_1, alpha_k = n_{k+1} - 2 n_k + n_{k-1}; needs n up to K.
    full = (0,) + nullities
    return tuple(
        full[k + 1] - 2 * full[k] + full[k - 1] if k >= 1 else full[1]
        for k in range(len(nullities))
    )


def _full_sylvester_profile(M: PolyMat, tol: float | None) -> RankProfile | None:
    """The profile that full-Sylvester-rank implies, or None without it.

    Full row rank of S_k' forces full row rank of the leading coefficient,
    so the attempt is skipped unless that holds, and it stops at the first
    failing rank test.  The scan that follows a failed attempt reuses the
    tested S_k, unless the input's largest minimal index stops it first (a
    common factor can do that).  With the property every S_k has full rank,
    r_k = min((k+d)m, kq), and the scan would stop at k = k'+1 with d' = k'.
    """
    if full_leading_rank(M, tol) is None:
        return None
    m, q, d = M.rows, M.cols, M.degree_bound
    kt = kprime_t(m, q - m, d)
    decisions = []
    for k, required, _ in decisive_rank_tests(kt, m, q, d):
        dec = sylvester_rank(M, k, tol)
        if dec.rank != required:
            return None
        decisions.append(dec)
    ranks = tuple(min((k + d) * m, k * q) for k in range(1, kt.k_prime + 2))
    nullities = tuple(k * q - r for k, r in enumerate(ranks, start=1))
    return RankProfile(
        ranks=ranks,
        nullities=nullities,
        alphas=_alphas_from_nullities(nullities),
        d_prime=kt.k_prime,
        normal_rank_full=True,
        stabilized_increment=None,
        decisions=tuple(decisions),
        tolerance=tol,
    )


def rank_profile(M: PolyMat, k_max: int | None = None, tol: float | None = None) -> RankProfile:
    """Scan Sylvester ranks r_1, r_2, ... until the increment drops to m.

    The first k with r_{k+1} - r_k == m is the largest right minimal index
    d'.  The default scan cap m*d + 2 suffices for every full-normal-rank
    input because the minimal-index sum is bounded by m*d.  If the increments
    stabilize below m instead, the matrix does not have full row normal rank
    and ``alphas`` is left empty.

    Without ``k_max`` the one or two full-Sylvester-rank tests run first;
    when they pass, the profile is read off the theorem and ``decisions``
    holds only those tests.  Otherwise, and always with ``k_max``, the scan
    runs, reusing every S_k the tests already factored.
    """
    m, q, d = M.rows, M.cols, M.degree_bound
    if m >= q:
        raise ShapeError(f"rank_profile requires a wide matrix, got {m}x{q}")
    if d < 1:
        raise ShapeError("rank_profile requires degree_bound >= 1")
    if k_max is None:
        profile = _full_sylvester_profile(M, tol)
        if profile is not None:
            return profile
    cap = k_max if k_max is not None else m * d + 2
    if cap < 1:
        raise ShapeError(f"scan cap must be positive, got {cap}")

    ranks: list[int] = []
    nullities: list[int] = []
    decisions: list[RankDecision] = []
    d_prime = None
    prev = 0
    for k in range(1, cap + 1):
        dec = sylvester_rank(M, k, tol)
        ranks.append(dec.rank)
        nullities.append(dec.nullity)
        decisions.append(dec)
        if dec.rank - prev == m:
            d_prime = k - 1
            break
        prev = dec.rank

    normal_rank_full = True
    stabilized = None
    if d_prime is not None:
        # Guard against a transient m-increment on a rank-deficient input.
        eval_rank = _evaluation_rank(M, tol)
        if eval_rank < m:
            normal_rank_full = False
            stabilized = eval_rank
            d_prime = None
    else:
        # Cap reached without the stopping test firing: either the scan was
        # truncated by a small user cap (evaluation still shows full rank) or
        # the increments stabilized below m and the matrix is rank deficient.
        eval_rank = _evaluation_rank(M, tol)
        if eval_rank < m:
            normal_rank_full = False
            stabilized = eval_rank

    alphas = (
        _alphas_from_nullities(tuple(nullities))
        if normal_rank_full and d_prime is not None
        else ()
    )
    return RankProfile(
        ranks=tuple(ranks),
        nullities=tuple(nullities),
        alphas=alphas,
        d_prime=d_prime,
        normal_rank_full=normal_rank_full,
        stabilized_increment=stabilized,
        decisions=tuple(decisions),
        tolerance=tol,
    )


def indices_from_profile(profile: RankProfile) -> list[int]:
    """Sorted multiset of right minimal indices encoded by ``profile``."""
    if not profile.normal_rank_full or profile.d_prime is None:
        raise NotFullNormalRankError(
            "profile does not certify full row normal rank",
            stabilized_rank=profile.stabilized_increment,
        )
    out: list[int] = []
    for j, count in enumerate(profile.alphas):
        if count < 0:
            raise NumericalInconsistencyError(
                f"negative index count alpha_{j} = {count}; rank decisions inconsistent"
            )
        out.extend([j] * count)
    return out


def right_minimal_indices(
    M: PolyMat, tol: float | None = None, profile: RankProfile | None = None
) -> list[int]:
    """Right minimal indices of a full-normal-rank wide polynomial matrix."""
    if profile is None:
        profile = rank_profile(M, tol=tol)
    indices = indices_from_profile(profile)
    n = M.cols - M.rows
    if len(indices) != n:
        raise NumericalInconsistencyError(
            f"recovered {len(indices)} right minimal indices, expected {n}"
        )
    return indices


def minimal_index_sum(profile: RankProfile, m: int) -> int:
    """Sum of the right minimal indices, computed as r_{d'} - m*d'.

    Cross-computes the nullity form n*d' - n_{d'} and insists the two agree.
    """
    if profile.d_prime is None:
        raise PreconditionError("profile has no stopping index d'")
    dp = profile.d_prime
    r_dp = profile.ranks[dp - 1] if dp >= 1 else 0
    n_dp = profile.nullities[dp - 1] if dp >= 1 else 0
    n = (profile.ranks[0] + profile.nullities[0]) - m
    by_rank = r_dp - m * dp
    by_nullity = n * dp - n_dp
    if by_rank != by_nullity:
        raise NumericalInconsistencyError(
            f"degree-sum formulas disagree: r-form {by_rank}, n-form {by_nullity}"
        )
    return by_rank


@dataclass(frozen=True)
class Certificate:
    """Verdict for the minimal-basis property with its witnessing ranks."""

    is_minimal_basis: bool
    reason: str
    hr_rank: int
    d_prime: int | None
    degree_sum_expected: int
    degree_sum_observed: int | None
    tolerance_used: float
    marginal: bool
    profile: RankProfile | None


def certify_minimal_basis(M: PolyMat, tol: float | None = None) -> Certificate:
    """Decide whether M is a minimal basis via the finite rank conditions.

    Failures are verdicts, not errors: the certificate records which of the
    two conditions (row reducedness, degree-sum equality) broke.
    """
    if not M.is_wide:
        raise ShapeError(f"certification requires a wide matrix, got {M.rows}x{M.cols}")
    hr_dec = highest_row_degree_rank(M, tol)
    profile = rank_profile(M, tol=tol)
    expected = int(sum(row_degrees(M)))
    marginal = profile.marginal or hr_dec.gap_ratio < MARGINAL_GAP

    if not profile.normal_rank_full:
        verdict, reason, observed = False, REASON_NOT_FULL_RANK, None
    elif profile.d_prime is None:
        verdict, reason, observed = False, REASON_SCAN_EXHAUSTED, None
    else:
        observed = minimal_index_sum(profile, M.rows)
        if hr_dec.rank < M.rows:
            verdict, reason = False, REASON_HR
        elif observed != expected:
            verdict, reason = False, REASON_DEGREE_SUM
        else:
            verdict, reason = True, REASON_OK
    return Certificate(
        is_minimal_basis=verdict,
        reason=reason,
        hr_rank=hr_dec.rank,
        d_prime=profile.d_prime,
        degree_sum_expected=expected,
        degree_sum_observed=observed,
        tolerance_used=hr_dec.tolerance_used,
        marginal=marginal,
        profile=profile,
    )


def certify_full_leading(M: PolyMat, tol: float | None = None) -> Certificate:
    """Shortcut certificate for matrices whose leading coefficient has full rank.

    Searches for a Sylvester matrix with full row rank; the smallest such
    block count is the largest right minimal index.  Raises
    LeadingCoefficientError when the leading coefficient is rank deficient,
    in which case ``certify_minimal_basis`` must be used instead.
    """
    if not M.is_wide:
        raise ShapeError(f"certification requires a wide matrix, got {M.rows}x{M.cols}")
    m, q, d = M.rows, M.cols, M.degree_bound
    if d < 1:
        raise ShapeError("certify_full_leading requires degree_bound >= 1")
    lead_dec = full_leading_rank(M, tol)
    if lead_dec is None:
        raise LeadingCoefficientError(
            "leading coefficient rank deficient -- use certify_minimal_basis"
        )
    n = q - m
    # Full row rank needs at least as many columns as rows: k >= ceil(m*d/n).
    k_start = -(-m * d // n)
    cap = m * d + 2
    decisions = []
    found = None
    for k in range(k_start, cap + 1):
        dec = sylvester_rank(M, k, tol)
        decisions.append(dec)
        if dec.rank == (k + d) * m:
            found = k
            break
    marginal = any(dec.gap_ratio < MARGINAL_GAP for dec in decisions)
    expected = int(sum(row_degrees(M)))
    if found is not None:
        r_found = decisions[-1].rank
        return Certificate(
            is_minimal_basis=True,
            reason=REASON_OK,
            hr_rank=lead_dec.rank,
            d_prime=found,
            degree_sum_expected=expected,
            degree_sum_observed=r_found - m * found,
            tolerance_used=lead_dec.tolerance_used,
            marginal=marginal,
            profile=None,
        )
    # No Sylvester matrix reached full row rank; report the mismatch via the
    # ordinary profile for diagnostics.
    profile = rank_profile(M, tol=tol)
    observed = (
        minimal_index_sum(profile, m)
        if profile.normal_rank_full and profile.d_prime is not None
        else None
    )
    return Certificate(
        is_minimal_basis=False,
        reason=REASON_DEGREE_SUM if observed is not None else REASON_SCAN_EXHAUSTED,
        hr_rank=lead_dec.rank,
        d_prime=profile.d_prime,
        degree_sum_expected=expected,
        degree_sum_observed=observed,
        tolerance_used=lead_dec.tolerance_used,
        marginal=marginal or profile.marginal,
        profile=profile,
    )


@dataclass(frozen=True)
class ClassicalCheck:
    """Outcome of the sampled full-rank-everywhere test.

    A pass here is evidence, not a certificate: the sampled test cannot see
    rank drops at unsampled points, so the Sylvester certificate remains the
    authoritative path.
    """

    passed: bool
    row_reduced: bool
    rank_drops: int
    min_sigma: float
    min_sigma_at: complex
    samples: int
    hr_rank: int


_CLASSICAL_RADII = (0.5, 1.0, 2.0, 10.0)


def classical_check(
    M: PolyMat, num_samples: int = 200, seed: int = 0, tol: float | None = None
) -> ClassicalCheck:
    """Probabilistic minimality check: row reducedness plus sampled evaluations.

    Draws pseudo-random points from the complex unit disk scaled by the radii
    0.5, 1, 2, and 10 and tests rank(M(lambda_0)) == rows at each.
    """
    if not M.is_wide:
        raise ShapeError(f"classical_check requires a wide matrix, got {M.rows}x{M.cols}")
    if num_samples < 1:
        raise ShapeError("num_samples must be positive")
    hr_dec = highest_row_degree_rank(M, tol)
    rng = np.random.default_rng(seed)
    m = M.rows
    drops = 0
    min_sigma = float("inf")
    min_at = 0j
    for i in range(num_samples):
        radius = _CLASSICAL_RADII[i % len(_CLASSICAL_RADII)]
        lam = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        dec = rank_nullity(evaluate(M, lam), tol)
        sigma_m = dec.singular_values[m - 1]
        if sigma_m < min_sigma:
            min_sigma, min_at = sigma_m, complex(lam)
        if dec.rank < m:
            drops += 1
    return ClassicalCheck(
        passed=(hr_dec.rank == m and drops == 0),
        row_reduced=(hr_dec.rank == m),
        rank_drops=drops,
        min_sigma=float(min_sigma),
        min_sigma_at=min_at,
        samples=num_samples,
        hr_rank=hr_dec.rank,
    )
