"""Rank-profile recursion, minimal-index recovery, and minimal-basis certificates.

The certification route replaces the classical ``full rank at every lambda_0``
test by finitely many Sylvester-matrix rank decisions: a wide polynomial
matrix is a minimal basis exactly when its highest-row-degree coefficient
matrix has full row rank and the Sylvester-derived minimal-index sum matches
the sum of its row degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NotFullNormalRankError,
    NumericalInconsistencyError,
    LeadingCoefficientError,
)
from .fullsyl import has_full_sylvester_rank
from .polymat import PolyMat, evaluate, row_degrees
from .sylvester import (
    RankDecision,
    _block_count,
    _require_wide,
    full_leading_rank,
    highest_row_degree_rank,
    memoized,
    singular_values,
    stacked_ranks,
    sylvester_rank,
)

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
    (the largest right minimal index), or None.  ``decisions`` holds the
    rank decisions of the S_k that were factored, in increasing k; ranks
    between them may be implied (see ``rank_profile``).
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
        """True when a rank decision is marginal or the ranks are not convex."""
        return not _convex(self.ranks) or any(dec.marginal for dec in self.decisions)


def _convex(ranks) -> bool:
    """Whether the rank increments r_k - r_{k-1} (with r_0 = 0) never increase.

    Every polynomial matrix has nullities n_k = sum_i max(0, k - eps_i) over
    the minimal indices eps_i of its right nullspace, so its increments
    q - #{eps_i <= k-1} do not increase; measured ranks that break this rest
    on at least one wrong rank decision.
    """
    prev, step = 0, float("inf")
    for r in ranks:
        if r - prev > step:
            return False
        prev, step = r, r - prev
    return True


# Normal rank equals the evaluation rank away from finitely many points; two
# fixed pseudo-random probes make an accidental hit vanishingly rare.
_PROBES = np.array([
    complex(re, im) for re, im in np.random.default_rng(0x5E_ED).uniform(0.5, 1.5, (2, 2))
])


def _evaluation_rank(M: PolyMat, tol: float | None) -> int:
    """The larger rank of M at the two probes, from one SVD of both, kept
    in M's memo."""

    def probe() -> int:
        sv = singular_values(evaluate(M, _PROBES))
        return int(stacked_ranks(sv, (M.rows, M.cols), tol)[0].max())

    return memoized(M, "normal_rank", tol, probe)


def _profile(M: PolyMat, ranks: list[int], normal_rank: int, stopped: bool,
             decisions: Sequence[RankDecision], tol: float | None) -> RankProfile:
    """The profile of the ranks r_1, r_2, ... of M's Sylvester matrices, with
    M's normal rank and the ``decisions`` at ``tol`` the ranks rest on.

    ``stopped`` says the last rank increment is m, so d' = len(ranks) - 1
    when the normal rank is full: the normal rank guards a stop against a
    transient m-increment of a rank-deficient input and, without a stop,
    tells a scan truncated by a small cap (full rank) from increments that
    stabilized below m.  Only with d' are the index counts
    alpha_0 = n_1, alpha_k = n_{k+1} - 2 n_k + n_{k-1} read off the
    nullities n_k = kq - r_k.
    """
    m, q = M.rows, M.cols
    full = normal_rank >= m
    d_prime = len(ranks) - 1 if stopped and full else None
    n = (0,) + tuple(k * q - r for k, r in enumerate(ranks, start=1))
    alphas = () if d_prime is None else (n[1],) + tuple(
        n[k + 1] - 2 * n[k] + n[k - 1] for k in range(1, len(ranks))
    )
    return RankProfile(
        ranks=tuple(ranks),
        nullities=n[1:],
        alphas=alphas,
        d_prime=d_prime,
        normal_rank_full=full,
        stabilized_increment=None if full else normal_rank,
        decisions=tuple(decisions),
        tolerance=tol,
    )


def _full_sylvester_profile(M: PolyMat, tol: float | None) -> RankProfile | None:
    """The profile that full-Sylvester-rank implies, or None without it.

    Full row rank of S_k' forces full row rank of the leading coefficient,
    so the attempt is skipped unless that holds.  The attempt is the
    property test itself, both rank tests even when the first fails, so its
    report is in the memo for a later ``has_full_sylvester_rank`` and the
    scan that follows a failed attempt reuses its S_k.  With the property
    every S_k has full rank, r_k = min((k+d)m, kq), and the scan would stop
    at k = k'+1 with d' = k'.
    """
    if full_leading_rank(M, tol) is None:
        return None
    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        return None
    m, q, d = M.rows, M.cols, M.degree_bound
    ranks = [min((k + d) * m, k * q) for k in range(1, report.k_prime_t.k_prime + 2)]
    decisions = [sylvester_rank(M, c.k, tol) for c in report.checked_ranks]
    return _profile(M, ranks, m, True, decisions, tol)


def _index_sum_jump(
    M: PolyMat, tol: float | None, ranks: list[int]
) -> tuple[list[int], list[int]] | None:
    """The ranks r_1 .. r_{d'+1} that the measured ``ranks`` r_1 .. r_k and
    the index sum theorem settle, with the j > k whose S_j it factored, or
    None.

    With full row normal rank and a highest-row-degree matrix of full row
    rank, the right minimal indices sum to D minus the degree of the finite
    eigenvalues, D the sum of the row degrees (De Teran, Dopico & Mackey,
    2014).  Once the prefix leaves one index unknown (its nullity increment
    n_k - n_{k-1} = #{eps_i <= k-1} is n-1), that index eps is at least k
    and at most R = D - (sum of the known ones), and since
    nullity(S_j) = sum_i max(0, j - eps_i), the nullity of S_{R+1} gives it.
    The stop pair d' = eps, d'+1 must rest on rank decisions that agree with
    the implied ranks, so S_eps is factored too, and S_{eps+1} unless it is
    S_{R+1} (it is, without finite eigenvalues): r_eps catches an eps too
    large, r_{eps+1} one too small.  A check that fails returns None, and the
    scan goes on from the memo.
    """
    m, q = M.rows, M.cols
    n, k = q - m, len(ranks)
    # n_k - n_{k-1} = n - 1 is the rank increment r_k - r_{k-1} = m + 1.
    if ranks[-1] - (ranks[-2] if k > 1 else 0) != m + 1 or not _convex(ranks):
        return None
    if highest_row_degree_rank(M, tol).rank < m or _evaluation_rank(M, tol) < m:
        return None
    known = (n - 1) * k - (k * q - ranks[-1])  # n_k = sum over the known of k - eps_i
    top = sum(row_degrees(M)) - known  # R
    if top < k:
        return None
    eps = n * (top + 1) - known - sylvester_rank(M, top + 1, tol).nullity
    if not k <= eps <= top:
        return None
    # For j >= k every known index is below j and the unknown one is >= k.
    implied = ranks + [
        j * q - ((n - 1) * j - known) - max(0, j - eps) for j in range(k + 1, eps + 2)
    ]
    factored = [j for j in sorted({eps, eps + 1, top + 1}) if j > k]
    decided = [sylvester_rank(M, j, tol).rank for j in factored]
    if any(j <= eps + 1 and r != implied[j - 1] for j, r in zip(factored, decided)):
        return None
    return implied, factored


def _scan(
    M: PolyMat,
    k_max: int | None,
    rank_at: Callable[[int], int],
    jump: Callable[[list[int]], tuple[list[int], list[int]] | None] | None = None,
) -> tuple[list[int], bool, list[int]]:
    """The rank scan shared by the floating-point and the exact profile: the
    ranks r_1, r_2, ..., whether the last increment is m, and the k whose
    S_k were measured, in increasing order.

    ``rank_at(k)`` is the rank of S_k.  ``jump(ranks)``, called after each
    rank that does not stop the scan, may end it early with the whole rank
    list up to d'+1 and the k beyond the scanned ones it measured, or return
    None to go on.
    """
    m = M.rows
    cap = _block_count(k_max, "scan cap") if k_max is not None else m * M.degree_bound + 2
    ranks: list[int] = []
    prev = 0
    for k in range(1, cap + 1):
        ranks.append(rank_at(k))
        if ranks[-1] - prev == m:
            return ranks, True, list(range(1, k + 1))
        prev = ranks[-1]
        jumped = jump(ranks) if jump is not None else None
        if jumped is not None:
            return jumped[0], True, list(range(1, k + 1)) + jumped[1]
    return ranks, False, list(range(1, cap + 1))


def rank_profile(M: PolyMat, k_max: int | None = None, tol: float | None = None) -> RankProfile:
    """Scan Sylvester ranks r_1, r_2, ... until the increment drops to m.

    The first k with r_{k+1} - r_k == m is the largest right minimal index
    d'.  The default scan cap m*d + 2 suffices for every full-normal-rank
    input because the minimal-index sum is bounded by m*d.  If the increments
    stabilize below m instead, the matrix does not have full row normal rank
    and ``alphas`` is left empty.

    Without ``k_max`` the one or two full-Sylvester-rank tests run first;
    when they pass, the profile is read off the theorem and ``decisions``
    holds only those tests.  Otherwise the scan runs, reusing every S_k the
    tests already factored, and once a single minimal index is left unknown
    the index sum theorem may settle it from one larger S_k (see
    ``_index_sum_jump``): the ranks in between are then implied, not
    factored.  This profile is kept in M's memo, one per tolerance.  With
    ``k_max`` the plain scan runs and records a decision for every k.
    """
    if k_max is None:
        return memoized(M, "profile", tol, lambda: _float_scan(M, None, tol))
    return _float_scan(M, k_max, tol)


def _float_scan(M: PolyMat, k_max: int | None, tol: float | None) -> RankProfile:
    """The scan on rank decisions at ``tol``; the full-Sylvester-rank shortcut
    and the index sum jump only without a cap."""
    _require_wide(M, "rank_profile", graded=True)
    shortcut = _full_sylvester_profile(M, tol) if k_max is None else None
    if shortcut is not None:
        return shortcut
    ranks, stopped, measured = _scan(
        M,
        k_max,
        lambda k: sylvester_rank(M, k, tol).rank,
        (lambda prefix: _index_sum_jump(M, tol, prefix)) if k_max is None else None,
    )
    decisions = [sylvester_rank(M, k, tol) for k in measured]
    return _profile(M, ranks, _evaluation_rank(M, tol), stopped, decisions, tol)


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


def _indices_or_none(profile: RankProfile) -> list[int] | None:
    """The indices ``profile`` encodes, or None without full normal rank."""
    if not profile.normal_rank_full or profile.d_prime is None:
        return None
    return indices_from_profile(profile)


def right_minimal_indices(M: PolyMat, tol: float | None = None) -> list[int]:
    """Right minimal indices of a full-normal-rank wide polynomial matrix."""
    indices = indices_from_profile(rank_profile(M, tol=tol))
    n = M.cols - M.rows
    if len(indices) != n:
        raise NumericalInconsistencyError(
            f"recovered {len(indices)} right minimal indices, expected {n}"
        )
    return indices


def _minimal_index_sum(profile: RankProfile, m: int) -> int:
    """Sum of the right minimal indices, computed as r_{d'} - m*d', of a
    profile that reached d'."""
    dp = profile.d_prime
    return (profile.ranks[dp - 1] if dp >= 1 else 0) - m * dp


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
    _require_wide(M, "certification")
    hr_dec = highest_row_degree_rank(M, tol)
    profile = rank_profile(M, tol=tol)
    expected = int(sum(row_degrees(M)))
    marginal = profile.marginal or hr_dec.marginal

    if not profile.normal_rank_full:
        verdict, reason, observed = False, REASON_NOT_FULL_RANK, None
    elif profile.d_prime is None:
        # The default cap reaches d' for every input of full normal rank, so
        # some rank decision here is wrong, however wide its gap.
        verdict, reason, observed, marginal = False, REASON_SCAN_EXHAUSTED, None, True
    else:
        observed = _minimal_index_sum(profile, M.rows)
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
    """The general certificate, for matrices whose leading coefficient has
    full row rank.

    Under that precondition the smallest block count whose Sylvester matrix
    has full row rank is the largest right minimal index d', where the rank
    scan stops, so no search of its own is needed: the result is
    ``certify_minimal_basis``'s, profile included.  Raises
    LeadingCoefficientError when the leading coefficient is rank deficient,
    in which case ``certify_minimal_basis`` must be used instead.
    """
    _require_wide(M, "certification")
    if full_leading_rank(M, tol) is None:
        raise LeadingCoefficientError(
            "leading coefficient rank deficient -- use certify_minimal_basis"
        )
    return certify_minimal_basis(M, tol)
