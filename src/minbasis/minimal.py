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
from .polymat import PolyMat, _block_count, evaluate, row_degrees
from .sylvester import (
    RankDecision,
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
    (the largest right minimal index), or None.  ``decided_k`` lists the k
    of the S_k whose ranks were measured, in increasing order; the ranks at
    the other k are implied by a theorem (see ``rank_profile``): below the
    first, full column rank, where the full-Sylvester-rank tests start the
    scan.  A larger S_k that the index sum jump checked may lie past the
    ranks kept.
    ``decisions`` holds the floating-point rank decision of each S_k in
    ``decided_k``; the exact profile keeps none.
    """

    ranks: tuple[int, ...]
    nullities: tuple[int, ...]
    alphas: tuple[int, ...]
    d_prime: int | None
    normal_rank_full: bool
    stabilized_increment: int | None
    decisions: tuple[RankDecision, ...]
    decided_k: tuple[int, ...]
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
# fixed pseudo-random probes make an accidental hit vanishingly rare.  They
# are the rows of np.random.default_rng(0x5EED).uniform(0.5, 1.5, (2, 2)) as
# (re, im), written out so that importing the package does not load
# numpy.random.
_PROBES = np.array([complex(0.6379288440379999, 1.4902106560036337),
                    complex(0.7225115845739198, 1.1299875481900221)])


def _evaluation_rank(M: PolyMat, tol: float | None) -> int:
    """The larger rank of M at the two probes, from one SVD of both, kept
    in M's memo."""

    def probe() -> int:
        sv = singular_values(evaluate(M, _PROBES))
        return int(stacked_ranks(sv, (M.rows, M.cols), tol)[0].max())

    return memoized(M, "normal_rank", tol, probe)


def _profile(M: PolyMat, ranks: list[int], normal_rank: int, stopped: bool,
             decided_k: Sequence[int], decisions: Sequence[RankDecision],
             tol: float | None) -> RankProfile:
    """The profile of the ranks r_1, r_2, ... of M's Sylvester matrices, with
    M's normal rank, the k whose ranks were measured and their ``decisions``
    at ``tol`` (empty for the exact profile).

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
    n = (0,) + tuple([k * q - r for k, r in enumerate(ranks, start=1)])
    alphas = () if d_prime is None else (n[1],) + tuple(
        [n[k + 1] - 2 * n[k] + n[k - 1] for k in range(1, len(ranks))]
    )
    return RankProfile(
        ranks=tuple(ranks),
        nullities=n[1:],
        alphas=alphas,
        d_prime=d_prime,
        normal_rank_full=full,
        stabilized_increment=None if full else normal_rank,
        decisions=tuple(decisions),
        decided_k=tuple(decided_k),
        tolerance=tol,
    )


def _implies_full_next(M: PolyMat, full_leading: bool, k: int, rank: int) -> bool:
    """Whether ``rank`` is the full row rank (k+d)m of S_k and the leading
    coefficient C_d has full row rank (``full_leading``), so that S_{k+1}
    has full row rank too: S_{k+1} = [[S_k, Y], [0, C_d]] is block upper
    triangular with both diagonal blocks of full row rank.  The implied rank
    rests on the theorem and the two decisions, not on a bound for
    sigma_min(S_{k+1})."""
    return full_leading and rank == (k + M.degree_bound) * M.rows


def _index_sum_jump(
    M: PolyMat, tol: float | None, ranks: list[int], full_leading: bool
) -> tuple[list[int], list[int]] | None:
    """The ranks r_1 .. r_{d'+1} that the measured ``ranks`` r_1 .. r_k and
    the index sum theorem settle, with the j > k whose S_j it factored, or
    None.

    With a highest-row-degree matrix of full row rank, which implies full
    row normal rank, the right minimal indices sum to D minus the degree of
    the finite eigenvalues, D the sum of the row degrees (De Teran, Dopico
    & Mackey, 2014).  Once the prefix leaves one index unknown (its
    nullity increment n_k - n_{k-1} = #{eps_i <= k-1} is n-1), that index
    eps is at least k and at most R = D - (sum of the known ones), and
    since nullity(S_j) = sum_i max(0, j - eps_i), the nullity of S_R gives
    it.  The stop pair d' = eps, d'+1 must rest on rank decisions that
    agree with the implied ranks: r_eps catches an eps too large, r_{eps+1}
    one too small.  So S_eps is factored, and S_{eps+1} unless S_eps has
    full row rank with a full-rank C_d (``full_leading``), which implies
    r_{eps+1} (see ``_implies_full_next``).  When eps + 1 = R, S_{eps+1} is
    the source and agrees by construction, so S_{R+1} is factored instead.
    A check that fails returns None, and the scan goes on from the memo.
    """
    m, q = M.rows, M.cols
    n, k = q - m, len(ranks)
    # n_k - n_{k-1} = n - 1 is the rank increment r_k - r_{k-1} = m + 1.
    if ranks[-1] - (ranks[-2] if k > 1 else 0) != m + 1 or not _convex(ranks):
        return None
    if highest_row_degree_rank(M, tol).rank < m:
        return None
    known = (n - 1) * k - (k * q - ranks[-1])  # n_k = sum over the known of k - eps_i
    top = sum(row_degrees(M)) - known  # R
    if top < k:
        return None
    eps = n * top - known - sylvester_rank(M, top, tol).nullity
    if not k <= eps <= top:
        return None

    def implied(j: int) -> int:
        # For j >= k every known index is below j and the unknown one is >= k.
        return j * q - ((n - 1) * j - known) - max(0, j - eps)

    checks = [eps]
    if not _implies_full_next(M, full_leading, eps, sylvester_rank(M, eps, tol).rank):
        checks.append(eps + 1 if eps + 1 != top else top + 1)
    if any(sylvester_rank(M, j, tol).rank != implied(j) for j in checks):
        return None
    factored = sorted(j for j in {top, *checks} if j > k)
    return ranks + [implied(j) for j in range(k + 1, eps + 2)], factored


def _default_scan_cap(M: PolyMat) -> int:
    """The scan cap m*d + 2 when no ``k_max`` is given (see ``rank_profile``)."""
    return M.rows * M.degree_bound + 2


def _scan(
    M: PolyMat,
    k_max: int | None,
    rank_at: Callable[[int], int],
    jump: Callable[[list[int]], tuple[list[int], list[int]] | None] | None = None,
    start: int = 1,
    full_leading: bool = False,
) -> tuple[list[int], bool, list[int]]:
    """The rank scan shared by the floating-point and the exact profile: the
    ranks r_1, r_2, ..., whether the last increment is m, and the k whose
    S_k were measured, in increasing order.

    ``rank_at(k)`` is the rank of S_k.  The scan stops at the first
    increment m, and with ``full_leading`` (C_d of full row rank, which an
    exact full row rank of S_k proves) at the first S_k of full row rank,
    S_{d'}: r_{k+1} = (k+1+d)m is then implied (``_implies_full_next``).
    ``jump(ranks)``, called after each rank that does not stop the scan,
    may end it early with the whole rank list up to d'+1 and the k beyond
    the scanned ones it measured, or return None to go on.  The scan
    measures from k = ``start``, where S_k must be known to have full
    column rank kq when ``start`` > 1: the first jq columns of S_k are S_j
    padded with zero rows, so r_j = jq below it, an increment q > m that
    neither stops the scan nor calls ``jump``.
    """
    m, q = M.rows, M.cols
    cap = _block_count(k_max, "scan cap") if k_max is not None else _default_scan_cap(M)
    ranks = [k * q for k in range(1, start)]
    prev = (start - 1) * q
    for k in range(start, cap + 1):
        ranks.append(rank_at(k))
        if ranks[-1] - prev == m:
            return ranks, True, list(range(start, k + 1))
        if _implies_full_next(M, full_leading, k, ranks[-1]):
            return ranks + [(k + 1 + M.degree_bound) * m], True, list(range(start, k + 1))
        prev = ranks[-1]
        jumped = jump(ranks) if jump is not None else None
        if jumped is not None:
            return jumped[0], True, list(range(start, k + 1)) + jumped[1]
    return ranks, False, list(range(start, cap + 1))


def rank_profile(M: PolyMat, k_max: int | None = None, tol: float | None = None) -> RankProfile:
    """Scan Sylvester ranks r_1, r_2, ... until the increment drops to m.

    The first k with r_{k+1} - r_k == m is the largest right minimal index
    d'.  The default scan cap m*d + 2 suffices for every full-normal-rank
    input because the minimal-index sum is bounded by m*d.  If the increments
    stabilize below m instead, the matrix does not have full row normal rank
    and ``alphas`` is left empty.  A highest-row-degree matrix of full row
    rank implies full row normal rank, since M(lam) = diag(lam^d_i)(C_hr +
    O(1/lam)); only without it is the normal rank probed at two points.

    Without ``k_max``, and with a leading coefficient C_d of full row rank,
    the one or two full-Sylvester-rank tests run first, and the scan starts
    at the largest k whose test found S_k of full column rank kq (r_k = kq
    below it, see ``_scan``).  The scan stops at the first S_k of full row
    rank, which is S_{d'}, and implies r_{d'+1} (see
    ``_implies_full_next``): with the property, that is S_{k'}, and
    ``decisions`` hold only the decisive tests.  Once a single minimal
    index is left unknown, the index sum theorem may settle it from S_R
    (see ``_index_sum_jump``): the ranks in between are then implied, not
    factored.  ``decided_k`` names the S_k the profile rests on.  This
    profile is kept in M's memo, one per tolerance.  With ``k_max`` the
    plain scan runs from k = 1 and records a decision for every k.
    """
    if k_max is None:
        return memoized(M, "profile", tol, lambda: _float_scan(M, None, tol))
    return _float_scan(M, k_max, tol)


def _float_scan(M: PolyMat, k_max: int | None, tol: float | None) -> RankProfile:
    """The scan on rank decisions at ``tol``; the start past the S_k that the
    full-Sylvester-rank tests found of full column rank, and the jumps,
    only without a cap.  The normal rank is read as m when C_hr has full
    row rank, else from ``_evaluation_rank``."""
    _require_wide(M, "rank_profile", graded=True)
    m = M.rows
    full_leading = full_leading_rank(M, tol) is not None
    start, jump = 1, None
    if k_max is None:
        if full_leading:
            # Only the first decisive test can find full column rank: the
            # row test at k' has fewer rows than columns, unless t = 0 and
            # it is the only test.
            first = has_full_sylvester_rank(M, tol).checked_ranks[0]
            if first.rank == first.k * M.cols:
                start = first.k
        jump = lambda prefix: _index_sum_jump(M, tol, prefix, full_leading)  # noqa: E731
    ranks, stopped, measured = _scan(
        M, k_max, lambda k: sylvester_rank(M, k, tol).rank, jump, start,
        full_leading and k_max is None,
    )
    decisions = [sylvester_rank(M, k, tol) for k in measured]
    full_rows = full_leading or highest_row_degree_rank(M, tol).rank == m
    normal_rank = m if full_rows else _evaluation_rank(M, tol)
    return _profile(M, ranks, normal_rank, stopped, measured, decisions, tol)


def _indices_or_none(profile: RankProfile) -> list[int] | None:
    """Sorted multiset of the right minimal indices ``profile`` encodes, or
    None without full row normal rank (no d')."""
    if not profile.normal_rank_full or profile.d_prime is None:
        return None
    out: list[int] = []
    for j, count in enumerate(profile.alphas):
        if count < 0:
            raise NumericalInconsistencyError(
                f"negative index count alpha_{j} = {count}; rank decisions inconsistent"
            )
        out.extend([j] * count)
    return out


def right_minimal_indices(M: PolyMat, tol: float | None = None) -> list[int]:
    """Right minimal indices of a full-normal-rank wide polynomial matrix."""
    profile = rank_profile(M, tol=tol)
    indices = _indices_or_none(profile)
    if indices is None:
        raise NotFullNormalRankError(
            "profile does not certify full row normal rank",
            stabilized_rank=profile.stabilized_increment,
        )
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
    _require_wide(M, "certification", graded=True)
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


def _full_leading_certificate(M: PolyMat, tol: float | None, what: str) -> Certificate:
    """M's certificate when M is wide of grade >= 1 with a leading
    coefficient of full row rank, the one check of that hypothesis:
    ShapeError naming ``what`` for the shape first, then
    LeadingCoefficientError naming ``what``."""
    _require_wide(M, what, graded=True)
    if full_leading_rank(M, tol) is None:
        raise LeadingCoefficientError(
            f"{what} requires a full-rank leading coefficient -- "
            "certify_minimal_basis does not"
        )
    return certify_minimal_basis(M, tol)


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
    return _full_leading_certificate(M, tol, "certification")
