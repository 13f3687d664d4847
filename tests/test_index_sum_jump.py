"""The index-sum jump of ``rank_profile``: once one right minimal index is
left unknown, it is read off one Sylvester matrix.  Differential tests
against the forced scan and the exact oracle, counts of the S_k it factors,
and the convexity check that guards it."""

from dataclasses import replace

import numpy as np
import pytest

import minbasis as mb
from minbasis import minimal
from minbasis.minimal import RankProfile
from minbasis.polymat import PolyMat

from helpers import Call, LinalgSpy, planted_indices

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _forced(M: PolyMat, tol=None):
    """The plain scan to the default cap, on a fresh memo."""
    fresh = PolyMat(M.coeffs)
    return mb.rank_profile(fresh, k_max=fresh.rows * fresh.degree_bound + 2, tol=tol)


def _fields(p):
    return (p.ranks, p.nullities, p.alphas, p.d_prime, p.normal_rank_full, p.marginal)


def _with_finite_eigenvalue(M: PolyMat, delta: int) -> PolyMat:
    """(lam - 2)^delta times the first row of M: the right nullspace, hence
    the minimal indices, stay; the row degree sum grows by delta."""
    factor = np.array([1.0])
    for _ in range(delta):
        factor = np.convolve(factor, [-2.0, 1.0])  # ascending powers of lam
    coeffs = np.zeros((M.degree_bound + delta + 1, M.rows, M.cols))
    coeffs[: M.degree_bound + 1] = M.coeffs
    coeffs[:, 0, :] = np.stack([
        np.convolve(factor, M.coeffs[:, 0, c]) for c in range(M.cols)
    ], axis=1)
    return PolyMat(coeffs)


# A separate top index makes a unique largest index, where the jump fires,
# common; it still ties with or falls below the others at times.
INDEX_SETS = st.builds(
    lambda rest, top: rest + [top],
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.integers(0, 9),
).filter(lambda e: sum(e) > 0)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(indices=INDEX_SETS, seed=st.integers(0, 2**16))
@example(indices=[1, 1, 1, 1, 9], seed=1)  # one large index
@example(indices=[1, 3, 3], seed=2)  # a tie at the top
@example(indices=[0, 1, 4], seed=3)  # a zero index
@example(indices=[0, 0, 2], seed=4)
@example(indices=[2, 4, 4, 4, 9], seed=4)  # marginal, see the test below
@example(indices=[0, 3, 4, 2, 4, 8], seed=8885)  # only the forced scan's S_{d'+1} is marginal
def test_jump_profile_matches_the_forced_scan(indices, seed):
    M = planted_indices(tuple(indices), np.random.default_rng(seed))
    profile = mb.rank_profile(M)
    forced = _forced(M)
    assert _fields(profile)[:-1] == _fields(forced)[:-1]
    # The forced scan may measure S_{d'+1}, which the full-row-rank stop
    # implies, and only its own decisions can make it marginal.  Where both
    # scans measured an S_k they decide it alike.
    measured = dict(zip(forced.decided_k, forced.decisions))
    for k, dec in zip(profile.decided_k, profile.decisions):
        assert k not in measured or dec == measured[k]
    assert profile.marginal == (not minimal._convex(profile.ranks)
                                or any(dec.marginal for dec in profile.decisions))
    # A marginal profile may be wrong; it must only say so.
    if profile.marginal:
        return
    assert mb.right_minimal_indices(M) == sorted(indices)
    if M.rows * M.cols <= 200:  # desk size for the exact oracle
        exact = mb.exact_rank_profile(M)
        assert (exact.ranks, exact.d_prime, exact.normal_rank_full) == (
            profile.ranks, profile.d_prime, profile.normal_rank_full
        )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(indices=INDEX_SETS, seed=st.integers(0, 2**16), delta=st.integers(0, 2))
@example(indices=[1, 1, 1, 1, 9], seed=1, delta=0)  # the jump's eps = R
@example(indices=[0, 3, 3], seed=1, delta=0)  # the scan's own stop
@example(indices=[1, 2, 5], seed=5, delta=2)
def test_an_implied_last_rank_is_the_rank_the_forced_scan_measures(indices, seed, delta):
    # r_{d'+1} is left unmeasured only where S_{d'} and the leading
    # coefficient have full row rank; the forced scan then measures that
    # rank on S_{d'+1}, and a marginal S_{d'+1} only with a marginal S_{d'}.
    M = planted_indices(tuple(indices), np.random.default_rng(seed))
    if delta:
        M = _with_finite_eigenvalue(M, delta)
    profile = mb.rank_profile(M)
    dp = profile.d_prime
    if dp is None or dp + 1 in profile.decided_k:
        return
    assert profile.ranks[dp - 1] == (dp + M.degree_bound) * M.rows
    assert minimal.full_leading_rank(M) is not None
    forced = _forced(M)
    assert forced.ranks[dp] == profile.ranks[dp] == (dp + 1 + M.degree_bound) * M.rows
    assert not forced.decisions[dp].marginal or forced.decisions[dp - 1].marginal


def test_the_scan_stops_at_the_first_sylvester_matrix_of_full_row_rank(monkeypatch):
    # Indices (0, 3, 3), 6x9 of degree 1: the two largest indices tie, so the
    # jump never fires.  S_3 has full row rank 24, and so has C_1, so
    # r_4 = 30 follows without S_4.
    M = planted_indices((0, 3, 3), np.random.default_rng(1))
    spy = LinalgSpy(monkeypatch)
    profile = mb.rank_profile(M)
    assert sorted(c.key[1] for c in spy.take() if c.key is not None) == [1, 2, 3]
    assert (profile.ranks, profile.d_prime, profile.decided_k) == ((8, 16, 24, 30), 3, (1, 2, 3))
    assert _fields(profile) == _fields(_forced(M))


def test_a_wrong_rank_near_the_tolerance_is_flagged_marginal():
    # The 110th singular value of S_4 is 1.08e-11, just below its threshold
    # 1.22e-11 (gap ratio 3.5): S_4 gets rank 109 where the exact rank is
    # 110, and the indices come out [2, 3, 4, 5, 9].  Both the jump profile
    # and the forced scan make that error, and both report it as marginal.
    M = planted_indices((2, 4, 4, 4, 9), np.random.default_rng(4))
    profile = mb.rank_profile(M)
    assert profile.marginal and _forced(M).marginal
    assert mb.certify_minimal_basis(M).marginal


def test_jump_reads_the_last_index_off_one_sylvester_matrix(monkeypatch):
    # Indices (1, 1, 1, 1, 20): the scan measures S_1, S_2 and the
    # full-Sylvester-rank tests tried S_4, S_5; then R = 24 - 4 = 20, so
    # S_20 gives the last index.  It has full row rank, as does the leading
    # coefficient, so r_21 follows without S_21.  S_3, S_6 .. S_19 and S_21
    # are never factored.  S_20, 504x580, is wide enough that its singular
    # values are read off its banded R, built by 20 panel QRs.
    M = planted_indices((1, 1, 1, 1, 20), np.random.default_rng(7))
    spy = LinalgSpy(monkeypatch)
    cert = mb.certify_minimal_basis(M)
    calls = spy.take()
    ks = [c.key[1] for c in calls if c.kind == "svd" and c.key is not None]
    assert sorted(ks) == [1, 2, 4, 5, 20]
    assert [c for c in calls if c.kind == "qr"] == [Call("qr", (id(M), 20), "r")] * 20
    assert (cert.is_minimal_basis, cert.d_prime) == (True, 20)
    assert cert.profile.decided_k == (1, 2, 20)
    assert len(cert.profile.decisions) == 3
    assert len(cert.profile.ranks) == 21
    # The profile, both decisive tests and the probes are in M's memo.
    assert mb.rank_profile(M) is cert.profile
    assert mb.right_minimal_indices(M) == [1, 1, 1, 1, 20]
    report = mb.has_full_sylvester_rank(M)
    assert not report.has_full_sylvester_rank
    assert [c.k for c in report.checked_ranks] == [4, 5]
    assert mb.has_full_sylvester_rank(M) is report
    assert spy.take() == []


@pytest.mark.parametrize("indices,delta", [((1, 2, 5), 3), ((1, 1, 1, 1, 6), 2), ((0, 1, 3), 1)])
def test_finite_eigenvalues_keep_the_verdict_of_the_forced_scan(indices, delta, monkeypatch):
    # The finite eigenvalue 2 of degree delta makes the row degree sum exceed
    # the index sum, so R = eps + delta: the jump reads eps off S_{eps+delta}
    # and checks S_eps and S_{eps+1}; at delta = 1, S_{eps+1} is S_R, so it
    # checks S_{R+1} instead.
    M = _with_finite_eigenvalue(planted_indices(indices, np.random.default_rng(5)), delta)
    spy = LinalgSpy(monkeypatch)
    cert = mb.certify_minimal_basis(M)
    ks = {c.key[1] for c in spy.take() if c.key is not None}
    forced = _forced(M)
    assert (cert.is_minimal_basis, cert.reason) == (False, "degree_sum_mismatch")
    assert cert.d_prime == forced.d_prime == max(indices)
    assert cert.degree_sum_observed == minimal._minimal_index_sum(forced, M.rows) == sum(indices)
    assert _fields(cert.profile) == _fields(forced)
    eps = max(indices)
    assert {eps, eps + 1, eps + delta} <= ks
    assert (eps + delta + 1 in ks) == (delta == 1)
    assert set(cert.profile.decided_k) == ks


def _one_short_at(monkeypatch, k_short: int) -> None:
    """Make every rank decision of S_{k_short} one rank too low."""
    decide = minimal.sylvester_rank

    def one_short(P, k, tol=None):
        dec = decide(P, k, tol)
        return replace(dec, rank=dec.rank - 1, nullity=dec.nullity + 1) if k == k_short else dec

    monkeypatch.setattr(minimal, "sylvester_rank", one_short)


def test_a_miscounted_last_index_falls_back_to_the_scan(monkeypatch):
    # Indices (1, 2, 5) and a finite eigenvalue of degree 3: R = 11 - 3 = 8.
    # One rank too few on S_8 = S_R, which the scan never reaches, gives
    # eps = 4; r_4 cannot tell 4 from 5, but r_5 can, so the scan takes over
    # from S_4.
    M = _with_finite_eigenvalue(planted_indices((1, 2, 5), np.random.default_rng(5)), 3)
    _one_short_at(monkeypatch, 8)
    profile = mb.rank_profile(M)
    assert 8 in M._sylvester_memo  # the jump read the miscounted S_R
    assert _fields(profile) == _fields(_forced(M))
    assert profile.decided_k == (1, 2, 3, 4, 5, 6)
    assert len(profile.decisions) == len(profile.ranks) == 6


def test_an_index_one_too_small_next_to_the_source_is_caught_by_the_next_matrix(monkeypatch):
    # Indices (1, 2, 5) without finite eigenvalues: R = 8 - 3 = 5.  One rank
    # too few on S_5 = S_R gives eps = 4 = R - 1, so S_{eps+1} is the source
    # and agrees by construction; S_6 = S_{R+1} must catch it.
    M = planted_indices((1, 2, 5), np.random.default_rng(5))
    prefix = [minimal.sylvester_rank(M, k).rank for k in (1, 2, 3)]
    _one_short_at(monkeypatch, 5)
    spy = LinalgSpy(monkeypatch)
    assert minimal._index_sum_jump(M, None, prefix, True) is None
    assert sorted(c.key[1] for c in spy.take() if c.key is not None) == [4, 5, 6]
    # The scan then stops at the miscounted S_5, as the forced scan does, and
    # the decision it rests on cuts between two singular values far above the
    # threshold.
    profile = mb.rank_profile(M)
    assert _fields(profile) == _fields(_forced(M))
    assert profile.d_prime == 4 and profile.marginal


def test_a_miscounted_source_of_full_row_rank_leaves_a_marginal_profile(monkeypatch):
    # Indices (1, 1, 1, 1, 20): R = 20, and S_20 one rank short gives
    # eps = 19; S_21 refutes it, and the scan ends on the miscounted S_20.
    M = planted_indices((1, 1, 1, 1, 20), np.random.default_rng(7))
    _one_short_at(monkeypatch, 20)
    cert = mb.certify_minimal_basis(M)
    assert 21 in M._sylvester_memo
    assert cert.profile.marginal and cert.marginal
    assert cert.d_prime == 19


def test_non_convex_ranks_make_a_profile_marginal():
    # Increments 3, 4, 2: the second rank decision over-counts somewhere.
    base = dict(alphas=(), d_prime=None, normal_rank_full=True, stabilized_increment=None,
                decisions=(), decided_k=(), tolerance=None)
    bad = RankProfile(ranks=(3, 7, 9), nullities=(1, 1, 3), **base)
    good = RankProfile(ranks=(4, 7, 9), nullities=(0, 1, 3), **base)
    assert bad.marginal and not good.marginal


def test_jump_does_not_fire_on_a_non_convex_prefix(monkeypatch):
    # Indices (1, 2, 5), m = 8, q = 11: the true prefix r_1..r_3 = 11, 21, 30
    # has increments 11, 10, 9 and leaves one index unknown.  The same last
    # increment after a non-convex start is refused before any factorization.
    M = planted_indices((1, 2, 5), np.random.default_rng(2024))
    spy = LinalgSpy(monkeypatch)
    assert minimal._index_sum_jump(M, None, [9, 21, 30], True) is None
    assert spy.take() == []
    ranks = [11, 21, 30]
    assert minimal._index_sum_jump(M, None, ranks, True) == ([11, 21, 30, 39, 48, 56], [5])
    # S_5 = S_R factored; it has full row rank, so r_6 follows without S_6.
    assert ranks == [11, 21, 30]
