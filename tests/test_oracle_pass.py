"""The exact profile in one modular pass: differential tests against the
per-k profile (``helpers.per_k_exact_profile``), the stop at the first S_k of
full row rank, the p-adic lift of an event that the batch cannot lift, the
pass under a bad prime and a bad batch, and the dyadic integer coefficients
against their Fractions."""

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import minbasis as mb
from minbasis import minimal, oracle
from minbasis.polymat import PolyMat

from helpers import (
    common_factor_2x4,
    example1,
    example2,
    example3,
    fraction_coeffs,
    near_common_factor,
    per_k_exact_profile,
    planted_indices,
    raised_first_row,
)

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# The reference kernel's first prime and the pass's first prime.
KERNEL_PRIME = next(oracle._primes(2**31))
PASS_PRIME = oracle._PASS_PRIMES[0]


def _stops_at_full_row_rank(M: PolyMat, reference, k_max=None) -> bool:
    """Whether the one-pass profile stops at d' without measuring S_{d'+1}:
    no cap, and S_{d'} of full row rank (k+d)m in the per-k reference."""
    dp = reference.d_prime
    return k_max is None and bool(dp) and reference.ranks[dp - 1] == (dp + M.degree_bound) * M.rows


def _expected(M: PolyMat, reference, k_max=None):
    """The per-k reference as the one-pass profile gives it: every field
    equal, ``decided_k`` without its last k when the pass stops at d'."""
    if _stops_at_full_row_rank(M, reference, k_max):
        return dataclasses.replace(reference, decided_k=reference.decided_k[:-1])
    return reference


def _assert_same_profile(M: PolyMat, k_max=None):
    reference = per_k_exact_profile(M, k_max)
    assert oracle.exact_rank_profile(M, k_max) == _expected(M, reference, k_max)


def _scaled_row(M: PolyMat, factor) -> PolyMat:
    coeffs = M.coeffs.copy()
    coeffs[:, 0, :] *= factor
    return PolyMat(coeffs)


def _oracle_test_inputs():
    """Every matrix whose exact profile tests/test_oracle.py takes."""
    yield "example1", example1()
    yield "example2", example2()
    yield "example3", example3()
    yield "planted_1_2_5", planted_indices((1, 2, 5), np.random.default_rng(1))
    yield "near_common_factor", near_common_factor()
    rng = np.random.default_rng(13)
    for i in range(10):
        m, n, d = (int(x) for x in (rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 3)))
        coeffs = rng.integers(-4, 5, size=(d + 1, m, m + n)).astype(float)
        yield f"random_integers_{i}", PolyMat(coeffs)
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    C1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    C2 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    yield "rank_deficient", PolyMat.from_coeff_list([C0, C1, C2])
    yield "row_times_kernel_prime", _scaled_row(
        planted_indices((1, 2), np.random.default_rng(17)), KERNEL_PRIME)
    yield "12x17", planted_indices((1, 1, 1, 1, 8), np.random.default_rng(0))
    yield "24x29", planted_indices((1, 1, 1, 1, 20), np.random.default_rng(7))


@pytest.mark.parametrize("M", [M for _, M in _oracle_test_inputs()],
                         ids=[label for label, _ in _oracle_test_inputs()])
def test_one_pass_equals_the_per_k_profile_on_the_oracle_test_inputs(M):
    _assert_same_profile(M)


def test_one_pass_equals_the_per_k_profile_under_a_scan_cap():
    M = planted_indices((0, 1, 3), np.random.default_rng(2))
    for k_max in (1, 2, 3):
        _assert_same_profile(M, k_max)


def _scan_oracle_inputs(seed, directory):
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks import inputs
    finally:
        sys.path.remove(str(ROOT))
    return [x for x in inputs.scan_inputs(seed, directory) if x.oracle]


@pytest.mark.parametrize("seed", range(1, 11))
def test_one_pass_settles_the_structured_scan_inputs_alone(seed, tmp_path, monkeypatch):
    # The six oracle inputs of the structured_scan benchmark: the first batch
    # proves every rank and the normal rank, and lifts every event's null
    # vector from its own residues, so the pass never restarts and no event
    # needs the p-adic lift.
    reference = {}
    scan = _scan_oracle_inputs(seed, tmp_path)
    assert len(scan) == 6
    for x in scan:
        M = PolyMat(x.coeffs)
        reference[x.label] = _expected(M, per_k_exact_profile(M))

    def no_fallback(*args):
        raise AssertionError("fallback ran")

    monkeypatch.setattr(oracle, "_dixon", no_fallback)
    monkeypatch.setattr(oracle._ModularPass, "_restart", no_fallback)
    for x in scan:
        assert oracle.exact_rank_profile(PolyMat(x.coeffs)) == reference[x.label], x.label


@pytest.mark.parametrize("indices", [(0, 1, 3), (1, 2, 5), (2, 2), (0, 0, 2)])
def test_the_proven_events_are_the_minimal_indices(indices):
    # A new dependent position in block b is a minimal index b, and its
    # lifted null vector holds over Z.
    M = planted_indices(indices, np.random.default_rng(3))
    sweep = oracle._ModularPass(oracle._integer_coeffs(M))
    for _ in range(max(indices) + 1):
        sweep.extend()
    assert sorted(sweep.proven()) == sorted(indices)


def _common_factor(M: PolyMat, root: int) -> PolyMat:
    """(lam - root) M: every row vanishes at lam = root."""
    grade = M.degree_bound + 1
    out = np.zeros((grade + 1, M.rows, M.cols))
    out[1:] += M.coeffs
    out[:grade] -= root * M.coeffs
    return PolyMat(out)


def _raise_first_row(M: PolyMat) -> PolyMat:
    """(I + lam e_1 e_2^T) M: the same nullspace, a rank-deficient
    highest-row-degree matrix."""
    out = np.zeros((M.degree_bound + 2, M.rows, M.cols))
    out[:-1] = M.coeffs
    out[1:, 0, :] += M.coeffs[:, 1, :]
    return PolyMat(out)


def _wide_first_row(M: PolyMat) -> PolyMat:
    """Row 0 of C_i times 2^(80 i): exact floats, integer rows past 2^63."""
    coeffs = M.coeffs.copy()
    coeffs[:, 0, :] *= 2.0 ** (80 * np.arange(M.degree_bound + 1))[:, None]
    return PolyMat(coeffs)


VARIANTS = {
    "planted": lambda M, rng: M,
    "common_factor": lambda M, rng: _common_factor(M, int(rng.integers(-2, 3))),
    "duplicate_row": lambda M, rng: PolyMat(np.concatenate([M.coeffs, M.coeffs[:, :1]], axis=1)),
    "hr_deficient": lambda M, rng: _raise_first_row(M) if M.rows > 1 else M,
    "row_times_pass_prime": lambda M, rng: _scaled_row(M, PASS_PRIME),
    "row_times_kernel_prime": lambda M, rng: _scaled_row(M, KERNEL_PRIME),
    "wide_row": lambda M, rng: _wide_first_row(M),
    "noisy": lambda M, rng: PolyMat(M.coeffs + 1e-9 * rng.standard_normal(M.coeffs.shape)),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    indices=st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(lambda e: sum(e) >= 1),
    variant=st.sampled_from(sorted(VARIANTS)),
    seed=st.integers(0, 2**16),
)
def test_one_pass_equals_the_per_k_profile_on_planted_structure(indices, variant, seed):
    rng = np.random.default_rng(seed)
    M = VARIANTS[variant](planted_indices(indices, rng), rng)
    if M.is_wide:
        _assert_same_profile(M)


def _spy_pass(monkeypatch) -> dict:
    """The blocks the pass extends, the degree of each event whose null
    vector it lifts, and its calls of ``point_rank``, as the profile runs."""
    calls = {"blocks": 0, "lifted": [], "point_rank": 0}
    pass_ = oracle._ModularPass
    extend, verify, point_rank = pass_.extend, pass_._verify, pass_.point_rank

    def spy_extend(self):
        calls["blocks"] += 1
        extend(self)

    def spy_verify(self, event):
        calls["lifted"].append(event[0])
        return verify(self, event)

    def spy_point_rank(self, lam):
        calls["point_rank"] += 1
        return point_rank(self, lam)

    monkeypatch.setattr(pass_, "extend", spy_extend)
    monkeypatch.setattr(pass_, "_verify", spy_verify)
    monkeypatch.setattr(pass_, "point_rank", spy_point_rank)
    return calls


STOPPING = {
    "planted_0_1_3": lambda: planted_indices((0, 1, 3), np.random.default_rng(2)),
    "near_common_factor": near_common_factor,
    "full_sylvester_4_3_2": lambda: mb.sample_full_sylvester(4, 3, 2, seed=1),
}


@pytest.mark.parametrize("make", STOPPING.values(), ids=STOPPING.keys())
def test_the_pass_stops_at_the_first_full_row_rank_s_k(make, monkeypatch):
    # S_{d'} of full row rank (k+d)m proves C_d of full row rank, so r_{d'+1}
    # and the full normal rank follow: the pass extends d' blocks, never the
    # block of the degree-d' events, and evaluates M at no point.
    M = make()
    reference = per_k_exact_profile(M)
    assert _stops_at_full_row_rank(M, reference)
    calls = _spy_pass(monkeypatch)
    profile = oracle.exact_rank_profile(M)
    dp = profile.d_prime
    assert profile == _expected(M, reference)
    assert profile.decided_k == tuple(range(1, dp + 1))
    assert calls["blocks"] == dp
    assert dp not in calls["lifted"]
    assert calls["point_rank"] == 0


NOT_STOPPING = {
    "common_factor_2x4": common_factor_2x4,
    "hr_deficient": lambda: raised_first_row(planted_indices((1, 2), np.random.default_rng(5))),
    "duplicate_row": lambda: VARIANTS["duplicate_row"](
        planted_indices((1, 2), np.random.default_rng(5)), None),
}


@pytest.mark.parametrize("make", NOT_STOPPING.values(), ids=NOT_STOPPING.keys())
def test_without_a_full_row_rank_s_k_the_pass_runs_as_the_capped_scan(make, monkeypatch):
    # No S_k has full row rank, so the stop never fires: the profile, every
    # k included, is the per-k reference, and the pass takes the same blocks,
    # lifts and points as the scan with the default cap, which has no stop.
    M = make()
    reference = per_k_exact_profile(M)
    assert not _stops_at_full_row_rank(M, reference)
    calls = _spy_pass(monkeypatch)
    assert oracle.exact_rank_profile(M) == reference
    uncapped = dict(calls, lifted=list(calls["lifted"]))
    calls.update(blocks=0, lifted=[], point_rank=0)
    assert oracle.exact_rank_profile(M, minimal._default_scan_cap(M)) == reference
    assert calls == uncapped
    assert calls["point_rank"] > 0


def _count_restarts(monkeypatch) -> list[tuple[int, ...]]:
    """The batch of each restart of the pass, in order."""
    restarts = []
    restart = oracle._ModularPass._restart
    monkeypatch.setattr(oracle._ModularPass, "_restart",
                        lambda self: restarts.append(self.primes) or restart(self))
    return restarts


@pytest.mark.parametrize("batch", ["bad_first", "bad_alone"])
def test_a_bad_prime_in_the_batch_still_gives_the_proven_profile(batch, monkeypatch):
    # Row 0 times a prime p: modulo p, every S_k and M(lam) lose rank.  With
    # good primes beside it, p disagrees with them at its first wrong pivot;
    # alone, it proves nothing.  Either way the pass starts over once, with
    # the primes below p.
    bad = next(itertools.islice(oracle._primes(2**26), 5, None))
    M = _scaled_row(planted_indices((1, 2, 5), np.random.default_rng(1)), bad)
    reference = _expected(M, per_k_exact_profile(M))
    assert reference.alphas == (0, 1, 1, 0, 0, 1)
    primes = (bad,) + oracle._PASS_PRIMES[:2] if batch == "bad_first" else (bad,)
    monkeypatch.setattr(oracle, "_PASS_PRIMES", primes)
    restarts = _count_restarts(monkeypatch)
    assert oracle.exact_rank_profile(M) == reference
    assert restarts == [primes]
    # Beside good primes, the bad one restarts the pass in the first block.
    sweep = oracle._ModularPass(oracle._integer_coeffs(M))
    sweep.extend()
    assert sweep.blocks == (0 if batch == "bad_first" else 1)


def test_a_row_divisible_by_the_whole_batch_restarts_the_pass_once(monkeypatch):
    # Row 0 of the integer stack times the product of the batch's primes (no
    # float holds such a row, so the stack is scaled after conversion): every
    # prime of the batch undercounts the rank of S_1, no event of that batch
    # holds over Z, and the next three primes prove the profile.
    M = planted_indices((1, 2, 5), np.random.default_rng(1))
    reference = _expected(M, per_k_exact_profile(M))
    convert = oracle._integer_coeffs

    def scaled(M):
        Z = convert(M).astype(object)
        Z[:, 0, :] *= math.prod(oracle._PASS_PRIMES)
        return Z

    monkeypatch.setattr(oracle, "_integer_coeffs", scaled)
    restarts = _count_restarts(monkeypatch)
    assert oracle.exact_rank_profile(M) == reference
    assert restarts == [oracle._PASS_PRIMES]


def test_the_dixon_lift_proves_the_event_the_batch_cannot_lift(monkeypatch):
    # Planted (1,1,1,10,20) at 33x38: the null vector of the degree-10 index
    # needs more than the batch's 78 bits, so its CRT lift fails and the
    # p-adic lift proves it; every other event lifts from the batch.
    M = planted_indices((1, 1, 1, 10, 20), np.random.default_rng(0))
    lifts = []
    dixon = oracle._dixon
    monkeypatch.setattr(oracle, "_dixon",
                        lambda A, p: lifts.append(A.shape) or dixon(A, p))
    sweep = oracle._ModularPass(oracle._integer_coeffs(M))
    for _ in range(11):
        sweep.extend()
    assert sorted(sweep.proven()) == [1, 1, 1, 10]
    assert lifts == [(396, 388)]  # the rows of S_11, 387 independent columns and the event
    lifts.clear()
    restarts = _count_restarts(monkeypatch)
    _assert_same_profile(M)
    assert len(lifts) == 1
    assert restarts == []


def _dyadic_corpus():
    """Float stacks of shape (grade, rows, cols): zeros of both signs,
    subnormals, integers, and exponents spread over 1e-300 .. 1e300 within a
    row, so that both int64 and Python-int results occur."""
    rng = np.random.default_rng(31)
    for i in range(60):
        shape = tuple(int(x) for x in rng.integers(1, 5, size=3))
        kind = i % 5
        if kind == 0:
            A = rng.integers(-9, 10, size=shape).astype(float)
        elif kind == 1:
            A = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30, size=shape)
        elif kind == 2:
            A = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        elif kind == 3:
            A = rng.integers(-5, 6, size=shape) * 5e-324
        else:
            A = rng.standard_normal(shape) * 2.0 ** rng.integers(-1074, 1000, size=shape)
        A[rng.random(shape) < 0.3] = 0.0
        A[rng.random(shape) < 0.1] = -0.0
        yield A
    # Both sides of the int64 boundary: row scale 2^62 on 1 and on 3, and a
    # 53-bit odd mantissa shifted to 63 and to 64 bits.
    for row in ([1.0, 2.0**-62], [3.0, 2.0**-62], [(2.0**53 - 1) * 2**10, 1.0],
                [(2.0**53 - 1) * 2**11, 1.0], [-(2.0**63), 1.0], [2.0**1023, 5e-324]):
        yield np.array([[row]])


@pytest.mark.parametrize("A", list(_dyadic_corpus()))
def test_integer_coeffs_equal_the_scaled_fractions(A):
    M = PolyMat(A)
    Z = oracle._integer_coeffs(M)
    reference = oracle._compact(oracle._integer_rows(fraction_coeffs(M)))
    assert Z.dtype == reference.dtype
    assert Z.shape == reference.shape
    assert Z.tolist() == reference.tolist()
    if Z.dtype == object:
        assert all(type(x) is int for x in Z.flat)


def test_integer_coeffs_take_both_sides_of_the_int64_boundary():
    dtypes = [oracle._integer_coeffs(PolyMat(A)).dtype for A in list(_dyadic_corpus())[-6:]]
    assert dtypes == [np.int64, object, np.int64, object, object, object]

