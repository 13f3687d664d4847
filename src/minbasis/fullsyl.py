"""Full-Sylvester-rank detection, (k', t) arithmetic, and genericity sampling.

A wide polynomial matrix has full-Sylvester-rank when every Sylvester matrix
has full (row or column) rank.  At most two rank tests decide the property,
and matrices with it form a generic set: random coefficient sampling almost
always produces one, which this module exploits both as an experiment harness
and as a certified sampler for downstream perturbation studies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, PreconditionError
from .polymat import PolyMat
from .sylvester import (
    MARGINAL_GAP, _block_count, _require_wide, clearance, memoized,
    singular_values, stacked_ranks, sylvester_array, sylvester_rank,
)

__all__ = [
    "KPrimeT",
    "RankCheck",
    "FullSylReport",
    "GenericityResult",
    "kprime_t",
    "has_full_sylvester_rank",
    "decisive_rank_tests",
    "predicted_minimal_indices",
    "genericity_experiment",
    "sample_full_sylvester",
    "sample_polymat",
]

# Bytes of Sylvester matrices that genericity_experiment holds at once.  A
# block of trials, decided by one batched SVD per rank test, holds this budget
# over the size of one S_k', so memory stays bounded for any trial count.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class KPrimeT:
    """The pair with n*k' = m*d + t and 0 <= t < n; k' = ceil(m*d/n)."""

    k_prime: int
    t: int


def kprime_t(m: int, n: int, d: int) -> KPrimeT:
    """(k', t) of an m x (m+n) matrix of grade d.  Raises ShapeError unless
    m, n and d are positive integers."""
    m, n, d = (_block_count(v, name) for v, name in ((m, "m"), (n, "n"), (d, "d")))
    k_prime = -(-m * d // n)
    t = n * k_prime - m * d
    return KPrimeT(k_prime=k_prime, t=t)


@dataclass(frozen=True)
class RankCheck:
    """One decisive rank test: the measured rank of S_k and the full rank it
    needs, kq for a ``column`` test or (k+d)m for a ``row`` test."""

    k: int
    rank: int
    required: int
    kind: str  # "column" or "row"


@dataclass(frozen=True)
class FullSylReport:
    """The verdict of ``has_full_sylvester_rank`` with its decisive tests.

    ``predicted_indices`` are the right minimal indices the property forces;
    ``margin`` is the smallest clearance sigma_required / tau over the tests.
    """

    has_full_sylvester_rank: bool
    k_prime_t: KPrimeT
    checked_ranks: tuple[RankCheck, ...]
    predicted_indices: tuple[int, ...]
    margin: float
    tolerance_used: float


def predicted_minimal_indices(m: int, n: int, d: int) -> list[int]:
    """Right minimal indices forced by full-Sylvester-rank: t copies of k'-1
    and n-t copies of k'."""
    kt = kprime_t(m, n, d)
    return [kt.k_prime - 1] * kt.t + [kt.k_prime] * (n - kt.t)


def decisive_rank_tests(kt: KPrimeT, m: int, q: int, d: int) -> list[tuple[int, int, str]]:
    """The rank tests that decide the property, in order, as (k, required
    rank, kind): full column rank of the (k'-1)-th Sylvester matrix when
    k' > 1 and t > 0, then full row rank of the k'-th one."""
    plan = []
    if kt.k_prime > 1 and kt.t > 0:
        plan.append((kt.k_prime - 1, (kt.k_prime - 1) * q, "column"))
    plan.append((kt.k_prime, (kt.k_prime + d) * m, "row"))
    return plan


def has_full_sylvester_rank(M: PolyMat, tol: float | None = None) -> FullSylReport:
    """Decide the property with the minimal set of rank tests (see
    ``decisive_rank_tests``); both tests are reported even when the first
    fails.  The report is kept in M's memo, one per tolerance."""
    return memoized(M, "fullsyl", tol, lambda: _property_report(M, tol))


def _require_full_sylvester(M: PolyMat, tol: float | None, what: str) -> FullSylReport:
    """M's ``has_full_sylvester_rank`` report, or PreconditionError naming
    ``what`` when M lacks the property: the one check of that hypothesis."""
    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        raise PreconditionError(f"{what} requires a full-Sylvester-rank input")
    return report


def _property_report(M: PolyMat, tol: float | None) -> FullSylReport:
    _require_wide(M, "property", graded=True)
    m, q, d = M.rows, M.cols, M.degree_bound
    n = q - m
    kt = kprime_t(m, n, d)

    checks = []
    margin = float("inf")
    tol_used = 0.0
    ok = True
    for k, required, kind in decisive_rank_tests(kt, m, q, d):
        dec = sylvester_rank(M, k, tol)
        checks.append(RankCheck(k=k, rank=dec.rank, required=required, kind=kind))
        tol_used = max(tol_used, dec.tolerance_used)
        margin = min(margin, clearance(dec.singular_values[required - 1], dec.tolerance_used))
        if dec.rank != required:
            ok = False
    return FullSylReport(
        has_full_sylvester_rank=ok,
        k_prime_t=kt,
        checked_ranks=tuple(checks),
        predicted_indices=tuple(predicted_minimal_indices(m, n, d)),
        margin=float(margin),
        tolerance_used=tol_used,
    )


# -- random sampling -------------------------------------------------------------


def _check_sampling(dist: str, field: str) -> None:
    if dist not in ("gaussian", "uniform"):
        raise InputFormatError(f"unknown distribution {dist!r}")
    if field not in ("real", "complex"):
        raise InputFormatError(f"unknown field tag {field!r}")


def _draw(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    dist: str,
    field: str,
    zero_leading: bool,
) -> np.ndarray:
    """One coefficient stack C_0 .. C_d, drawn from ``rng``; ``dist`` and
    ``field`` must already have passed ``_check_sampling``."""
    if dist == "gaussian":
        draw = lambda: rng.standard_normal(shape)  # noqa: E731
    else:
        draw = lambda: rng.uniform(-1.0, 1.0, shape)  # noqa: E731
    arr = draw() + 1j * draw() if field == "complex" else draw()
    if zero_leading:
        arr[-1] = 0.0
    return arr


def sample_polymat(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    degree_bound: int,
    dist: str = "gaussian",
    field: str = "real",
    zero_leading: bool = False,
) -> PolyMat:
    """Draw i.i.d. coefficient entries; complex samples re/im independently."""
    _check_sampling(dist, field)
    return PolyMat(_draw(rng, (degree_bound + 1, rows, cols), dist, field, zero_leading))


# -- per-trial streams -----------------------------------------------------------
#
# Trial i of genericity_experiment draws from the stream of
# np.random.default_rng([seed, i]).  Constructing that SeedSequence and PCG64
# for every trial is a large share of a small trial's cost, so _pcg64_states
# builds the same PCG64 states for a range of trials at once: NumPy's
# SeedSequence hash in uint32 array arithmetic (numpy/random/bit_generator.pyx),
# then PCG64's 128-bit seeding step with Python ints (numpy/random/_pcg64.pyx,
# numpy/random/src/pcg64/pcg64.c and pcg64.h).

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# bit_generator.pyx: DEFAULT_POOL_SIZE, the words of SeedSequence.pool.
_POOL_SIZE = 4
# bit_generator.pyx: INIT_A and MULT_A, the hash constant of hashmix() in
# SeedSequence.mix_entropy.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
# bit_generator.pyx: INIT_B and MULT_B, the hash constant of
# SeedSequence.generate_state.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
# bit_generator.pyx: MIX_MULT_L and MIX_MULT_R of mix().
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
# bit_generator.pyx: XSHIFT = 4 * 8 // 2, half the bits of a uint32.
_XSHIFT = np.uint32(16)
# pcg64.h: PCG_DEFAULT_MULTIPLIER_128, the LCG multiplier of
# pcg_setseq_128_step_r.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Bytes of generated state per trial: PCG64 seeds from generate_state(4, uint64).
_STATE_BYTES = 32


def _hash_values(init: int, mult: int, steps: int) -> list[int]:
    """The values init * mult**j (mod 2**32), j = 0 .. steps, that a
    SeedSequence hash constant takes: hash step j xors with value j and
    multiplies by value j + 1."""
    return [init * pow(mult, j, 1 << 32) & _MASK32 for j in range(steps + 1)]


def _step_columns(values: list[int], steps) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) uint32 columns of hash steps ``steps``, one per
    row; a step of None gives a row of zeros."""
    xor = [0 if j is None else values[j] for j in steps]
    mul = [0 if j is None else values[j + 1] for j in steps]
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# mix_entropy's first two loops take POOL_SIZE + POOL_SIZE * (POOL_SIZE - 1)
# hash steps.
_HASH_A = _hash_values(_INIT_A, _MULT_A, _POOL_SIZE**2)
# mix_entropy's first loop hashes entropy word j into pool word j at step j.
_POOL_STEPS = _step_columns(_HASH_A, range(_POOL_SIZE))
# Its second loop mixes pool word src into every other word dst, one step per
# (src, dst) in order; row src keeps its word and takes no step.
_CROSS_STEPS = [
    _step_columns(_HASH_A, [
        None if dst == src else _POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst > src)
        for dst in range(_POOL_SIZE)
    ])
    for src in range(_POOL_SIZE)
]
# generate_state(4, uint64) cycles through the pool for 8 uint32 words.
_OUTPUT_STEPS = _step_columns(
    _hash_values(_INIT_B, _MULT_B, 2 * _POOL_SIZE), range(2 * _POOL_SIZE)
)


def _hash(values: np.ndarray, columns: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """hashmix() of bit_generator.pyx, one hash step per row of the
    ``_step_columns`` pair ``columns``."""
    xor, mul = columns
    out = (values ^ xor) * mul
    return out ^ (out >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mix() of bit_generator.pyx."""
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(entropy) for a column of
    trials at once: ``entropy`` holds one uint32 array per entropy word,
    each of length 1 (a word shared by all trials) or of the column's
    length.  Returns the four uint64 words as rows."""
    n = max(len(word) for word in entropy)
    entropy = entropy + [np.zeros(1, np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = _hash(np.stack([np.broadcast_to(w, n) for w in entropy[:_POOL_SIZE]]), _POOL_STEPS)
    for src, columns in enumerate(_CROSS_STEPS):
        mixed = _mix(pool, _hash(pool[src], columns))
        mixed[src] = pool[src]  # mixed into the others only
        pool = mixed
    # The third loop mixes each remaining entropy word into the whole pool.
    extra = len(entropy) - _POOL_SIZE
    if extra:
        values = _hash_values(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
        for i, word in enumerate(entropy[_POOL_SIZE:]):
            first = _POOL_SIZE * (_POOL_SIZE + i)
            pool = _mix(pool, _hash(word, _step_columns(values, range(first, first + _POOL_SIZE))))
    # The 8 output words, read as little-endian pairs of uint64 words.
    words = _hash(np.concatenate((pool, pool)), _OUTPUT_STEPS).astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def _uint32_words(n: int) -> list[int]:
    """bit_generator.pyx _int_to_uint32_array: n's 32-bit words, least
    significant first, and [0] for zero."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed: int, start: int, stop: int):
    """Yield, for trials start .. stop-1, the state dict of
    ``np.random.default_rng([seed, trial]).bit_generator``.

    ``seed`` and the trials must be non-negative ints.  The hash runs over
    chunks of at most ``BLOCK_BYTES`` of state words, split where a trial
    index gains a 32-bit word, so memory stays bounded for any range.
    """
    seed_words = [np.array([w], np.uint32) for w in _uint32_words(seed)]
    chunk = max(1, BLOCK_BYTES // _STATE_BYTES)
    lo = start
    while lo < stop:
        # Within [lo, hi) only the lowest word of the trial index varies.
        hi = min(stop, lo + chunk, (lo | _MASK32) + 1)
        low = np.arange(lo & _MASK32, (lo & _MASK32) + (hi - lo), dtype=np.uint32)
        high = [np.array([w], np.uint32) for w in _uint32_words(lo >> 32)] if lo >> 32 else []
        # pcg64_set_seed reads the four words as (high, low) pairs of the
        # 128-bit initstate and initseq.
        words = _seed_words(seed_words + [low] + high).tolist()
        for state_hi, state_lo, seq_hi, seq_lo in zip(*words):
            # pcg_setseq_128_srandom_r(initstate, initseq): state = 0,
            # inc = 2*initseq + 1, step, add initstate, step.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = (((state_hi << 64 | state_lo) + inc) * _PCG_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}
        lo = hi


@dataclass(frozen=True)
class GenericityResult:
    """Empirical full-Sylvester-rank frequency under random coefficient draws."""

    m: int
    n: int
    d: int
    trials: int
    seed: int
    dist: str
    successes: int
    failures: tuple[dict, ...]
    min_margin: float
    zero_leading: bool = field(default=False)


def genericity_experiment(
    m: int,
    n: int,
    d: int,
    trials: int,
    seed: int,
    dist: str = "gaussian",
    field_tag: str = "real",
    zero_leading: bool = False,
    tol: float | None = None,
) -> GenericityResult:
    """Monte Carlo frequency of the full-Sylvester-rank property.

    Trial i draws from its own stream, exactly that of
    ``np.random.default_rng([seed, i])``, so results do not depend on
    execution order or on the trial count.  The streams' PCG64 states are
    built in bulk and loaded in turn into one generator, which draws the
    same numbers without a SeedSequence and a PCG64 per trial.  Trials are
    decided in blocks of at most ``BLOCK_BYTES`` of Sylvester matrices, with
    one batched SVD per decisive rank test, by the same rank decisions and
    margins as ``has_full_sylvester_rank`` on each trial's matrix.
    ``zero_leading`` constrains sampling to the degenerate stratum with
    vanishing leading coefficient, where the property is impossible.
    """
    trials = _block_count(trials, "trials")
    seed = _block_count(seed, "seed", least=0)
    _check_sampling(dist, field_tag)
    q = m + n
    plan = decisive_rank_tests(kprime_t(m, n, d), m, q, d)
    k_prime = plan[-1][0]
    itemsize = 16 if field_tag == "complex" else 8
    block = max(1, BLOCK_BYTES // ((k_prime + d) * m * k_prime * q * itemsize))
    # One generator, reset to each trial's state before its draw; PCG64(0)
    # only gives it a state to overwrite.
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    states = _pcg64_states(seed, 0, trials)
    successes = 0
    failures: list[dict] = []
    min_margin = float("inf")
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        draws = []
        for state in itertools.islice(states, stop - start):
            bit_generator.state = state
            draws.append(_draw(rng, (d + 1, m, q), dist, field_tag, zero_leading))
        coeffs = np.stack(draws)
        # The same decisive tests and margins as has_full_sylvester_rank, for
        # the whole block at once.
        ok = np.ones(stop - start, dtype=bool)
        margin = np.full(stop - start, np.inf)
        for k, required, _ in plan:
            sv = singular_values(sylvester_array(coeffs, k))
            ranks, tau, _ = stacked_ranks(sv, ((k + d) * m, k * q), tol)
            ok &= ranks == required
            margin = np.minimum(margin, clearance(sv[:, required - 1], tau))
        successes += int(ok.sum())
        min_margin = min(min_margin, float(margin.min()))
        failures.extend(
            {"trial": start + int(i), "margin": float(margin[i])}
            for i in np.flatnonzero(~ok)
        )
    return GenericityResult(
        m=m,
        n=n,
        d=d,
        trials=trials,
        seed=seed,
        dist=dist,
        successes=successes,
        failures=tuple(failures),
        min_margin=float(min_margin),
        zero_leading=zero_leading,
    )


def sample_full_sylvester(
    m: int,
    n: int,
    d: int,
    seed: int,
    dist: str = "gaussian",
    field_tag: str = "real",
    min_margin: float = MARGINAL_GAP,
    max_rejects: int = 50,
    tol: float | None = None,
) -> PolyMat:
    """Rejection-sample a certified full-Sylvester-rank matrix.

    Accepts only samples whose decision margin is at least ``min_margin``;
    repeated rejection signals suspicious dimensions or tolerance.  A passing
    decisive test's margin is its gap ratio, so the default ``MARGINAL_GAP``
    accepts exactly the samples whose decisions are not marginal by gap,
    which keeps perturbation radii usable.
    """
    max_rejects = _block_count(max_rejects, "max_rejects")
    seed = _block_count(seed, "seed", least=0)
    kprime_t(m, n, d)  # checks the counts before any draw
    if not math.isfinite(min_margin):
        raise InputFormatError(f"min_margin must be a finite number, got {min_margin!r}")
    for attempt in range(max_rejects):
        rng = np.random.default_rng([seed, attempt])
        M = sample_polymat(rng, m, m + n, d, dist=dist, field=field_tag)
        report = has_full_sylvester_rank(M, tol)
        if report.has_full_sylvester_rank and report.margin >= min_margin:
            return M
    raise RuntimeError(
        f"no full-Sylvester-rank sample with margin >= {min_margin:g} in "
        f"{max_rejects} draws for (m, n, d) = ({m}, {n}, {d})"
    )
