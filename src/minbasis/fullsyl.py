"""Full-Sylvester-rank detection, (k', t) arithmetic, and genericity sampling.

A wide polynomial matrix has full-Sylvester-rank when every Sylvester matrix
has full (row or column) rank.  At most two rank tests decide the property,
and matrices with it form a generic set: random coefficient sampling almost
always produces one, which this module exploits both as an experiment harness
and as a certified sampler for downstream perturbation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, PreconditionError
from .polymat import PolyMat, _block_count, _check_field
from .sylvester import (
    MARGINAL_GAP, _require_wide, clearance, memoized,
    singular_values, stacked_ranks, sylvester_array, sylvester_rank,
)

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
    _check_field(field)


def _draw(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    dist: str,
    field: str,
    zero_leading: bool,
) -> np.ndarray:
    """Coefficient stacks C_0 .. C_d drawn from ``rng``: one of ``shape``
    (d+1, rows, cols), or a batch of them for a leading batch axis.  Each
    complex stack draws its real part, then its imaginary part, so a batch
    of b stacks holds the next b single draws.  ``dist`` and ``field`` must
    already have passed ``_check_sampling``."""
    if dist == "gaussian":
        draw = rng.standard_normal
    else:
        draw = lambda size: rng.uniform(-1.0, 1.0, size)  # noqa: E731
    if field == "complex":
        parts = draw(shape[:-3] + (2,) + shape[-3:])
        arr = parts[..., 0, :, :, :] + 1j * parts[..., 1, :, :, :]
    else:
        arr = draw(shape)
    if zero_leading:
        arr[..., -1, :, :] = 0.0
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

    All trials draw from one ``np.random.default_rng(seed)``: trial i is the
    (i+1)-th coefficient stack, exactly the (i+1)-th ``sample_polymat`` call
    on that generator, so a seed gives the same results whatever the block
    size, and the first trials of a longer run equal a shorter run.  Trials
    are decided in blocks of at most ``BLOCK_BYTES`` of Sylvester matrices:
    one draw with a leading batch axis per block, then one batched SVD per
    decisive rank test, by the same rank decisions and margins as
    ``has_full_sylvester_rank`` on each trial's matrix.  ``zero_leading``
    constrains sampling to the degenerate stratum with vanishing leading
    coefficient, where the property is impossible.
    """
    trials = _block_count(trials, "trials")
    seed = _block_count(seed, "seed", least=0)
    _check_sampling(dist, field_tag)
    q = m + n
    plan = decisive_rank_tests(kprime_t(m, n, d), m, q, d)
    k_prime = plan[-1][0]
    itemsize = 16 if field_tag == "complex" else 8
    block = max(1, BLOCK_BYTES // ((k_prime + d) * m * k_prime * q * itemsize))
    rng = np.random.default_rng(seed)
    successes = 0
    failures: list[dict] = []
    min_margin = float("inf")
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        coeffs = _draw(rng, (stop - start, d + 1, m, q), dist, field_tag, zero_leading)
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
    field_tag: str = "real",
    tol: float | None = None,
) -> PolyMat:
    """Rejection-sample a certified full-Sylvester-rank Gaussian matrix.

    Attempt i draws from ``default_rng([seed, i])`` and is accepted when its
    decision margin is at least ``MARGINAL_GAP``: a passing decisive test's
    margin is its gap ratio, so the accepted sample has no decision that is
    marginal by gap, which keeps perturbation radii usable.  Fifty
    rejections signal suspicious dimensions or tolerance: RuntimeError.
    """
    seed = _block_count(seed, "seed", least=0)
    kprime_t(m, n, d)  # checks the counts before any draw
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        M = sample_polymat(rng, m, m + n, d, field=field_tag)
        report = has_full_sylvester_rank(M, tol)
        if report.has_full_sylvester_rank and report.margin >= MARGINAL_GAP:
            return M
    raise RuntimeError(
        f"no full-Sylvester-rank sample with margin >= {MARGINAL_GAP:g} in "
        f"50 draws for (m, n, d) = ({m}, {n}, {d})"
    )
