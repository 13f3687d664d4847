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

from .errors import PreconditionError, PropertyViolationError, ShapeError
from .polymat import PolyMat
from .sylvester import sylvester_rank

__all__ = [
    "KPrimeT",
    "RankCheck",
    "FullSylReport",
    "GenericityResult",
    "kprime_t",
    "has_full_sylvester_rank",
    "decisive_rank_tests",
    "predicted_minimal_indices",
    "index_sum_check",
    "genericity_experiment",
    "sample_full_sylvester",
    "sample_polymat",
]

# Rejection sampling keeps only samples whose smallest decisive singular value
# clears the rank tolerance by this factor, so perturbation radii stay usable.
SAMPLE_MARGIN = 1e3


@dataclass(frozen=True)
class KPrimeT:
    """The pair with n*k' = m*d + t and 0 <= t < n; k' = ceil(m*d/n)."""

    k_prime: int
    t: int


def kprime_t(m: int, n: int, d: int) -> KPrimeT:
    if min(m, n, d) < 1:
        raise ShapeError(f"dimensions and grade must be positive, got ({m}, {n}, {d})")
    k_prime = -(-m * d // n)
    t = n * k_prime - m * d
    return KPrimeT(k_prime=k_prime, t=t)


@dataclass(frozen=True)
class RankCheck:
    k: int
    rank: int
    required: int
    kind: str  # "column" or "row"


@dataclass(frozen=True)
class FullSylReport:
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
    fails."""
    m, q, d = M.rows, M.cols, M.degree_bound
    if m >= q:
        raise ShapeError(f"property requires a wide matrix, got {m}x{q}")
    if d < 1:
        raise ShapeError("property requires degree_bound >= 1")
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
        sigma_req = dec.singular_values[required - 1]
        margin = min(
            margin,
            sigma_req / dec.tolerance_used if dec.tolerance_used > 0 else 0.0,
        )
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


def index_sum_check(M: PolyMat, tol: float | None = None) -> bool:
    """Assert that the right minimal indices sum to m*d (Index Sum consequence)."""
    from .minimal import right_minimal_indices  # minimal imports this module

    report = has_full_sylvester_rank(M, tol)
    if not report.has_full_sylvester_rank:
        raise PreconditionError("index_sum_check requires full-Sylvester-rank input")
    total = sum(right_minimal_indices(M, tol=tol))
    expected = M.rows * M.degree_bound
    if total != expected:
        raise PropertyViolationError(
            f"minimal indices sum to {total}, expected {expected}"
        )
    return True


# -- random sampling -------------------------------------------------------------


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
    shape = (degree_bound + 1, rows, cols)
    if dist == "gaussian":
        draw = lambda: rng.standard_normal(shape)  # noqa: E731
    elif dist == "uniform":
        draw = lambda: rng.uniform(-1.0, 1.0, shape)  # noqa: E731
    else:
        raise ShapeError(f"unknown distribution {dist!r}")
    arr = draw() + 1j * draw() if field == "complex" else draw()
    if zero_leading:
        arr[degree_bound] = 0.0
    return PolyMat(arr)


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

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "d": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "dist": self.dist,
            "successes": self.successes,
            "failures": list(self.failures),
            "min_margin": self.min_margin,
        }
        if self.zero_leading:
            out["zero_leading"] = True
        return out


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

    Trials use independent RNG streams derived from (seed, trial index), so
    results do not depend on execution order.  ``zero_leading`` constrains
    sampling to the degenerate stratum with vanishing leading coefficient,
    where the property is impossible.
    """
    if trials < 1:
        raise ShapeError("trials must be positive")
    kprime_t(m, n, d)
    successes = 0
    failures: list[dict] = []
    min_margin = float("inf")
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        M = sample_polymat(rng, m, m + n, d, dist=dist, field=field_tag, zero_leading=zero_leading)
        report = has_full_sylvester_rank(M, tol)
        min_margin = min(min_margin, report.margin)
        if report.has_full_sylvester_rank:
            successes += 1
        else:
            failures.append({"trial": trial, "margin": report.margin})
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
    min_margin: float = SAMPLE_MARGIN,
    max_rejects: int = 50,
    tol: float | None = None,
) -> PolyMat:
    """Rejection-sample a certified full-Sylvester-rank matrix.

    Accepts only samples whose decision margin is at least ``min_margin``;
    repeated rejection signals suspicious dimensions or tolerance.
    """
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
