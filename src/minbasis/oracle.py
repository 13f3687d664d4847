"""Exact rational rank computations: a tolerance-free ground truth.

Exact matrices are numpy object arrays of Python ints and Fractions; S_k is
built by the floating-point path's ``sylvester_array``.  Each row is scaled
to integers, and one modular kernel (``_rank_nullspace``) proves both bounds
of every rank: elimination modulo a prime gives the lower one, and an integer
nullspace lifted from a few primes and checked over Z gives the upper one.
So every floating-point rank decision can be cross-checked exactly at the
float pipeline's sizes.  Complex inputs are out of scope.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import InputFormatError, NumericalInconsistencyError
from .minimal import RankProfile, _profile, _scan
from .polymat import PolyMat, evaluate_array
from .sylvester import _block_count, _require_wide, sylvester_array

__all__ = [
    "exact_rank",
    "exact_nullspace",
    "exact_sylvester",
    "exact_rank_profile",
    "exact_evaluate",
]


def _to_fraction(value, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputFormatError(f"{where}: booleans are not matrix entries")
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        # Every finite float is an exact dyadic rational.
        if not math.isfinite(float(value)):
            raise InputFormatError(f"{where}: non-finite value")
        return Fraction(float(value))
    raise InputFormatError(f"{where}: cannot ingest {type(value).__name__} exactly")


def _fraction_matrix(A) -> np.ndarray:
    """A 2-D array-like as a new object array of Fractions."""
    arr = np.asarray(A, dtype=object)
    if arr.ndim != 2 or arr.size == 0:
        raise InputFormatError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    out = np.empty(arr.shape, dtype=object)
    for (i, j), v in np.ndenumerate(arr):
        out[i, j] = _to_fraction(v, f"entry ({i}, {j})")
    return out


def _integer_rows(F: np.ndarray) -> np.ndarray:
    """Fractions of shape (..., rows, cols) as Python ints, row r scaled by
    the lcm of the denominators of F[..., r, :].

    A matrix whose every row is a row of F (such as F itself, S_k of a
    coefficient stack or its value at a point) has its rows scaled by
    nonzero constants, which keeps its rank.
    """
    scale = [math.lcm(*(f.denominator for f in F[..., r, :].flat)) for r in range(F.shape[-2])]
    return np.frompyfunc(int, 1, 1)(F * np.array(scale, dtype=object)[:, None])


@functools.cache
def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, exact for odd 7 < n < 3.2e9.
    Cached: the kernel asks about the same few candidates on every call."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def _primes():
    """Primes below 2**31 in descending order, so that a product of two
    residues fits in int64."""
    n = 2**31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _magnitude(A: np.ndarray) -> int:
    return int(np.abs(A).max())


def _compact(A: np.ndarray) -> np.ndarray:
    """An integer array as int64 when every entry fits, else as Python ints."""
    return A.astype(np.int64) if _magnitude(A) < 2**63 else A


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of A mod p with unit pivots, as (its nonzero rows,
    pivot columns).  The pivots are the lexicographically first columns
    that are independent mod p."""
    R = np.remainder(A, p).astype(np.int64)
    pivots: list[int] = []
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        nonzero = R[r:, c].nonzero()[0]
        if nonzero.size == 0:
            continue
        if nonzero[0]:
            R[[r, r + nonzero[0]]] = R[[r + nonzero[0], r]]
        row = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        R[r, c:] = row
        below = r + nonzero[1:, None]
        if below.size:
            # Only the pivot row's support changes the rows below: S_k is banded.
            support = row.nonzero()[0]
            span = (below, c + support)
            R[span] = (R[span] - R[below, c] * row[support]) % p
        pivots.append(c)
    return R[: len(pivots)], pivots


def _reduced(E: np.ndarray, pivots: list[int], free: np.ndarray, p: int) -> np.ndarray:
    """The free columns of the reduced row echelon form mod p, by back
    substitution on the unit upper triangular E[:, pivots]."""
    X = E[:, free]
    for j in range(len(pivots) - 1, 0, -1):
        above = E[:j, pivots[j]].nonzero()[0]
        X[above] = (X[above] - E[above, pivots[j], None] * X[j]) % p
    return X


def _denominator(x: int, m: int, bound: int) -> int | None:
    """The denominator of the fraction n/d = x (mod m) with |n|, d <= bound,
    if there is one (rational reconstruction by the half extended Euclid)."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound and math.gcd(r1, t1) == 1 else None


def _lift(X: np.ndarray, m: int) -> tuple[np.ndarray, int] | None:
    """Integers Y and a common denominator D with Y/D = X (mod m) and every
    |Y| <= sqrt(m/2), or None.  D takes in the denominator of one entry that
    does not fit yet, so it is the lcm of true denominators once m is large
    enough; a denominator it already holds means m is not."""
    bound = math.isqrt((m - 1) // 2)
    D = 1
    while True:
        Y = X * D % m
        Y = np.where(Y > m // 2, Y - m, Y)
        misfit = np.flatnonzero(np.abs(Y) > bound)
        if misfit.size == 0:
            return Y, D
        d = _denominator(X.flat[misfit[0]], m, bound)
        if d is None or D % d == 0:
            return None
        D = math.lcm(D, d)


def _vanishes(A: np.ndarray, V: np.ndarray) -> bool:
    """A @ V.T == 0 exactly, in int64 when a magnitude bound rules out
    overflow."""
    if _magnitude(A) * _magnitude(V) * A.shape[1] < 2**63:
        A, V = A.astype(np.int64), V.astype(np.int64)
    return not (A @ V.T).any()


def _minor_bound_squared(A: np.ndarray) -> int:
    """H^2 for a bound H on every minor of A: the product of its
    min(rows, cols) largest nonzero row norms (Hadamard).  A nonzero integer
    row has norm at least 1, so H bounds minors of every size."""
    norms2 = sorted(sum(x * x for x in row) for row in A.tolist())
    return math.prod(n for n in norms2[-min(A.shape):] if n)


def _rank_nullspace(A: np.ndarray) -> tuple[int, np.ndarray, int]:
    """Exact rank of an integer matrix, with a proof of each bound, and its
    reduced row echelon nullspace basis as integer rows V over one
    denominator D.

    The rank r mod a prime is at most the rank over Q, so it is the lower
    bound, final at the column count.  Otherwise the reduced residues of
    the primes that share the best pivot set (most pivots, then
    lexicographically first; any other prime is bad) are combined by CRT
    and lifted to rational null vectors.  Once A V^T = 0 holds over Z,
    those cols - r independent vectors prove rank <= r, and they force the
    pivot set to be Q's, so V/D is Q's basis.  A prime product past 2 H^2
    guarantees the lift, so reaching it without a certificate raises
    instead of looping.
    """
    A = _compact(A)
    rows, cols = A.shape
    best, m, X, cap = None, 1, None, None
    for p in _primes():
        E, pivots = _echelon(A, p)
        rank = len(pivots)
        if rank == cols:
            return rank, np.zeros((0, cols), dtype=object), 1
        key = (-rank, pivots)
        if best is None or key < best:
            best, m, X = key, 1, np.zeros((rank, cols - rank), dtype=object)
            free = np.ones(cols, dtype=bool)
            free[pivots] = False
            free = free.nonzero()[0]
        elif key != best:
            continue
        # CRT: X = X_p (mod p) and X (mod m).
        X = X + m * ((_reduced(E, pivots, free, p) - X % p) * pow(m, -1, p) % p)
        m *= p
        lifted = _lift(X, m)
        if lifted is not None:
            Y, D = lifted
            V = np.zeros((cols - rank, cols), dtype=object)
            V[np.arange(cols - rank), free] = D
            V[:, pivots] = -Y.T
            if _vanishes(A, V):
                return rank, V, D
        if cap is None:
            cap = 2 * _minor_bound_squared(A)
        if m > cap:
            raise NumericalInconsistencyError(
                f"no integer nullspace of a {rows}x{cols} matrix certifies rank {rank} "
                f"modulo a {m.bit_length()}-bit prime product, past the Hadamard bound "
                f"2H^2 of {cap.bit_length()} bits"
            )


def _rank(A: np.ndarray) -> int:
    """Exact rank of an integer matrix, certified on the side with fewer
    columns, which has the smaller nullspace."""
    return _rank_nullspace(A.T if A.shape[1] > A.shape[0] else A)[0]


def exact_rank(A) -> int:
    """Exact rank of a 2-D array-like of ints, floats or Fractions."""
    return _rank(_integer_rows(_fraction_matrix(A)))


def exact_nullspace(A) -> list[list[Fraction]]:
    """Exact basis of the right nullspace (A @ v == 0 for each basis vector):
    one vector per non-pivot column of the reduced row echelon form."""
    _, V, D = _rank_nullspace(_integer_rows(_fraction_matrix(A)))
    return [[Fraction(int(v), D) for v in row] for row in V]


def _fraction_coeffs(M: PolyMat) -> np.ndarray:
    if M.field != "real":
        raise InputFormatError("exact oracle requires real (rational-valued) entries")
    # The coefficients are finite floats, so each is an exact Fraction.
    return np.frompyfunc(Fraction, 1, 1)(M.coeffs)


def exact_evaluate(M: PolyMat, lam) -> np.ndarray:
    """Exact Horner evaluation at a rational point, as an object array."""
    lam = _to_fraction(lam, "evaluation point")
    return evaluate_array(_fraction_coeffs(M), np.asarray(lam))


def exact_sylvester(M: PolyMat, k: int) -> np.ndarray:
    """Exact Sylvester matrix with k block columns, as an object array."""
    return sylvester_array(_fraction_coeffs(M), _block_count(k))


def _exact_normal_rank(Z: np.ndarray) -> int:
    # Every minor has degree at most d * min(m, q), so evaluating at one more
    # integer than that and taking the max rank is exact.
    grade, m, q = Z.shape
    full = min(m, q)
    best = 0
    for lam in range(1, (grade - 1) * full + 2):
        best = max(best, _rank(evaluate_array(Z, np.asarray(lam))))
        if best == full:
            break
    return best


def exact_rank_profile(M: PolyMat, k_max: int | None = None) -> RankProfile:
    """Tolerance-free counterpart of ``rank_profile``: the same scan, with
    exact Sylvester ranks and the exact normal rank.  It always scans (no
    full-Sylvester-rank shortcut) and records no ``decisions``.  The rows of
    M are scaled to integers once (``_integer_rows``) for every S_k and M(lam).
    """
    _require_wide(M, "rank profile", graded=True)
    Z = _integer_rows(_fraction_coeffs(M))
    compact = _compact(Z)  # so that every S_k is built on int64 when it fits
    ranks, stopped, _ = _scan(M, k_max, lambda k: _rank(sylvester_array(compact, k)))
    return _profile(M, ranks, _exact_normal_rank(Z), stopped, (), None)
