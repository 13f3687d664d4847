"""Exact rational rank computations: a tolerance-free ground truth.

Exact matrices are numpy object arrays of Python ints and Fractions; S_k is
built by the floating-point path's ``sylvester_array``.  Each row is scaled
to integers, and every rank is proven from both sides: a rank modulo a prime
is the lower bound, and integer null vectors checked over Z give the upper
one.  One modular elimination across k (``_ModularPass``) takes both for all
of S_1, S_2, ... in ``exact_rank_profile``, and for a single matrix in
``exact_rank``.  So every floating-point rank decision can be cross-checked
exactly at the float pipeline's sizes.  Complex inputs are out of scope.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import InputFormatError
from .minimal import RankProfile, _default_scan_cap, _profile, _scan
from .polymat import PolyMat
from .sylvester import _require_wide, sylvester_array


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


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, exact for odd 7 < n < 3.2e9."""
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


def _primes(below: int):
    """Odd primes below ``below`` in descending order."""
    n = (below - 2) | 1  # the largest odd number below
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _magnitude(A: np.ndarray) -> int:
    return int(np.abs(A).max(initial=0))


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
    row has norm at least 1, so H bounds minors of every size.  The squared
    norms are summed in int64 when a magnitude bound rules out overflow."""
    if _magnitude(A) ** 2 * A.shape[1] >= 2**63:
        A = A.astype(object)
    norms2 = sorted((A * A).sum(axis=1).tolist())
    return math.prod(n for n in norms2[-min(A.shape):] if n)


def _crt(X: np.ndarray, m: int, residues: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """The object array congruent to X mod m and to ``residues`` mod p,
    with its modulus m*p (Chinese remainder theorem)."""
    return X + m * ((residues - X % p) * pow(m, -1, p) % p), m * p


def _integer_coeffs(M: PolyMat) -> np.ndarray:
    """M's coefficients with each row r of every C_i scaled by 2^s_r, the
    least power of two that makes row r integral: the integers that
    ``_integer_rows`` gives from their Fractions, as int64 when every entry
    fits (``_compact``), else as Python ints.

    A finite nonzero float is c * 2^e for an odd integer c, so no Fraction
    is built: s_r is the largest of 0 and -e over the entries of row r, and
    each entry is c shifted left by e + s_r >= 0.
    """
    if M.field != "real":
        raise InputFormatError("exact oracle requires real (rational-valued) entries")
    mantissa, exponent = np.frexp(M.coeffs)
    whole = np.ldexp(mantissa, 53).astype(np.int64)  # C = whole * 2^(exponent - 53)
    low = whole & -whole  # the lowest set bit of each entry, 0 for a zero
    zeros = np.frexp(low)[1] - 1  # its position: the trailing zeros, -1 for a zero
    odd = whole >> np.maximum(zeros, 0)
    power = np.where(low != 0, exponent - 53 + zeros, 0)
    shift = power - power.min(axis=(0, 2), keepdims=True).clip(max=0)
    shift[low == 0] = 0
    if (np.frexp(np.abs(odd))[1] + shift).max() <= 63:  # bit lengths: every |entry| < 2^63
        return odd << shift
    return odd.astype(object) << shift.astype(object)


# The one-pass profile works modulo a batch of primes below 2**26, so that an
# int64 sum of up to _TERMS products of two residues cannot overflow.
_PASS_PRIMES = tuple(itertools.islice(_primes(2**26), 3))
_TERMS = 2**11


def _dot_mod(A: np.ndarray, B: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A @ B mod p for stacks of residues with one prime per leading index
    (p of shape (P, 1, 1)), summing at most _TERMS products at a time."""
    out = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for s in range(0, A.shape[-1], _TERMS):
        out = (out + A[..., s : s + _TERMS] @ B[..., s : s + _TERMS, :]) % p
    return out


def _dixon(A: np.ndarray, p: int) -> bool:
    """Whether the last column c of the integer matrix A = [A_s, c] is a
    combination of the others over Q, given that those are independent
    modulo the prime p < 2**26, with an integer null vector checked over Z.

    Rows of A_s independent mod p (the pivots of its transpose) give a block
    B, invertible mod p, so B y = -c there has one rational solution.  Its
    p-adic digits come from that inverse alone (Dixon): x = B^-1 r mod p,
    then r <- (r - B x) / p, exactly, starting from r = -c.  Each
    reconstruction (``_lift``) of the digits so far is checked on all of A.
    By Cramer, y's numerators and denominator are minors of [B, c]; past
    2 H^2 for a bound H on those (Hadamard), the reconstruction is y, so a
    y that fails the check means that c is independent over Q.
    """
    s = A.shape[1] - 1
    B = A[_echelon(A[:, :s].T, p)[1]]
    E, pivots = _echelon(np.hstack([B[:, :s], np.eye(s, dtype=np.int64)]), p)
    inverse = _reduced(E, pivots, np.arange(s, 2 * s), p)
    # |r| <= s |B| throughout, so r - B x stays below s |B| p.
    B = B.astype(np.int64 if _magnitude(B) * (s + 1) * p < 2**63 else object)
    r, X, m, cap = -B[:, s], np.zeros(s, dtype=object), 1, None
    while True:
        x = _dot_mod(inverse, (r % p).astype(np.int64)[:, None], p)[:, 0]
        r = (r - B[:, :s] @ x.astype(B.dtype)) // p
        X, m = X + m * x.astype(object), m * p
        lifted = _lift(X, m)
        if lifted is not None and _vanishes(A, np.append(*lifted)[None]):
            return True
        if cap is None:
            cap = 2 * _minor_bound_squared(B)
        if m > cap:
            return False


class _ModularPass:
    """One column elimination of S_1, S_2, ... modulo a batch of primes, and
    the null vectors it proves.

    S_{k+1} is the columns of S_k, padded with m zero rows, plus the q
    columns of block column k, which are zero outside rows km .. (k+d+1)m.
    So the pass keeps the columns seen so far as a reduced basis of their
    span modulo each prime and reduces only each new block against it:
    ``ranks[k-1]``, the rank of S_k mod the primes, is a lower bound on its
    rank over Q.  A non-pivot row above row km depends on the rows before
    it, in every column so far and, being zero there, in every later one;
    so a reduced new column is zero above row km, and a basis vector whose
    pivot row lies above it never reduces a column again.  The basis keeps
    only its vectors with pivots in rows km .. (k+d+1)m, on those rows, next
    to their coefficients on the columns of S_k (the transform).

    A new column that depends on the earlier ones gives a null vector x of
    S_{k+1}: 1 at that column, and a combination of independent columns
    before it.  If x is a null vector of S_k, then [x; 0] and [0; x] are
    null vectors of S_{k+1}, so a column whose position in the previous
    block was dependent is dependent again; only a column that was
    independent there marks a new minimal index (an event), and only its
    vector is lifted, by CRT over the batch and rational reconstruction,
    and checked over Z (``proven``).  The degree-b vectors of the proven
    events and their shifts prove n_k >= sum_i max(0, k - b_i): their
    leading coefficients (block b_i) are independent, since each is nonzero
    at its own position and zero at every position that was dependent
    before it, so the vectors are column reduced.

    Primes run in lockstep on one pivot row, the first nonzero row of a
    reduced column, as the window needs.  A prime that finds a column
    dependent where another does not, or whose first nonzero row comes
    later than another's, is bad for Z, as are all primes when bounds do
    not meet; the pass then starts over with the next batch
    (``_restart``), and only finitely many primes are bad.
    """

    def __init__(self, Z: np.ndarray, primes: tuple[int, ...] | None = None):
        self.Z = Z  # the integer coefficient stack, int64 or Python ints
        grade, self.m, self.q = Z.shape
        self.d = grade - 1
        self.primes = primes or _PASS_PRIMES  # the batch; _restart takes the next one
        self.p = np.array(self.primes, dtype=np.int64)
        # Block column k's new columns as rows: (prime, column, row - km).
        column = Z.reshape(grade * self.m, self.q).T
        self.new = np.stack([np.remainder(column, p) for p in self.primes]).astype(np.int64)
        window = grade * self.m
        self.basis = np.zeros((len(self.p), 0, window), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.intp)  # rows of S, absolute
        self.blocks = 0
        self.ranks: list[int] = []
        self.independent: list[int] = []  # columns of S, in order
        self.dependent = np.zeros(self.q, dtype=bool)  # positions in a block
        self.events: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        self.proofs: list[bool] = []

    def _restart(self) -> None:
        """Start over modulo the next len(primes) primes below the batch."""
        self.__init__(self.Z, tuple(itertools.islice(_primes(min(self.primes)), len(self.primes))))

    def extend(self) -> None:
        """Reduce block column b = ``blocks`` and record the rank of S_{b+1},
        or restart the pass when the primes of the batch disagree.

        Only the columns at positions not yet dependent are reduced; each
        new pivot is eliminated from every other new column at once."""
        b, m, q, d = self.blocks, self.m, self.q, self.d
        window, T = (d + 1) * m, (b + 1) * q
        lo = b * m  # the window is rows lo .. lo + window of S_{b+1}
        live = self.pivots >= lo
        basis = np.zeros((len(self.p), int(live.sum()), window + T), dtype=np.int64)
        basis[:, :, : window - m] = self.basis[:, live, m:window]
        basis[:, :, window : window + T - q] = self.basis[:, live, window:]
        pivots = self.pivots[live] - lo
        open_ = np.flatnonzero(~self.dependent)
        fresh = np.zeros((len(self.p), open_.size, window + T), dtype=np.int64)
        fresh[:, :, :window] = self.new[:, open_]
        fresh[:, np.arange(open_.size), window + b * q + open_] = 1
        p = self.p[:, None, None]
        if pivots.size:
            fresh = (fresh - _dot_mod(fresh[:, :, pivots], basis, p)) % p
        # Each pivot subtracts one product below p^2 < 2^52 from every entry
        # of fresh, reduced mod p only where it is read, and at least once
        # every _TERMS pivots.
        found: list[int] = []  # the pivot rows (in the window) of the new basis vectors
        taken: list[int] = []  # their rows in fresh
        pp, primes = p[:, 0], self.p.tolist()
        for i, j in enumerate(open_.tolist()):
            row = fresh[:, i]  # a view: reduced and scaled in place
            row %= pp
            hit = row[:, :window].any(axis=0)
            at = int(hit.argmax())  # the first nonzero row of any prime
            if not hit[at]:
                support = np.array(self.independent, dtype=np.intp)
                self.events.append((b, b * q + j, support, row[:, window + support]))
                self.dependent[j] = True
                continue
            lead = row[:, at].tolist()
            if 0 in lead:  # a prime with a zero row, or a later first nonzero row
                self._restart()
                return
            row *= np.array([pow(x, -1, prime) for x, prime in zip(lead, primes)])[:, None]
            row %= pp
            factor = fresh[:, :, at] % pp
            factor[:, i] = 0  # one rank-1 update of every other row
            fresh -= factor[:, :, None] * row[:, None, :]
            found.append(at)
            taken.append(i)
            self.independent.append(b * q + j)
            if len(found) % _TERMS == 0:
                fresh %= p
        if found:
            rows = fresh[:, taken] % p
            if pivots.size:
                basis = (basis - _dot_mod(basis[:, :, found], rows, p)) % p
            basis = np.concatenate([basis, rows], axis=1)
            pivots = np.concatenate([pivots, found])
        self.basis, self.pivots = basis, pivots + lo
        self.blocks += 1
        self.ranks.append(len(self.independent))

    def _verify(self, event) -> bool:
        """Whether the event's column of S_{b+1} is dependent over Q on the
        independent columns before it, with a null vector over Z on those
        columns: the one lifted from the batch's residues, or, when those do
        not suffice, the p-adic lift from the batch's first prime
        (``_dixon``), which also proves a column independent."""
        b, column, support, residues = event
        A = sylvester_array(self.Z, b + 1)[:, np.append(support, column)]
        X, modulus = np.zeros(len(support), dtype=object), 1
        for r, prime in zip(residues, self.primes):
            X, modulus = _crt(X, modulus, r, prime)
        lifted = _lift(X, modulus)
        if lifted is not None and _vanishes(A, np.append(*lifted)[None]):
            return True
        return _dixon(A, self.primes[0])

    def proven(self) -> list[int]:
        """The degrees b of the events so far whose null vectors hold over Z."""
        self.proofs += [self._verify(e) for e in self.events[len(self.proofs):]]
        return [e[0] for e, ok in zip(self.events, self.proofs) if ok]

    def rank(self, k: int) -> int:
        """The exact rank of S_k: the rank mod the batch, once the proven
        null vectors or the size of S_k bound it from above."""
        while True:
            while self.blocks < k:
                self.extend()
            lower = self.ranks[k - 1]
            if lower == min((k + self.d) * self.m, k * self.q) or lower == k * self.q - sum(
                max(0, k - b) for b in self.proven()
            ):
                return lower
            self._restart()

    def point_rank(self, lam: int) -> int:
        """The rank of M(lam) modulo a prime of the batch, a lower bound on
        the normal rank.  The points take the primes in turn, so a prime
        that lowers the rank at every point holds back only its own."""
        i = lam % len(self.p)
        p = int(self.p[i])
        C = self.new[i].reshape(self.q, self.d + 1, self.m)  # C[:, j] = C_j^T mod p
        value = C[:, -1]
        for j in range(self.d - 1, -1, -1):
            value = (value * lam + C[:, j]) % p
        return len(_echelon(value, p)[1])


def _normal_rank(sweep: _ModularPass, cap: int) -> int:
    """The exact normal rank of a wide M from its pass.

    The rank of M(lam) mod p at an integer lam is a lower bound; the proven
    null vectors of the pass are independent over Q(lam) (column reduced),
    so q minus their count is an upper bound.  Points and blocks are taken
    in turn until the bounds meet: every m-minor has degree at most d*m, so
    one of the first d*m + 1 points attains the normal rank unless the
    prime divides it there, and every right minimal index is at most
    (m-1)d, so the pass finds them all before the cap.  Otherwise the pass
    starts over with the next batch, and the points with it.
    """
    m, q, d = sweep.m, sweep.q, sweep.d
    points = list(range(1, d * m + 2))
    lower = 0
    while True:
        if points:
            lower = max(lower, sweep.point_rank(points.pop(0)))
        if lower == m or lower == q - len(sweep.proven()):
            return lower
        if sweep.blocks < cap:
            sweep.extend()
        elif not points:
            sweep._restart()
            points = list(range(1, d * m + 2))


def exact_rank(A) -> int:
    """Exact rank of a 2-D array-like of ints, floats or Fractions: S_1 of
    the grade-0 stack [A] in one modular pass, taken on the side with fewer
    columns, which has the smaller nullspace."""
    Z = _compact(_integer_rows(_fraction_matrix(A)))
    return _ModularPass((Z.T if Z.shape[1] > Z.shape[0] else Z)[None]).rank(1)


def exact_rank_profile(M: PolyMat, k_max: int | None = None) -> RankProfile:
    """Tolerance-free counterpart of ``rank_profile``: the same scan, with
    exact Sylvester ranks and the exact normal rank, and no ``decisions``.
    The rows of M are scaled to integers once (``_integer_coeffs``), and one
    modular pass (``_ModularPass``) proves the ranks of every S_k in turn.

    It scans from k = 1, without the full-Sylvester-rank tests or the index
    sum jump.  Without ``k_max``, ``minimal._scan`` stops at the first S_k
    of full row rank, as on the float path: an exact rank (k+d)m proves
    that C_d, the last m rows of S_k, has full row rank, so d' = k,
    r_{k+1} = (k+1+d)m is implied and ``decided_k`` ends at k.  A full-rank
    C_d also gives full normal rank (see ``rank_profile``), so the normal
    rank is proven from the pass (``_normal_rank``) only when no measured
    S_k has full row rank.
    """
    _require_wide(M, "rank profile", graded=True)
    sweep = _ModularPass(_integer_coeffs(M))
    ranks, stopped, measured = _scan(M, k_max, sweep.rank, full_leading=k_max is None)
    m, d = M.rows, M.degree_bound
    if any(r == (k + d) * m for k, r in enumerate(ranks, start=1)):
        normal_rank = m
    else:
        # The pass may run on to the default scan cap for the normal rank.
        normal_rank = _normal_rank(sweep, _default_scan_cap(M))
    return _profile(M, ranks, normal_rank, stopped, measured, (), None)
