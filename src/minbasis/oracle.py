"""Exact rational rank computations: a tolerance-free ground truth.

Ranks here are computed over the rationals with fraction-free (Bareiss)
elimination, so every rank decision made by the floating-point pipeline can
be cross-checked exactly at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputFormatError, ShapeError
from .minimal import RankProfile, _scan
from .polymat import PolyMat

__all__ = [
    "RationalMatrix",
    "exact_rank",
    "exact_nullspace",
    "exact_sylvester",
    "exact_rank_profile",
    "exact_evaluate",
]


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        if not rows or not rows[0]:
            raise ShapeError("matrix must be non-empty")
        width = len(rows[0])
        out = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InputFormatError(f"row {i} has {len(row)} entries, expected {width}")
            out.append(tuple(_to_fraction(v, f"entry ({i}, {j})") for j, v in enumerate(row)))
        return cls(entries=tuple(out))

    @classmethod
    def identity(cls, size: int) -> "RationalMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        )


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


def _integer_rows(A: RationalMatrix) -> list[list[int]]:
    # Per-row denominator clearing preserves rank.
    out = []
    for row in A.entries:
        scale = math.lcm(*(f.denominator for f in row))
        out.append([int(f * scale) for f in row])
    return out


def exact_rank(A: RationalMatrix) -> int:
    """Rank by fraction-free elimination with full pivoting on magnitude."""
    m = _integer_rows(A)
    rows, cols = len(m), len(m[0])
    prev = 1
    rank = 0
    for step in range(min(rows, cols)):
        piv_i = piv_j = -1
        piv_abs = 0
        for i in range(step, rows):
            for j in range(step, cols):
                a = abs(m[i][j])
                if a > piv_abs:
                    piv_abs, piv_i, piv_j = a, i, j
        if piv_abs == 0:
            break
        if piv_i != step:
            m[step], m[piv_i] = m[piv_i], m[step]
        if piv_j != step:
            for row in m:
                row[step], row[piv_j] = row[piv_j], row[step]
        pivot = m[step][step]
        for i in range(step + 1, rows):
            mi, ms = m[i], m[step]
            left = mi[step]
            for j in range(step + 1, cols):
                mi[j] = (mi[j] * pivot - left * ms[j]) // prev
            mi[step] = 0
        prev = pivot
        rank += 1
    return rank


def exact_nullspace(A: RationalMatrix) -> list[list[Fraction]]:
    """Exact basis of the right nullspace (A @ v == 0 for each basis vector)."""
    m = [list(row) for row in A.entries]
    rows, cols = len(m), len(m[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivot_cols):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def exact_evaluate(M: PolyMat, lam: Fraction) -> RationalMatrix:
    """Exact Horner evaluation at a rational point."""
    rows = []
    for r in range(M.rows):
        row = []
        for c in range(M.cols):
            acc = Fraction(0)
            for i in range(M.degree_bound, -1, -1):
                acc = acc * lam + _to_fraction(M.coeffs[i, r, c], f"coeff ({i},{r},{c})")
            row.append(acc)
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def _require_rational(M: PolyMat) -> None:
    if M.field != "real":
        raise InputFormatError("exact oracle requires real (rational-valued) entries")


def exact_sylvester(M: PolyMat, k: int) -> RationalMatrix:
    """Exact Sylvester matrix with k block columns."""
    _require_rational(M)
    if k < 1:
        raise ShapeError("block-column count must be positive")
    m, q, d = M.rows, M.cols, M.degree_bound
    zero = Fraction(0)
    grid = [[zero] * (k * q) for _ in range((k + d) * m)]
    for j in range(k):
        for i in range(d + 1):
            block = M.coeffs[i]
            for r in range(m):
                row = grid[(j + i) * m + r]
                for c in range(q):
                    row[j * q + c] = _to_fraction(block[r, c], f"coeff ({i},{r},{c})")
    return RationalMatrix(entries=tuple(tuple(row) for row in grid))


def _exact_normal_rank(M: PolyMat) -> int:
    # Every minor has degree at most d * min(m, q), so evaluating at one more
    # integer than that and taking the max rank is exact.
    count = M.degree_bound * min(M.rows, M.cols) + 1
    best = 0
    for lam in range(1, count + 1):
        best = max(best, exact_rank(exact_evaluate(M, Fraction(lam))))
        if best == min(M.rows, M.cols):
            break
    return best


def exact_rank_profile(M: PolyMat, k_max: int | None = None) -> RankProfile:
    """Tolerance-free counterpart of ``rank_profile``: the same scan, with
    exact Sylvester ranks and the exact normal rank.  It always scans (no
    full-Sylvester-rank shortcut) and records no ``decisions``."""
    _require_rational(M)
    m, q, d = M.rows, M.cols, M.degree_bound
    if m >= q:
        raise ShapeError(f"rank profile requires a wide matrix, got {m}x{q}")
    if d < 1:
        raise ShapeError("rank profile requires degree_bound >= 1")
    return _scan(
        M, k_max, lambda k: exact_rank(exact_sylvester(M, k)), lambda: _exact_normal_rank(M)
    )
