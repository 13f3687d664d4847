"""Exact rational rank computations: a tolerance-free ground truth.

Exact matrices are numpy object arrays of Python ints and Fractions; S_k is
built by the floating-point path's ``sylvester_array``.  Ranks come from
fraction-free (Bareiss) elimination on integer rows, so every floating-point
rank decision can be cross-checked exactly at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InputFormatError
from .minimal import RankProfile, _scan
from .polymat import PolyMat
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


def _bareiss_rank(A: np.ndarray) -> int:
    """Rank of a 2-D object array of Python ints by fraction-free (Bareiss)
    elimination with full pivoting on magnitude."""
    full = min(A.shape)
    prev = 1
    for rank in range(full):
        mag = np.abs(A)
        i, j = np.unravel_index(np.argmax(mag), A.shape)
        if mag[i, j] == 0:
            return rank
        pivot = A[i, j]
        rest_i, rest_j = np.arange(A.shape[0]) != i, np.arange(A.shape[1]) != j
        # Every entry of the update is divisible by the previous pivot.
        update = A[np.ix_(rest_i, rest_j)] * pivot - np.outer(A[rest_i, j], A[i, rest_j])
        A, prev = update // prev, pivot
    return full


def exact_rank(A) -> int:
    """Exact rank of a 2-D array-like of ints, floats or Fractions."""
    return _bareiss_rank(_integer_rows(_fraction_matrix(A)))


def exact_nullspace(A) -> list[list[Fraction]]:
    """Exact basis of the right nullspace (A @ v == 0 for each basis vector):
    one vector per non-pivot column of the reduced row echelon form."""
    R = _fraction_matrix(A)
    rows, cols = R.shape
    pivot_cols: list[int] = []
    for c in range(cols):
        r = len(pivot_cols)
        if r == rows:
            break
        nonzero = np.flatnonzero(R[r:, c])
        if nonzero.size == 0:
            continue
        p = r + int(nonzero[0])
        R[[r, p]] = R[[p, r]]
        R[r] = R[r] / R[r, c]
        others = np.arange(rows) != r
        R[others] -= np.outer(R[others, c], R[r])
        pivot_cols.append(c)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.full((len(free_cols), cols), Fraction(0), dtype=object)
    basis[np.arange(len(free_cols)), free_cols] = Fraction(1)
    basis[:, pivot_cols] = -R[: len(pivot_cols), free_cols].T
    return basis.tolist()


def _horner(coeffs: np.ndarray, lam) -> np.ndarray:
    """Exact value at ``lam`` of an object coefficient stack (d + 1, m, q)."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * lam + c
    return acc


def _fraction_coeffs(M: PolyMat) -> np.ndarray:
    if M.field != "real":
        raise InputFormatError("exact oracle requires real (rational-valued) entries")
    # The coefficients are finite floats, so each is an exact Fraction.
    return np.frompyfunc(Fraction, 1, 1)(M.coeffs)


def exact_evaluate(M: PolyMat, lam) -> np.ndarray:
    """Exact Horner evaluation at a rational point, as an object array."""
    return _horner(_fraction_coeffs(M), _to_fraction(lam, "evaluation point"))


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
        best = max(best, _bareiss_rank(_horner(Z, lam)))
        if best == full:
            break
    return best


def exact_rank_profile(M: PolyMat, k_max: int | None = None) -> RankProfile:
    """Tolerance-free counterpart of ``rank_profile``: the same scan, with
    exact Sylvester ranks and the exact normal rank.  It always scans (no
    full-Sylvester-rank shortcut) and records no ``decisions``.  The rows of
    M are scaled to integers once (``_integer_rows``) for every S_k and M(lam).
    """
    Z = _integer_rows(_fraction_coeffs(M))
    _require_wide(M, "rank profile", graded=True)
    return _scan(
        M, k_max, lambda k: _bareiss_rank(sylvester_array(Z, k)), lambda: _exact_normal_rank(Z)
    )
