"""Sylvester matrices and tolerance-based numerical rank decisions.

Every rank or singular-value read of a Sylvester matrix S_k(P), and of P's
highest-row-degree matrix, goes through a memo held by P itself: singular
values are computed once per matrix, right singular vectors once a caller
first asks for them, and the memo is freed with the matrix.  The memo never
keeps the factored arrays themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, ShapeError
from .polymat import PolyMat, highest_row_degree_matrix

__all__ = [
    "SylvesterMatrix",
    "RankDecision",
    "sylvester",
    "rank_nullity",
    "min_singular_value",
    "default_tolerance",
    "singular_values",
    "sylvester_rank",
    "highest_row_degree_rank",
    "full_leading_rank",
    "sylvester_singular_values",
    "sylvester_right_vectors",
]


@dataclass(frozen=True, eq=False)
class SylvesterMatrix:
    """The banded block-Toeplitz stack with k block columns.

    Block (i, j) equals C_{i-j} for 0 <= i-j <= d and is zero otherwise, so
    the matrix has (k + d) * m rows and k * q columns.
    """

    k: int
    m: int
    q: int
    d: int
    data: np.ndarray

    @property
    def rows(self) -> int:
        return (self.k + self.d) * self.m

    @property
    def cols(self) -> int:
        return self.k * self.q


def sylvester(P: PolyMat, k: int) -> SylvesterMatrix:
    """Build the k-th Sylvester matrix of P using its ambient grade."""
    if not isinstance(k, int) or k < 1:
        raise ShapeError(f"block-column count k must be a positive integer, got {k!r}")
    m, q, d = P.rows, P.cols, P.degree_bound
    data = np.zeros(((k + d) * m, k * q), dtype=P.coeffs.dtype)
    for j in range(k):
        for i in range(d + 1):
            data[(j + i) * m : (j + i + 1) * m, j * q : (j + 1) * q] = P.coeffs[i]
    data.flags.writeable = False
    return SylvesterMatrix(k=k, m=m, q=q, d=d, data=data)


def _as_array(A) -> np.ndarray:
    arr = A.data if isinstance(A, SylvesterMatrix) else np.asarray(A)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    return arr


def default_tolerance(shape: tuple[int, int], sigma1: float) -> float:
    """Standard numerical-rank threshold max(p, q) * eps * sigma1."""
    return max(shape) * float(np.finfo(np.float64).eps) * sigma1


def singular_values(A) -> np.ndarray:
    """Descending singular values of a matrix or Sylvester matrix."""
    return np.linalg.svd(_as_array(A), compute_uv=False)


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank verdict with the full spectrum kept for diagnostics."""

    rank: int
    nullity: int
    singular_values: tuple[float, ...]
    tolerance_used: float

    @property
    def gap_ratio(self) -> float:
        """Ratio sigma_rank / sigma_{rank+1}; inf when one side is absent."""
        sv = self.singular_values
        if self.rank == 0 or self.rank >= len(sv) or sv[self.rank] == 0.0:
            return float("inf")
        return sv[self.rank - 1] / sv[self.rank]


def _decide(sv: np.ndarray, shape: tuple[int, int], tol: float | None) -> RankDecision:
    # The one place a tolerance meets singular values, so the one place it is
    # checked: a negative, NaN or infinite threshold would count every or no
    # singular value and turn any input into a confident wrong verdict.
    if tol is None:
        tau = default_tolerance(shape, float(sv[0]))
    else:
        tau = float(tol)
        if not (math.isfinite(tau) and tau >= 0.0):
            raise InputFormatError(
                f"rank tolerance must be a finite number >= 0, got {tol!r}"
            )
    rank = int(np.count_nonzero(sv > tau))
    return RankDecision(
        rank=rank,
        nullity=shape[1] - rank,
        singular_values=tuple(sv.tolist()),
        tolerance_used=tau,
    )


def rank_nullity(A, tol: float | None = None) -> RankDecision:
    """Numerical rank and right nullity of a constant matrix.

    The rank counts singular values above ``tol``, which must be a finite
    number >= 0; when ``tol`` is None the threshold is
    max(rows, cols) * eps * sigma_1.
    """
    arr = _as_array(A)
    return _decide(np.linalg.svd(arr, compute_uv=False), arr.shape, tol)


def min_singular_value(A, which: int = 0) -> float:
    """Singular value counted from the smallest; ``which=0`` is the smallest."""
    sv = singular_values(A)
    if not 0 <= which < len(sv):
        raise IndexError(f"singular value index {which} out of range for {len(sv)} values")
    return float(sv[len(sv) - 1 - which])


# -- per-matrix memo -------------------------------------------------------------


# Memo key of the highest-row-degree matrix, next to the integer keys k of S_k.
_HR = "hr"


@dataclass(eq=False, slots=True)
class _Factored:
    """Memo entry for one matrix: its shape, descending singular values, the
    conjugate-transposed right singular vectors once asked for, and the rank
    decisions already taken, keyed by tolerance."""

    shape: tuple[int, int]
    sv: np.ndarray
    vh: np.ndarray | None = None
    decisions: dict = field(default_factory=dict)


def _factored(P: PolyMat, key: int | str, vectors: bool = False) -> _Factored:
    memo = P._sylvester_memo
    entry = memo.get(key)
    if entry is not None and (entry.vh is not None or not vectors):
        return entry
    data = highest_row_degree_matrix(P) if key == _HR else sylvester(P, key).data
    if vectors:
        # Full V^H: a wide S_k's nullspace lies in the rows past its rank.
        _, sv, vh = np.linalg.svd(data, full_matrices=True)
        vh.flags.writeable = False
    else:
        sv, vh = np.linalg.svd(data, compute_uv=False), None
    if entry is None:
        sv.flags.writeable = False
        entry = memo[key] = _Factored(shape=data.shape, sv=sv)
    entry.vh = vh
    return entry


def _memo_rank(P: PolyMat, key: int | str, tol: float | None) -> RankDecision:
    entry = _factored(P, key)
    dec = entry.decisions.get(tol)
    if dec is None:
        dec = entry.decisions[tol] = _decide(entry.sv, entry.shape, tol)
    return dec


def sylvester_singular_values(P: PolyMat, k: int) -> np.ndarray:
    """Descending singular values of S_k(P), computed once per matrix."""
    return _factored(P, k).sv


def sylvester_right_vectors(P: PolyMat, k: int) -> np.ndarray:
    """Full V^H of S_k(P), whose rows are the conjugated right singular
    vectors in the order of the singular values; computed once per matrix."""
    return _factored(P, k, vectors=True).vh


def sylvester_rank(P: PolyMat, k: int, tol: float | None = None) -> RankDecision:
    """``rank_nullity(sylvester(P, k), tol)`` read from P's memo."""
    return _memo_rank(P, k, tol)


def highest_row_degree_rank(P: PolyMat, tol: float | None = None) -> RankDecision:
    """``rank_nullity(highest_row_degree_matrix(P), tol)`` read from P's memo."""
    return _memo_rank(P, _HR, tol)


def full_leading_rank(P: PolyMat, tol: float | None = None) -> RankDecision | None:
    """Rank decision of the leading coefficient C_d when it has full row
    rank, else None.  A full-rank C_d has no zero row, so it is then the
    highest-row-degree matrix and its decision comes from P's memo."""
    dec = highest_row_degree_rank(P, tol)
    if dec.rank < P.rows or not P.coeffs[-1].any(axis=1).all():
        return None
    return dec
