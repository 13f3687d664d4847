"""Sylvester matrices, tolerance-based numerical rank decisions, and every
factorization of the package: no other module calls ``numpy.linalg`` except
for a Frobenius or Euclidean norm.

Every rank or singular-value read of a Sylvester matrix S_k(P) and of P's
highest-row-degree matrix goes through a memo held by P itself, freed with
the matrix.  It keeps the read-only descending singular values of S_k under
the key k and of the highest-row-degree matrix under "hr", each computed
once; the rank decision at ``tol`` of the matrix under a key, under
(key, tol); the reports built from those decisions that ``memoized`` is
asked to keep, under (name, tol); and, under ("perturb", tol), the latest
propagation of a perturbation to a dual basis, with the dual basis and the
perturbation it was built from (``memoized_for``).  It never keeps the
factored arrays or a nullspace basis (a QR of S_k^H, taken only of S_k of
full row rank).  The singular values of an S_k wide enough to pay for it
are those of its banded R factor (``_banded_r``), not of S_k itself.
``weyl_full_rank`` reads a parent's memo to bound the ranks of a
perturbation of it and writes nothing.  A few helpers factor the other
constant matrices: orthogonal complements, minimum-norm solves and nearest
lower-rank matrices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import InputFormatError, NumericalInconsistencyError, ShapeError
from .polymat import PolyMat, _block_count, highest_row_degree_matrix, row_degrees


def sylvester_array(coeffs: np.ndarray, k: int) -> np.ndarray:
    """The k-th Sylvester matrix of a coefficient array of shape
    (..., d + 1, m, q), as a new array of shape (..., (k + d) * m, k * q).

    Leading dimensions index a batch of matrices of one shape.  Block column
    j holds C_0 .. C_d stacked from block row j down, so it takes one slice
    assignment.
    """
    *batch, grade, m, q = coeffs.shape
    column = coeffs.reshape(*batch, grade * m, q)
    data = np.zeros((*batch, (k + grade - 1) * m, k * q), dtype=coeffs.dtype)
    for j in range(k):
        data[..., j * m : (j + grade) * m, j * q : (j + 1) * q] = column
    return data


def _require_wide(M: PolyMat, what: str, graded: bool = False) -> None:
    """ShapeError naming ``what`` unless M is wide and, when ``graded``, of
    grade >= 1."""
    if not M.is_wide:
        raise ShapeError(f"{what} requires a wide matrix, got {M.rows}x{M.cols}")
    if graded and M.degree_bound < 1:
        raise ShapeError(f"{what} requires degree_bound >= 1")


def sylvester(P: PolyMat, k: int) -> np.ndarray:
    """The k-th Sylvester matrix of P at its ambient grade, read-only: block
    (i, j) is C_{i-j} for 0 <= i-j <= d and zero otherwise, so it has
    (k + d) * m rows and k * q columns."""
    data = sylvester_array(P.coeffs, _block_count(k))
    data.flags.writeable = False
    return data


def _banded_r(P: PolyMat, k: int) -> np.ndarray:
    """The upper triangular factor R of a QR of S_k(P)^H, so that
    R^H R = S_k S_k^H and R has the singular values of S_k; for a wide S_k
    it is square, of (k + d) * m rows.

    Block row j of S_k^H is the same q x (d + 1) * m block
    B = [C_0^H .. C_d^H] for every j, at column blocks j .. j + d, so one
    block-row Householder sweep factors it: step j takes ``qr(mode="r")``
    of the rows carried so far stacked on B, keeps the first m rows of the
    result as rows of R, whose column block j no later row touches, and
    carries the rest one block to the left.  This is the R-SVD of Chan
    (ACM TOMS 8, 1982) on the banded Sylvester structure; Householder QR
    is backward stable, so the singular values of R are as accurate as
    those of S_k itself.
    """
    k = _block_count(k)
    grade, m, q = P.coeffs.shape
    window, carry_cols = grade * m, (grade - 1) * m
    rows = (k + grade - 1) * m
    B = P.coeffs.reshape(window, q).conj().T
    R = np.zeros((min(rows, k * q), rows), dtype=P.coeffs.dtype)
    panel = np.zeros((carry_cols + q, window), dtype=P.coeffs.dtype)
    carried = 0
    for j in range(k):
        panel[carried : carried + q] = B
        r = np.linalg.qr(panel[: carried + q], mode="r")
        R[j * m : (j + 1) * m, j * m : j * m + window] = r[:m]
        carried = r.shape[0] - m
        panel[:carried, :carry_cols] = r[m:, m:]
        panel[:carried, carry_cols:] = 0
    R[k * m :, k * m :] = panel[:carried, :carry_cols]
    return R


# Flops that one panel QR of the sweep costs beyond its own count: about
# 15-20 us of call overhead, and a margin for the SVD of R running a few
# percent slower per flop than that of S_k, at about 10 GFLOP/s on one
# thread.  With it, S_k within about 5% of the break-even stay dense.
_PANEL_EXTRA_FLOPS = 1e6


def _sweep_pays(k: int, m: int, q: int, d: int) -> bool:
    """Whether the singular values of S_k, (k + d) m x k q, cost fewer
    flops through ``_banded_r``: a values-only SVD of p x r takes
    4 p^2 r - 4 p^3 / 3 flops, so R saves 4 p^2 (r - p), against k
    Householder QRs of (d m + q) x (d + 1) m panels, 2 w^2 (d m + q - w / 3)
    flops each for w = (d + 1) m, as q > m where S_k is wide."""
    p, r, w = (k + d) * m, k * q, (d + 1) * m
    panel = 2 * w * w * (d * m + q - w / 3) + _PANEL_EXTRA_FLOPS
    return r > p and 4 * p * p * (r - p) > k * panel


def _as_array(A, stack: bool = False) -> np.ndarray:
    arr = np.asarray(A)
    if arr.ndim < 2 or (arr.ndim > 2 and not stack) or arr.size == 0:
        what = "stack of matrices" if stack else "2-d matrix"
        raise ShapeError(f"expected a non-empty {what}, got shape {arr.shape}")
    return arr


_EPS = float(np.finfo(np.float64).eps)

_T = TypeVar("_T")


def default_tolerance(shape: tuple[int, int], sigma1):
    """Standard numerical-rank threshold max(p, q) * eps * sigma1; elementwise
    for an array of sigma1."""
    return sigma1 * (max(shape) * _EPS)


def singular_values(A) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix of a stack
    of shape (..., p, q), along the last axis.  ``singular_values(A)[..., 0]``
    is the spectral norm, bit for bit ``np.linalg.norm(A, 2)``."""
    return np.linalg.svd(_as_array(A, stack=True), compute_uv=False)


# Gap ratio below which a rank decision is reported as marginal.
MARGINAL_GAP = 1e3


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank verdict with the full spectrum kept for diagnostics.

    ``roundoff_floor`` is the default threshold max(shape) * eps * sigma_1 of
    the decided matrix: singular values below it are indistinguishable from
    round-off, so a tolerance below it decides nothing.
    """

    rank: int
    nullity: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    roundoff_floor: float

    @property
    def gap_ratio(self) -> float:
        """Ratio sigma_rank / sigma_{rank+1}, or sigma_rank / tolerance_used
        at full rank; inf at rank 0 or when the denominator is 0."""
        sv = self.singular_values
        below = sv[self.rank] if self.rank < len(sv) else self.tolerance_used
        if self.rank == 0 or below == 0.0:
            return float("inf")
        return sv[self.rank - 1] / below

    @property
    def marginal(self) -> bool:
        """True when the tolerance is below round-off or the gap is small."""
        return self.tolerance_used < self.roundoff_floor or self.gap_ratio < MARGINAL_GAP


def _check_tol(tol) -> None:
    """InputFormatError unless the explicit tolerance ``tol`` is a Python or
    numpy int or float (not a bool) from 0 to the largest float.  Checked before a
    tolerance keys a memo or meets singular values: a negative, NaN or
    infinite threshold would count every or no singular value and turn any
    input into a confident wrong verdict, and a string, bytes or a list is
    no threshold at all."""
    if not (isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
            and 0 <= tol <= sys.float_info.max):
        raise InputFormatError(f"rank tolerance must be a finite number >= 0, got {tol!r}")


def stacked_ranks(
    sv: np.ndarray, shape: tuple[int, int], tol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerical ranks of matrices of one shape from their descending singular
    values ``sv[..., :]``, with the thresholds used and the round-off floors.

    The rank counts singular values above ``tol``, which must be a finite
    number >= 0; when ``tol`` is None the threshold is the round-off floor
    max(shape) * eps * sigma_1 of each matrix.
    """
    floor = default_tolerance(shape, sv[..., 0])
    if tol is None:
        tau = floor
    else:
        _check_tol(tol)
        tau = np.full(floor.shape, float(tol))
    # Counting over the whole array is several times faster for one matrix.
    ranks = np.count_nonzero(sv > tau[..., None], axis=-1 if sv.ndim > 1 else None)
    return ranks, tau, floor


def clearance(sigma, tau):
    """sigma / tau, and 0 where the threshold tau is 0: how far a singular
    value that a rank test needs clears the threshold.  Elementwise for
    arrays; a float threshold gives a float."""
    if isinstance(tau, float):
        return sigma / tau if tau > 0 else 0.0
    return np.divide(sigma, tau, out=np.zeros(tau.shape), where=tau > 0)


def rank_decision(sv: np.ndarray, shape: tuple[int, int], tol: float | None) -> RankDecision:
    """``stacked_ranks`` for one matrix, as a RankDecision."""
    rank, tau, floor = stacked_ranks(sv, shape, tol)
    rank = int(rank)
    return RankDecision(
        rank=rank,
        nullity=shape[1] - rank,
        singular_values=tuple(sv.tolist()),
        tolerance_used=float(tau),
        roundoff_floor=float(floor),
    )


def rank_nullity(A, tol: float | None = None) -> RankDecision:
    """Numerical rank and right nullity of a constant matrix.

    The rank counts singular values above ``tol``, which must be a finite
    number >= 0; when ``tol`` is None the threshold is
    max(rows, cols) * eps * sigma_1.
    """
    arr = _as_array(A)
    return rank_decision(singular_values(arr), arr.shape, tol)


# -- other factorizations of constant matrices -----------------------------------

# Relative residual above which a minimum-norm solve reports inconsistency.
CORRECTION_RESIDUAL_FACTOR = 1e-8


def _complement(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal basis of the orthogonal complement of the columns of a tall
    A (the trailing columns of a complete QR of A), and min |r_ii| of its R,
    which is small when the columns are nearly dependent."""
    q, r = np.linalg.qr(A, mode="complete")
    return q[:, A.shape[1] :], float(np.abs(np.diag(r)).min())


# Rows of the diagonal blocks of a block triangular solve.
_TRIANGULAR_BLOCK = 64


def _triangular_solve(T: np.ndarray, B: np.ndarray, lower: bool) -> np.ndarray:
    """Solution X of T X = B for a square triangular T, lower when ``lower``
    and upper otherwise, by block substitution: each diagonal block of
    ``_TRIANGULAR_BLOCK`` rows is solved by ``np.linalg.solve`` after the
    blocks already solved are subtracted with one product, so the work is
    n^2 * nrhs flops plus small LUs instead of an LU of all of T."""
    n = T.shape[0]
    X = np.empty(B.shape, np.result_type(T, B))
    starts = range(0, n, _TRIANGULAR_BLOCK)
    for i in starts if lower else reversed(starts):
        j = min(i + _TRIANGULAR_BLOCK, n)
        done = slice(0, i) if lower else slice(j, n)
        X[i:j] = np.linalg.solve(T[i:j, i:j], B[i:j] - T[i:j, done] @ X[done])
    return X


def _min_norm_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Minimum-norm solution of A X = B for a wide A of full row rank, by the
    # semi-normal equations: with A^H = QR, A A^H = R^H R, so
    # X = A^H (A A^H)^{-1} B = A^H R^{-1} R^{-H} B needs R alone.  They are
    # as accurate as the solution through Q for minimum-norm problems (Paige
    # 1973; Bjorck, Numerical Methods for Least Squares Problems, 1996).
    AH = A.conj().T
    r = np.linalg.qr(AH, mode="r")
    smallest = float(np.abs(np.diag(r)).min())
    if not smallest > 0.0:
        raise NumericalInconsistencyError(
            f"correction system of shape {A.shape} is singular (min |r_ii| = {smallest:.3e})"
        )

    def semi_normal(rhs: np.ndarray) -> np.ndarray:
        y = _triangular_solve(r.conj().T, rhs, lower=True)
        return AH @ _triangular_solve(r, y, lower=False)

    X = semi_normal(B)
    allowed = CORRECTION_RESIDUAL_FACTOR * (1.0 + np.linalg.norm(B))
    E = A @ X - B
    if np.linalg.norm(E) > allowed:
        # Their residual grows with cond(A) * eps, where a solve through Q
        # keeps it at eps: one step of refinement (the corrected semi-normal
        # equations) brings it back, so only an inconsistent system fails.
        X = X - semi_normal(E)
        E = A @ X - B
    resid = np.linalg.norm(E)
    if resid > allowed:
        raise NumericalInconsistencyError(
            f"correction system inconsistent (residual {resid:.3e}); the "
            "perturbed matrix may have lost full-Sylvester-rank"
        )
    return X


def _nearest_lower_rank(A) -> tuple[np.ndarray, np.ndarray]:
    """Descending singular values of a matrix A and the nearest matrix of
    lower rank (Eckart-Young): A with its smallest singular value set to 0,
    at spectral distance sigma_min from A."""
    u, s, vh = np.linalg.svd(_as_array(A), full_matrices=False)
    s_drop = s.copy()
    s_drop[-1] = 0.0
    return s, (u * s_drop) @ vh


# -- per-matrix memo -------------------------------------------------------------


# Memo key of the highest-row-degree matrix, next to the integer keys k of S_k.
_HR = "hr"


def _shape(P: PolyMat, key: int | str) -> tuple[int, int]:
    """Shape of S_key(P), or of P's highest-row-degree matrix at "hr"."""
    if key == _HR:
        return P.rows, P.cols
    return (key + P.degree_bound) * P.rows, key * P.cols


def _spectrum(P: PolyMat, key: int | str) -> np.ndarray:
    """The read-only descending singular values of S_key(P), or of P's
    highest-row-degree matrix at "hr", computed once per matrix; those of
    an S_k wide enough that ``_sweep_pays`` are those of its ``_banded_r``."""
    memo = P._sylvester_memo
    sv = memo.get(key)
    if sv is None:
        if key == _HR:
            data = highest_row_degree_matrix(P)
        elif _sweep_pays(_block_count(key), P.rows, P.cols, P.degree_bound):
            data = _banded_r(P, key)
        else:
            data = sylvester(P, key)
        sv = memo[key] = singular_values(data)
        sv.flags.writeable = False
    return sv


def _memo_rank(P: PolyMat, key: int | str, tol: float | None) -> RankDecision:
    if tol is not None:
        _check_tol(tol)
    memo = P._sylvester_memo
    dec = memo.get((key, tol))
    if dec is None:
        dec = memo[key, tol] = rank_decision(_spectrum(P, key), _shape(P, key), tol)
    return dec


def weyl_full_rank(P: PolyMat, child: PolyMat, keys: list, eta: float, tol: float | None) -> bool:
    """Whether P's memo and Weyl's inequality show full rank at ``tol`` for
    S_k(child) at each key k of ``keys`` and, at the key "hr", for child's
    highest-row-degree matrix; ``eta`` must bound the spectral norm of
    ``s1_stack(child - P)``.  Factors nothing; False decides nothing.

    S_k(child - P) has norm at most sqrt(k) * eta, so no singular value of
    S_k(child) is farther than that from the same one of S_k(P) (Stewart and
    Sun, Matrix Perturbation Theory, 1990).  With unchanged row degrees the
    highest-row-degree matrices differ by rows of ``s1_stack(child - P)``,
    by at most eta.  A key passes when P's memo holds its singular values,
    the lower bound of the smallest clears the upper bound of the threshold
    by the gap of a decision that is not marginal, and an explicit ``tol``
    is at least the upper bound of the round-off floor.
    """
    for key in keys:
        sv = P._sylvester_memo.get(key)
        if sv is None:
            return False
        if key != _HR:
            shift = math.sqrt(key) * eta
        elif row_degrees(child) == row_degrees(P):
            shift = eta
        else:
            return False
        floor = float(default_tolerance(_shape(P, key), sv[0] + shift))
        tau = floor if tol is None else float(tol)
        if not (0 < tau and floor <= tau and MARGINAL_GAP * tau <= sv[-1] - shift):
            return False
    return True


def memoized(P: PolyMat, name: str, tol: float | None, compute: Callable[[], _T]) -> _T:
    """``compute()``, a report built from P's rank decisions at ``tol``,
    computed once per matrix, report name and tolerance."""
    if tol is not None:
        _check_tol(tol)
    key = (name, tol)
    report = P._sylvester_memo.get(key)
    if report is None:
        report = P._sylvester_memo[key] = compute()
    return report


def memoized_for(P: PolyMat, name: str, tol: float | None, inputs: tuple,
                 compute: Callable[[], _T]) -> _T:
    """``compute()``, a report built from P's rank decisions at ``tol`` and
    from the objects ``inputs``.

    P's memo keeps the latest one per report name and tolerance, in a slot
    that also holds ``inputs``: a call with the same objects, by identity,
    reads it back, and a call with others replaces it.  Identity is sound
    for PolyMats, whose coefficients are read-only, and the slot keeps its
    inputs alive, so their ids cannot be reused.  A ``compute`` that raises
    stores nothing.
    """
    if tol is not None:
        _check_tol(tol)
    key = (name, tol)
    slot = P._sylvester_memo.get(key)
    if slot is None or any(a is not b for a, b in zip(slot, inputs)):
        slot = P._sylvester_memo[key] = (*inputs, compute())
    return slot[-1]


def sylvester_singular_values(P: PolyMat, k: int) -> np.ndarray:
    """Descending singular values of S_k(P), computed once per matrix."""
    return _spectrum(P, k)


def sylvester_nullspace(P: PolyMat, k: int, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the right nullspace of S_k(P), as columns.

    S_k(P) must have full row rank at ``tol``; then the nullspace is the
    orthogonal complement of its row space, that is of the columns of
    S_k^H.  Its rank decision comes from P's memo; the basis is not kept.
    """
    dec = sylvester_rank(P, k, tol)
    rows = _shape(P, k)[0]
    if dec.rank < rows:
        raise NumericalInconsistencyError(
            f"S_{k} has rank {dec.rank} below its {rows} rows (nullity "
            f"{dec.nullity}); a QR nullspace needs full row rank"
        )
    return _complement(sylvester(P, k).conj().T)[0]


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
    if dec.rank < P.rows or not all(P.coeffs[-1].any(axis=1).tolist()):
        return None
    return dec
