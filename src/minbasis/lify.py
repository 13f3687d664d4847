"""Strong l-ification assembly, recovery, and backward-error accounting.

Stacking a free block K on top of a full-Sylvester-rank block M with all
right minimal indices equal produces a strong l-ification L = [K; M] of the
recovered polynomial P = K * N^T, where N is any minimal basis dual to M.
Perturbing L admissibly perturbs P, and the relative backward error on P is
controlled by an explicit, computable constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, PropertyViolationError, ShapeError
from .dual import DualPair, PerturbReport, dual_minimal_basis, propagate_perturbation
from .fullsyl import _require_full_sylvester
from .minimal import _evaluation_rank, _indices_or_none, rank_profile
from .polymat import (
    PolyMat,
    _require_congruent,
    add,
    poly_multiply_transpose,
    s1_stack,
    vstack_polymats,
)
from .sylvester import _require_wide, sylvester_singular_values

__all__ = [
    "Lification",
    "BackwardErrorReport",
    "build_lification",
    "backward_error_map",
    "minimal_index_shift_check",
]


@dataclass(frozen=True)
class Lification:
    """A stacked strong l-ification with its recovered polynomial."""

    K: PolyMat
    M: PolyMat
    L: PolyMat
    N: PolyMat
    P: PolyMat
    k_prime: int
    ell: int
    pair: DualPair


def build_lification(K: PolyMat, M: PolyMat, tol: float | None = None) -> Lification:
    """Assemble L = [K; M] and recover P = K * N^T.

    Requires K and M to share columns and grade, M to have full-Sylvester-rank
    with all right minimal indices equal (t = 0, i.e. n divides m*ell).
    """
    if K.cols != M.cols or K.degree_bound != M.degree_bound:
        raise ShapeError("K and M must share column count and grade")
    _require_wide(M, "build_lification")
    ell = M.degree_bound
    m, n = M.rows, M.cols - M.rows
    if (m * ell) % n != 0:
        raise PreconditionError(
            f"m*ell = {m * ell} is not divisible by n = {n}; the dual degree "
            "k' would not be an integer"
        )
    # With n dividing m*ell, t = n*k' - m*ell is 0: all indices are equal.
    _require_full_sylvester(M, tol, "build_lification")
    pair = dual_minimal_basis(M, tol)
    P = poly_multiply_transpose(K, pair.N)
    L = vstack_polymats([K, M])
    return Lification(
        K=K, M=M, L=L, N=pair.N, P=P, k_prime=pair.k_prime_t.k_prime, ell=ell,
        pair=pair,
    )


@dataclass(frozen=True)
class BackwardErrorReport:
    """Backward error carried from a perturbation of L to the recovered P.

    ``perturbation`` is the propagation of delta_M to the dual basis that
    the map computed; ``minimal_index_shift_check`` reads it.
    """

    C_PL: float
    prefactor: float
    delta_P: PolyMat
    relative_dP: float
    bound_rhs: float
    admissible: bool
    factors: dict
    perturbation: PerturbReport


def backward_error_map(
    lif: Lification, delta_K: PolyMat, delta_M: PolyMat, tol: float | None = None
) -> BackwardErrorReport:
    """Map (delta_K, delta_M) to the induced delta_P and check the bound.

    The dual-basis change delta_N is the minimum-norm propagation; delta_P
    expands as delta_K*N^T + K*delta_N^T + delta_K*delta_N^T.  The relative
    change of P is asserted against min(sqrt(k'+1), sqrt(ell+1)) * C_PL times
    the relative change of L.
    """
    _require_congruent(lif.K, delta_K, "backward_error_map: delta_K")
    pert = propagate_perturbation(lif.pair, delta_M, tol)
    delta_N = pert.delta_N
    K, M, N, P = lif.K, lif.M, lif.N, lif.P
    kp, ell = lif.k_prime, lif.ell

    term1 = poly_multiply_transpose(delta_K, N)
    term2 = poly_multiply_transpose(K, delta_N)
    term3 = poly_multiply_transpose(delta_K, delta_N)
    delta_P = add(add(term1, term2), term3)

    norm_L = float(np.linalg.norm(s1_stack(lif.L)))
    norm_P = float(np.linalg.norm(s1_stack(P)))
    if norm_P == 0.0:
        raise PreconditionError("recovered polynomial is zero; relative error undefined")
    norm_N = float(np.linalg.norm(s1_stack(N)))
    norm_K = float(np.linalg.norm(s1_stack(K)))
    norm_dK = float(np.linalg.norm(s1_stack(delta_K)))
    sigma_next = float(sylvester_singular_values(M, kp + 1)[-1])
    delta_L = vstack_polymats([delta_K, delta_M])
    norm_dL = float(np.linalg.norm(s1_stack(delta_L)))

    C_PL = (norm_L / norm_P) * norm_N * (
        1.0 + (2.0 * math.sqrt(kp + 1) / sigma_next) * (norm_K + norm_dK)
    )
    prefactor = min(math.sqrt(kp + 1), math.sqrt(ell + 1))
    bound_rhs = prefactor * C_PL * norm_dL / norm_L
    relative_dP = float(np.linalg.norm(s1_stack(delta_P))) / norm_P
    if relative_dP > bound_rhs:
        raise PropertyViolationError(
            f"backward-error bound violated: {relative_dP!r} > {bound_rhs!r}"
        )
    return BackwardErrorReport(
        C_PL=C_PL,
        prefactor=prefactor,
        delta_P=delta_P,
        relative_dP=relative_dP,
        bound_rhs=bound_rhs,
        admissible=True,
        factors={
            "norm_L": norm_L,
            "norm_P": norm_P,
            "norm_N": norm_N,
            "norm_K": norm_K,
            "norm_delta_K": norm_dK,
            "norm_delta_L": norm_dL,
            "sigma_next_sylvester": sigma_next,
            "applied_norm_delta_M": pert.applied_norm,
        },
        perturbation=pert,
    )


def _right_indices_or_none(Q: PolyMat, tol: float | None) -> list[int] | None:
    """Right minimal indices of Q; None when Q lacks full row normal rank
    (check skipped), as a tall Q always does."""
    if Q.rows > Q.cols:
        return None
    if Q.rows == Q.cols:
        # Square: full normal rank means an empty right nullspace.
        return [] if _evaluation_rank(Q, tol) == Q.rows else None
    return _indices_or_none(rank_profile(Q, tol=tol))


def minimal_index_shift_check(
    lif: Lification,
    delta_K: PolyMat,
    perturbation: PerturbReport,
    tol: float | None = None,
) -> bool | None:
    """Verify that the perturbed L's right minimal indices are the perturbed
    P's shifted up by k'.

    ``perturbation`` is the propagation of delta_M to ``lif``'s dual basis
    (``BackwardErrorReport.perturbation``); M + delta_M and N + delta_N are
    read from its perturbed pair.  Returns None (skipped) when the perturbed
    P lacks full row normal rank, where the index computation does not apply;
    a tall P (K with more rows than N) always lacks it.
    """
    K_new = add(lif.K, delta_K)
    M_new = perturbation.perturbed_pair.M
    N_new = perturbation.perturbed_pair.N
    L_new = vstack_polymats([K_new, M_new])
    P_new = poly_multiply_transpose(K_new, N_new)
    p_indices = _right_indices_or_none(P_new, tol)
    if p_indices is None:
        return None
    l_indices = _right_indices_or_none(L_new, tol)
    if l_indices is None:
        return None
    return sorted(l_indices) == sorted(e + lif.k_prime for e in p_indices)
