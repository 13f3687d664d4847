"""Shared builders for the block-bidiagonal worked examples and random inputs."""

import numpy as np

from minbasis import PolyMat
from minbasis.polymat import s1_stack, scale


def example1() -> PolyMat:
    """6x8 degree-1 block matrix [-I2, lam*I2] staircase; a minimal basis."""
    I2 = np.eye(2)
    C0 = np.zeros((6, 8))
    C1 = np.zeros((6, 8))
    for b in range(3):
        C0[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = -I2
        C1[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = I2
    return PolyMat.from_coeff_list([C0, C1])


def example1_N() -> PolyMat:
    """2x8 dual of example1: [lam^3 I2, lam^2 I2, lam I2, I2]."""
    I2 = np.eye(2)
    coeffs = [np.zeros((2, 8)) for _ in range(4)]
    for power in range(4):
        block = 3 - power
        coeffs[power][:, 2 * block : 2 * block + 2] = I2
    return PolyMat.from_coeff_list(coeffs)


def example2() -> PolyMat:
    """4x7 degree-1 matrix that is row reduced but not a minimal basis."""
    C0 = np.zeros((4, 7))
    C1 = np.zeros((4, 7))
    C1[0, 0] = 1
    C0[1, 2] = -1
    C1[1, 3] = 1
    C0[2, 4] = -1
    C1[2, 5] = 1
    C0[3, 5] = -1
    C1[3, 6] = 1
    return PolyMat.from_coeff_list([C0, C1])


def example2_N() -> PolyMat:
    """3x7 matrix spanning the right nullspace of example2."""
    C0 = np.zeros((3, 7))
    C1 = np.zeros((3, 7))
    C2 = np.zeros((3, 7))
    C0[0, 1] = 1
    C1[1, 2] = 1
    C0[1, 3] = 1
    C2[2, 4] = 1
    C1[2, 5] = 1
    C0[2, 6] = 1
    return PolyMat.from_coeff_list([C0, C1, C2])


def example3() -> PolyMat:
    """6x8 matrix of mixed row degrees 1 and 2; minimal but fragile."""
    I2 = np.eye(2)
    C0 = np.zeros((6, 8))
    C1 = np.zeros((6, 8))
    C2 = np.zeros((6, 8))
    for b in range(3):
        C0[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = -I2
    C1[0:2, 2:4] = I2
    C1[2:4, 4:6] = I2
    C2[4:6, 6:8] = I2
    return PolyMat.from_coeff_list([C0, C1, C2])


def example3_N() -> PolyMat:
    """2x8 dual of example3: [lam^4 I2, lam^3 I2, lam^2 I2, I2]."""
    I2 = np.eye(2)
    coeffs = [np.zeros((2, 8)) for _ in range(5)]
    coeffs[4][:, 0:2] = I2
    coeffs[3][:, 2:4] = I2
    coeffs[2][:, 4:6] = I2
    coeffs[0][:, 6:8] = I2
    return PolyMat.from_coeff_list(coeffs)


def flat_1311() -> PolyMat:
    """1x4 degree-1 matrix [1, lam, 0, 0]; flat case with k' = 1, t = 2."""
    return PolyMat.from_coeff_list([[[1.0, 0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0, 0.0]]])


def one_lambda() -> PolyMat:
    """1x2 minimal basis [1, lam]."""
    return PolyMat.from_coeff_list([[[1.0, 0.0]], [[0.0, 1.0]]])


def one_lambda_dual() -> PolyMat:
    """1x2 dual [-lam, 1]."""
    return PolyMat.from_coeff_list([[[0.0, 1.0]], [[-1.0, 0.0]]])


def random_perturbation(
    M: PolyMat, target_norm: float, rng: np.random.Generator
) -> PolyMat:
    """Gaussian perturbation of M's shape scaled to the given spectral norm."""
    raw = PolyMat(
        rng.standard_normal(M.coeffs.shape)
        if M.field == "real"
        else rng.standard_normal(M.coeffs.shape)
        + 1j * rng.standard_normal(M.coeffs.shape)
    )
    current = np.linalg.norm(s1_stack(raw), 2)
    return scale(raw, target_norm / current)


def common_factor_2x4() -> PolyMat:
    """(lam - 2) * C for C = [[1, 2, 0, 1], [0, 1, 1, 3]]: full-rank leading
    coefficient, but every row vanishes at lam = 2, so not a minimal basis."""
    C = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 3.0]])
    return PolyMat.from_coeff_list([-2.0 * C, C])


def planted_indices(epsilons, rng: np.random.Generator) -> PolyMat:
    """Minimal basis of grade 1 with right minimal indices ``epsilons``.

    Block-diagonal L_eps = lam [I 0] - [0 I] (eps x (eps+1), one index eps
    each; eps = 0 is a zero column) mixed as U L V by constant integer
    unimodular U and V, so the structure is hidden but exact.
    """
    m = sum(epsilons)
    q = m + len(epsilons)
    L = np.zeros((2, m, q))
    r = c = 0
    for eps in epsilons:
        L[1, r : r + eps, c : c + eps] = np.eye(eps)
        L[0, r : r + eps, c + 1 : c + eps + 1] = -np.eye(eps)
        r, c = r + eps, c + eps + 1

    def unimodular(size):
        lower = np.tril(rng.integers(-1, 2, (size, size)), -1) + np.eye(size)
        upper = np.triu(rng.integers(-1, 2, (size, size)), 1) + np.eye(size)
        return (lower @ upper)[rng.permutation(size)]

    U, V = unimodular(m), unimodular(q)
    return PolyMat(np.stack([U @ C @ V for C in L]))
