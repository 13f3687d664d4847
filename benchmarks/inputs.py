"""Seeded inputs for the benchmark workloads, with their ground truth.

Every input is built from the workload seed alone, so the same seed gives the
same matrices.  The program under test only ever sees the resulting
``PolyMat`` objects and the JSON files written from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import minbasis as mb
from minbasis.dual import admissible_radius

# Fraction of the admissible radius used for the perturbation of M.  Well
# inside the radius, so the certified bound must hold on every input.
PERTURB_FRACTION = 0.25
# Relative size of the perturbation of the free block K in an l-ification.
DELTA_K_SCALE = 1e-3
# Rows of the free block K stacked on top of M in an l-ification.
LIFY_K_ROWS = 2

# (m, n, d, field, matrices per pass).  The first four are overhead-bound, the
# last three spend their time in LAPACK.  The cheap shapes get three matrices
# each, so that their fastest call rests on three times as many samples for
# about 5% more time per pass.  Shapes with t = 0 also run the l-ification.
PIPELINE_SHAPES = (
    (3, 2, 2, "real", 3),
    (2, 3, 1, "real", 3),
    (4, 3, 2, "real", 3),
    (3, 2, 2, "complex", 3),
    (8, 2, 6, "real", 1),
    (20, 5, 3, "real", 1),
    (30, 10, 2, "real", 1),
)
PIPELINE_WARMUP_SHAPES = tuple(shape[:4] + (1,) for shape in PIPELINE_SHAPES[:4])


@dataclass(frozen=True)
class PipelineInput:
    """A full-Sylvester-rank matrix with its perturbations and expected answers."""

    label: str
    coeffs: np.ndarray
    delta: mb.PolyMat
    indices: list[int]
    K: mb.PolyMat | None
    delta_K: mb.PolyMat | None
    path: str


@dataclass(frozen=True)
class ScanInput:
    """A matrix with planted structure and its known verdict.

    ``indices`` is None where right minimal indices are undefined (no full
    row normal rank); ``oracle`` marks the desk-size inputs that are also
    run through the exact rational oracle.
    """

    label: str
    coeffs: np.ndarray
    is_minimal: bool
    reason: str
    indices: list[int] | None
    full_sylvester: bool
    oracle: bool
    path: str


def predicted_indices(m: int, n: int, d: int) -> list[int]:
    """Right minimal indices of a full-Sylvester-rank m x (m+n) matrix of grade
    d: t copies of k'-1 and n-t copies of k', where n k' = m d + t, 0 <= t < n.
    Computed here, not by the package, because it is the ground truth."""
    k_prime = -(-m * d // n)
    t = n * k_prime - m * d
    return [k_prime - 1] * t + [k_prime] * (n - t)


def _gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    arr = rng.standard_normal(shape)
    return arr + 1j * rng.standard_normal(shape) if field == "complex" else arr


def _scaled(arr: np.ndarray, norm: float) -> mb.PolyMat:
    P = mb.PolyMat(arr)
    return mb.scale(P, norm / float(np.linalg.norm(mb.s1_stack(P), 2)))


def _write(P: mb.PolyMat, directory: Path, label: str) -> str:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{label}.json"
    mb.save(P, path)
    return str(path)


def pipeline_inputs(seed: int, shapes, directory: Path) -> list[PipelineInput]:
    """Certified full-Sylvester-rank samples of each shape; the label names
    the shape.

    The perturbation of M is sized here, from the admissible radius of the
    sampled matrix, so the timed pass does not pay for it.
    """
    out = []
    draws = [(shape, c) for shape in shapes for c in range(shape[4])]
    for i, ((m, n, d, field, _), copy) in enumerate(draws):
        label = f"gauss_{m}x{m + n}_d{d}_{field}"
        M = mb.sample_full_sylvester(m, n, d, seed=seed * 1000 + i, field_tag=field)
        rng = np.random.default_rng([seed, i])
        pair = mb.dual_minimal_basis(M)
        radius = admissible_radius(M, pair.N, mb.thetas(M))
        delta = _scaled(_gaussian(rng, M.coeffs.shape, field), PERTURB_FRACTION * radius)
        K = delta_K = None
        indices = predicted_indices(m, n, d)
        if len(set(indices)) == 1:  # t = 0: all indices equal, an l-ification exists
            K = mb.PolyMat(_gaussian(rng, (d + 1, LIFY_K_ROWS, m + n), field))
            norm_K = float(np.linalg.norm(mb.s1_stack(K), 2))
            delta_K = _scaled(_gaussian(rng, K.coeffs.shape, field), DELTA_K_SCALE * norm_K)
        out.append(
            PipelineInput(
                label=label,
                coeffs=M.coeffs,
                delta=delta,
                indices=indices,
                K=K,
                delta_K=delta_K,
                path=_write(M, directory, f"{label}_{copy}"),
            )
        )
    return out


# -- planted structure ----------------------------------------------------------


def _unimodular(size: int, rng: np.random.Generator) -> np.ndarray:
    """Integer matrix with determinant +-1: permuted product of unit triangulars."""
    lower = np.tril(rng.integers(-1, 2, (size, size)), -1) + np.eye(size, dtype=np.int64)
    upper = np.triu(rng.integers(-1, 2, (size, size)), 1) + np.eye(size, dtype=np.int64)
    return (lower @ upper)[rng.permutation(size)]


def _kronecker_stack(epsilons) -> np.ndarray:
    """Block-diagonal L_eps blocks, L_eps = lambda [I 0] - [0 I] of size eps x (eps+1).

    Each block contributes one right minimal index eps; eps = 0 adds a zero
    column.  Returns the (2, m, q) coefficient stack.
    """
    m = sum(epsilons)
    q = m + len(epsilons)
    coeffs = np.zeros((2, m, q))
    r = c = 0
    for eps in epsilons:
        for i in range(eps):
            coeffs[1, r + i, c + i] = 1.0
            coeffs[0, r + i, c + i + 1] = -1.0
        r += eps
        c += eps + 1
    return coeffs


def planted(epsilons, rng: np.random.Generator) -> np.ndarray:
    """Minimal basis with right minimal indices ``epsilons``, mixed as U L V by
    integer unimodular U and V so that no structure is visible."""
    L = _kronecker_stack(epsilons)
    m, q = L.shape[1:]
    U = _unimodular(m, rng).astype(float)
    V = _unimodular(q, rng).astype(float)
    return np.stack([U @ C @ V for C in L])


def common_factor(m: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """(lambda - 2) * C for an integer C of full row rank: every row shares a root."""
    while True:
        C = rng.integers(-2, 3, (m, q)).astype(float)
        if np.linalg.matrix_rank(C) == m:
            return np.stack([-2.0 * C, C])


def raise_first_row(coeffs: np.ndarray) -> np.ndarray:
    """U(lambda) M with U = I + lambda e_1 e_2^T: same right nullspace, but the
    highest-row-degree matrix loses rank because row 1 now leads with row 2."""
    d = coeffs.shape[0] - 1
    out = np.zeros((d + 2,) + coeffs.shape[1:])
    out[: d + 1] = coeffs
    out[1:, 0, :] += coeffs[:, 1, :]
    return out


def duplicate_row(coeffs: np.ndarray) -> np.ndarray:
    """Appends a copy of the first row, so the normal rank is below the row count."""
    return np.concatenate([coeffs, coeffs[:, :1, :]], axis=1)


def scan_inputs(seed: int, directory: Path, small: bool = False) -> list[ScanInput]:
    """Planted inputs with known verdicts.

    ``small`` drops the long scans and the large non-minimal variants; the
    warm-up uses it.  The desk-size inputs marked ``oracle`` are small enough
    for the exact rational oracle.
    """
    rng = np.random.default_rng([seed, 0x5CA7])
    specs = [
        # label, coefficients, minimal, reason, indices, full Sylvester, oracle
        ("planted_0_1_3", planted((0, 1, 3), rng), True, "ok", [0, 1, 3], False, True),
        ("planted_1_2_5", planted((1, 2, 5), rng), True, "ok", [1, 2, 5], False, True),
        ("common_factor_3x5", common_factor(3, 5, rng), False, "degree_sum_mismatch",
         [0, 0], False, True),
        ("hr_deficient_1_2", raise_first_row(planted((1, 2), rng)), False,
         "hr_rank_deficient", [1, 2], False, True),
        ("duplicate_row_1_2", duplicate_row(planted((1, 2), rng)), False,
         "not_full_normal_rank", None, False, True),
    ]
    if not small:
        specs += [
            ("planted_1_1_1_1_20", planted((1, 1, 1, 1, 20), rng), True, "ok",
             [1, 1, 1, 1, 20], False, False),
            ("hr_deficient_1_2_5", raise_first_row(planted((1, 2, 5), rng)), False,
             "hr_rank_deficient", [1, 2, 5], False, False),
            ("duplicate_row_1_2_5", duplicate_row(planted((1, 2, 5), rng)), False,
             "not_full_normal_rank", None, False, False),
        ]
    # The near-miss from ROADMAP item 5: a common factor broken by noise of
    # size 1e-9.  Generic, hence a minimal basis of full-Sylvester-rank, but
    # only just; the oracle confirms the verdict on the exact float values.
    noisy = common_factor(2, 4, rng) + 1e-9 * rng.standard_normal((2, 2, 4))
    specs.append(("near_common_factor_2x4", noisy, True, "ok", [1, 1], True, True))

    out = []
    for label, coeffs, minimal, reason, indices, fullsyl, oracle in specs:
        P = mb.PolyMat(coeffs)
        out.append(
            ScanInput(
                label=label,
                coeffs=P.coeffs,
                is_minimal=minimal,
                reason=reason,
                indices=indices,
                full_sylvester=fullsyl,
                oracle=oracle,
                path=_write(P, directory, label),
            )
        )
    return out
