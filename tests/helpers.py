"""Shared builders for the block-bidiagonal worked examples and random
inputs, the reversal of a matrix, the exact oracle's kernel on one matrix
with a reference nullspace, and a spy on the package's factorizations."""

import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from minbasis import PolyMat, oracle
from minbasis.errors import ShapeError
from minbasis.polymat import degree, s1_stack, scale
from minbasis.sylvester import sylvester_array


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


def reversal(P: PolyMat, grade: int) -> PolyMat:
    """Reverse the coefficient order within the given grade.

    The output coefficient i equals C_{grade - i}.  Requires
    ``grade >= degree(P)`` so no nonzero coefficient is dropped.
    """
    deg = degree(P)
    if grade < deg:
        raise ShapeError(f"grade below degree ({grade} < {deg})")
    rev = np.zeros((grade + 1, P.rows, P.cols), dtype=P.coeffs.dtype)
    for i in range(grade + 1):
        src = grade - i
        if src <= P.degree_bound:
            rev[i] = P.coeffs[src]
    return PolyMat(rev)


def exact_nullspace(A) -> list[list[Fraction]]:
    """The exact oracle's right nullspace basis of a 2-D array-like of ints,
    floats or Fractions (A @ v == 0 for each basis vector): one vector per
    non-pivot column of the reduced row echelon form."""
    _, V, D = oracle._rank_nullspace(oracle._integer_rows(oracle._fraction_matrix(A)))
    return [[Fraction(int(v), D) for v in row] for row in V]


def exact_sylvester(M: PolyMat, k: int) -> np.ndarray:
    """S_k of M over Fractions, as an object array, from the float path's
    builder and the exact oracle's coefficients."""
    return sylvester_array(oracle._fraction_coeffs(M), k)


def fraction_nullspace(A) -> list[list[Fraction]]:
    """Right nullspace basis of a matrix of ints or Fractions, one vector per
    non-pivot column of its reduced row echelon form, by Gauss-Jordan
    elimination over Fractions: the reference for ``exact_nullspace``."""
    R = [[Fraction(x) for x in row] for row in A]
    cols = len(R[0])
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                R[i] = [x - R[i][c] * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    free = [c for c in range(cols) if c not in pivots]
    basis = [[Fraction(int(c == f)) for c in range(cols)] for f in free]
    for vec, f in zip(basis, free):
        for i, c in enumerate(pivots):
            vec[c] = -R[i][f]
    return basis


class Call(NamedTuple):
    """One logged factorization: ``kind`` is "svd", "qr" or "lstsq"; ``key``
    is (id(P), k) for S_k(P) or its conjugate transpose, else None;
    ``detail`` is whether an SVD computes vectors, or the mode of a QR;
    ``hr_of`` is id(P) for the highest-row-degree matrix of P, else None."""

    kind: str
    key: tuple[int, int] | None
    detail: bool | str | None
    hr_of: int | None = None


def svds_of(calls: list[Call], *matrices) -> list[Call]:
    """The SVD calls among ``calls`` of an S_k or of the highest-row-degree
    matrix of one of ``matrices``."""
    ids = {id(P) for P in matrices}
    return [c for c in calls if c.kind == "svd"
            and (c.hr_of in ids or (c.key is not None and c.key[0] in ids))]


class LinalgSpy:
    """Logs every ``numpy.linalg`` ``svd``, ``qr`` and ``lstsq`` call while
    installed.

    A call is keyed by content: its input is compared with each S_k(P) that
    ``sylvester`` in any module of the package built since installation, and
    with each highest-row-degree matrix that the memo in
    ``minbasis.sylvester`` built, newest first.  Built matrices are kept
    alive, so ids stay unique.
    """

    def __init__(self, monkeypatch):
        memo_module = sys.modules["minbasis.sylvester"]
        build = memo_module.sylvester
        build_hr = memo_module.highest_row_degree_matrix
        originals = {name: getattr(np.linalg, name) for name in ("svd", "qr", "lstsq")}
        self.calls: list[Call] = []
        self._built: list[tuple[object, np.ndarray, bool]] = []

        def spy_build(P, k):
            S = build(P, k)
            self._built.append((P, S, False))
            return S

        def spy_build_hr(P):
            H = build_hr(P)
            self._built.append((P, H, True))
            return H

        def spy(kind, detail):
            def call(a, *args, **kwargs):
                key, hr_of = self._key(a)
                self.calls.append(Call(kind, key, detail(args, kwargs), hr_of))
                return originals[kind](a, *args, **kwargs)
            return call

        for name, module in list(sys.modules.items()):
            if name.startswith("minbasis.") and getattr(module, "sylvester", None) is build:
                monkeypatch.setattr(module, "sylvester", spy_build)
        monkeypatch.setattr(memo_module, "highest_row_degree_matrix", spy_build_hr)
        monkeypatch.setattr(np.linalg, "svd", spy("svd", lambda args, kw: bool(
            kw.get("compute_uv", args[1] if len(args) > 1 else True))))
        monkeypatch.setattr(np.linalg, "qr", spy("qr", lambda args, kw: kw.get(
            "mode", args[0] if args else "reduced")))
        monkeypatch.setattr(np.linalg, "lstsq", spy("lstsq", lambda args, kw: None))

    def _key(self, a) -> tuple[tuple[int, int] | None, int | None]:
        """(key, hr_of) of a logged input."""
        a = np.asarray(a)
        for P, data, hr in reversed(self._built):
            if (a.shape == data.shape and np.array_equal(a, data)) or (
                a.shape == data.shape[::-1] and np.array_equal(a, data.conj().T)
            ):
                return (None, id(P)) if hr else ((id(P), data.shape[1] // P.cols), None)
        return None, None

    def take(self, *kinds: str) -> list[Call]:
        """The calls of the given kinds (all when none is given) since the
        last take; the log is then cleared."""
        calls, self.calls = self.calls, []
        return [c for c in calls if not kinds or c.kind in kinds]
