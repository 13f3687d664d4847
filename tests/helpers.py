"""Shared builders for the block-bidiagonal worked examples and random
inputs, the degree and the reversal of a matrix, a multi-prime exact kernel
on one matrix with a reference nullspace, the per-k exact profile,
entry-by-entry references for the JSON loader, a double-loop polynomial
product and a minimum-norm solve through Q, and a spy on the package's
factorizations."""

import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from minbasis import PolyMat, oracle
from minbasis.errors import InputFormatError, NumericalInconsistencyError, ShapeError
from minbasis.minimal import RankProfile, _profile, _scan
from minbasis.polymat import _check_field, evaluate_array, s1_stack, scale
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


def near_common_factor() -> PolyMat:
    """``common_factor_2x4`` plus noise of size 1e-9, which gives every
    coefficient a dyadic denominator near 2^82."""
    C = common_factor_2x4()
    rng = np.random.default_rng(4)
    return PolyMat(C.coeffs + 1e-9 * rng.standard_normal(C.coeffs.shape))


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


def raised_first_row(P: PolyMat) -> PolyMat:
    """(I + lam e1 e2^T) P at one grade more: row 0 plus lam times row 1.
    The rows span the same module, so the right nullspace stays, but the
    highest-row-degree matrix repeats row 1's and loses full row rank."""
    raised = np.zeros((P.degree_bound + 2,) + P.coeffs.shape[1:], dtype=P.coeffs.dtype)
    raised[:-1] = P.coeffs
    raised[1:, 0, :] += P.coeffs[:, 1, :]
    return PolyMat(raised)


def degree(P: PolyMat) -> int:
    """Largest i with C_i nonzero; 0 for the zero matrix by convention."""
    for i in range(P.degree_bound, -1, -1):
        if np.any(P.coeffs[i]):
            return i
    return 0


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


def _rank_nullspace(A: np.ndarray) -> tuple[int, np.ndarray, int]:
    """Exact rank of an integer matrix, with a proof of each bound, and its
    reduced row echelon nullspace basis as integer rows V over one
    denominator D: the reference for the oracle's one-pass ranks.

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
    A = oracle._compact(A)
    rows, cols = A.shape
    best, m, X, cap = None, 1, None, None
    for p in oracle._primes(2**31):
        E, pivots = oracle._echelon(A, p)
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
        X, m = oracle._crt(X, m, oracle._reduced(E, pivots, free, p), p)
        lifted = oracle._lift(X, m)
        if lifted is not None:
            Y, D = lifted
            V = np.zeros((cols - rank, cols), dtype=object)
            V[np.arange(cols - rank), free] = D
            V[:, pivots] = -Y.T
            if oracle._vanishes(A, V):
                return rank, V, D
        if cap is None:
            cap = 2 * oracle._minor_bound_squared(A)
        if m > cap:
            raise NumericalInconsistencyError(
                f"no integer nullspace of a {rows}x{cols} matrix certifies rank {rank} "
                f"modulo a {m.bit_length()}-bit prime product, past the Hadamard bound "
                f"2H^2 of {cap.bit_length()} bits"
            )


def _rank(A: np.ndarray) -> int:
    """Exact rank of an integer matrix by the kernel, certified on the side
    with fewer columns, which has the smaller nullspace."""
    return _rank_nullspace(A.T if A.shape[1] > A.shape[0] else A)[0]


def _exact_normal_rank(Z: np.ndarray) -> int:
    """The exact normal rank of an integer coefficient stack: every minor
    has degree at most d * min(m, q), so the largest kernel rank at one
    more integer point than that is exact."""
    grade, m, q = Z.shape
    full = min(m, q)
    best = 0
    for lam in range(1, (grade - 1) * full + 2):
        best = max(best, _rank(evaluate_array(Z, np.asarray(lam))))
        if best == full:
            break
    return best


def exact_nullspace(A) -> list[list[Fraction]]:
    """The kernel's right nullspace basis of a 2-D array-like of ints,
    floats or Fractions (A @ v == 0 for each basis vector): one vector per
    non-pivot column of the reduced row echelon form."""
    _, V, D = _rank_nullspace(oracle._integer_rows(oracle._fraction_matrix(A)))
    return [[Fraction(int(v), D) for v in row] for row in V]


def fraction_coeffs(M: PolyMat) -> np.ndarray:
    """M's coefficients as Fractions, each the exact value of its float: the
    reference for the oracle's integer coefficients."""
    return np.frompyfunc(Fraction, 1, 1)(M.coeffs)


def exact_sylvester(M: PolyMat, k: int) -> np.ndarray:
    """S_k of M over Fractions, as an object array, from the float path's
    builder."""
    return sylvester_array(fraction_coeffs(M), k)


def per_k_exact_profile(M: PolyMat, k_max: int | None = None) -> RankProfile:
    """``exact_rank_profile`` with the kernel certifying every S_k from
    scratch and M's rank at each evaluation point: the reference for the
    one-pass profile."""
    Z = oracle._integer_rows(fraction_coeffs(M))
    compact = oracle._compact(Z)
    ranks, stopped, measured = _scan(M, k_max, lambda k: _rank(sylvester_array(compact, k)))
    return _profile(M, ranks, _exact_normal_rank(Z), stopped, measured, (), None)


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


def _reference_entry(value, field: str, where: str):
    if field == "real":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputFormatError(f"{where}: expected a real number, got {value!r}")
    elif (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise InputFormatError(f"{where}: expected an [re, im] pair, got {value!r}")
    try:
        return float(value) if field == "real" else complex(value[0], value[1])
    except OverflowError:
        raise InputFormatError(f"{where}: number too large for a float") from None


def reference_from_dict(obj: dict) -> PolyMat:
    """``polymat.from_dict`` one Python call per coefficient entry, with its
    structural checks in the same order: the reference for the loader."""
    if not isinstance(obj, dict):
        raise InputFormatError("top-level value must be an object")
    for key in ("field", "rows", "cols", "degree_bound", "coefficients"):
        if key not in obj:
            raise InputFormatError(f"missing required key {key!r}")
    field = obj["field"]
    _check_field(field)
    rows, cols, db = obj["rows"], obj["cols"], obj["degree_bound"]
    for name, val, low in (("rows", rows, 1), ("cols", cols, 1), ("degree_bound", db, 0)):
        if isinstance(val, bool) or not isinstance(val, int) or val < low:
            raise InputFormatError(f"{name}: expected an integer >= {low}, got {val!r}")
    coeff_obj = obj["coefficients"]
    if not isinstance(coeff_obj, list) or len(coeff_obj) != db + 1:
        got = len(coeff_obj) if isinstance(coeff_obj, list) else type(coeff_obj).__name__
        raise InputFormatError(
            f"coefficients: expected {db + 1} matrices for degree_bound {db}, got {got}"
        )
    arr = np.zeros((db + 1, rows, cols), dtype=complex if field == "complex" else float)
    for i, mat in enumerate(coeff_obj):
        if not isinstance(mat, list) or len(mat) != rows:
            raise InputFormatError(
                f"coefficients[{i}]: expected {rows} rows, got "
                f"{len(mat) if isinstance(mat, list) else type(mat).__name__}"
            )
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != cols:
                raise InputFormatError(
                    f"coefficients[{i}][{r}]: expected {cols} columns, got "
                    f"{len(row) if isinstance(row, list) else type(row).__name__}"
                )
            for c, value in enumerate(row):
                arr[i, r, c] = _reference_entry(value, field, f"coefficients[{i}][{r}][{c}]")
    return PolyMat(arr)


def reference_to_dict(P: PolyMat) -> dict:
    """``polymat.to_dict`` one Python call per coefficient entry: the
    reference for the saved JSON."""
    if P.field == "real":
        coeffs = [[[float(v) for v in row] for row in C] for C in P.coeffs]
    else:
        coeffs = [[[[float(v.real), float(v.imag)] for v in row] for row in C] for C in P.coeffs]
    return {"field": P.field, "rows": P.rows, "cols": P.cols,
            "degree_bound": P.degree_bound, "coefficients": coeffs}


def reference_poly_multiply_transpose(A: PolyMat, B: PolyMat) -> PolyMat:
    """``polymat.poly_multiply_transpose`` by one small product A_i B_j^T per
    pair of coefficients, added into coefficient i + j: the reference for
    the one product of the stacked coefficients."""
    da, db = A.degree_bound, B.degree_bound
    out = np.zeros((da + db + 1, A.rows, B.rows), dtype=A.coeffs.dtype)
    for i in range(da + 1):
        for j in range(db + 1):
            out[i + j] += A.coeffs[i] @ B.coeffs[j].T
    return PolyMat(out)


def qr_min_norm_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of A X = B for a wide A of full row rank through
    the Q of a reduced QR A^H = QR: X = Q R^{-H} B.  The reference for the
    semi-normal equations of ``sylvester._min_norm_solve``."""
    q, r = np.linalg.qr(A.conj().T)
    return q @ np.linalg.solve(r.conj().T, B)


class Call(NamedTuple):
    """One logged factorization: ``kind`` is "svd", "qr" or "lstsq"; ``key``
    is (id(P), k) for S_k(P), its conjugate transpose, its banded R or a
    panel of the sweep that builds R or the nullspace, else None;
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

    A call made inside the banded sweep of S_k(P) (a panel QR), for its R
    or for its nullspace, is keyed to (id(P), k).  Any other call is keyed
    by content: its input is compared with each S_k(P) that ``sylvester``
    in any module of the package built since installation, each R that the
    sweep built for S_k(P), and each highest-row-degree matrix that the
    memo in ``minbasis.sylvester`` built, newest first.  Built matrices are kept
    alive, so ids stay unique.
    """

    def __init__(self, monkeypatch):
        memo_module = sys.modules["minbasis.sylvester"]
        build = memo_module.sylvester
        build_hr = memo_module.highest_row_degree_matrix
        sweep = memo_module._banded_r
        originals = {name: getattr(np.linalg, name) for name in ("svd", "qr", "lstsq")}
        self.calls: list[Call] = []
        # (P, matrix, k), with k = None for a highest-row-degree matrix.
        self._built: list[tuple[object, np.ndarray, int | None]] = []
        self._sweeping: tuple[int, int] | None = None

        def spy_build(P, k):
            S = build(P, k)
            self._built.append((P, S, S.shape[1] // P.cols))
            return S

        def spy_build_hr(P):
            H = build_hr(P)
            self._built.append((P, H, None))
            return H

        def spy_sweep(P, k, nullspace=False):
            self._sweeping = (id(P), k)
            try:
                result = sweep(P, k, nullspace)
            finally:
                self._sweeping = None
            self._built.append((P, result[0] if nullspace else result, k))
            return result

        def spy(kind, detail):
            def call(a, *args, **kwargs):
                key, hr_of = (self._sweeping, None) if self._sweeping else self._key(a)
                self.calls.append(Call(kind, key, detail(args, kwargs), hr_of))
                return originals[kind](a, *args, **kwargs)
            return call

        for name, module in list(sys.modules.items()):
            if name.startswith("minbasis.") and getattr(module, "sylvester", None) is build:
                monkeypatch.setattr(module, "sylvester", spy_build)
        monkeypatch.setattr(memo_module, "highest_row_degree_matrix", spy_build_hr)
        monkeypatch.setattr(memo_module, "_banded_r", spy_sweep)
        monkeypatch.setattr(np.linalg, "svd", spy("svd", lambda args, kw: bool(
            kw.get("compute_uv", args[1] if len(args) > 1 else True))))
        monkeypatch.setattr(np.linalg, "qr", spy("qr", lambda args, kw: kw.get(
            "mode", args[0] if args else "reduced")))
        monkeypatch.setattr(np.linalg, "lstsq", spy("lstsq", lambda args, kw: None))

    def _key(self, a) -> tuple[tuple[int, int] | None, int | None]:
        """(key, hr_of) of a logged input."""
        a = np.asarray(a)
        for P, data, k in reversed(self._built):
            if (a.shape == data.shape and np.array_equal(a, data)) or (
                a.shape == data.shape[::-1] and np.array_equal(a, data.conj().T)
            ):
                return (None, id(P)) if k is None else ((id(P), k), None)
        return None, None

    def take(self, *kinds: str) -> list[Call]:
        """The calls of the given kinds (all when none is given) since the
        last take; the log is then cleared."""
        calls, self.calls = self.calls, []
        return [c for c in calls if not kinds or c.kind in kinds]
