"""Dense polynomial matrices over the reals or complexes.

A polynomial matrix P(lambda) = C_0 + C_1*lambda + ... + C_d*lambda^d is
stored as an ordered stack of constant coefficient matrices.  The grade d
(``degree_bound``) is part of the data: the actual degree may be lower, and
perturbation analysis depends on the ambient grade, not the achieved degree.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import FieldMismatchError, InputFormatError, ShapeError

_REAL_DTYPE = np.float64
_COMPLEX_DTYPE = np.complex128


@dataclass(frozen=True, eq=False)
class PolyMat:
    """Immutable dense polynomial matrix.

    Attributes:
        coeffs: array of shape (degree_bound + 1, rows, cols) holding the
            constant coefficient matrices C_0 .. C_d.  Read-only.
    """

    coeffs: np.ndarray
    # Factorizations of S_k and of the highest-row-degree matrix, and reports
    # built from them, filled by ``sylvester.py``.  The coefficients never
    # change, so an entry stays valid as long as the matrix.
    _sylvester_memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 3:
            raise ShapeError(
                f"coefficient stack must be 3-dimensional, got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeError(f"degenerate coefficient stack shape {arr.shape}")
        try:
            arr = arr.astype(_stack_dtype(arr))
        except OverflowError:
            # A Python int or Fraction past the float range, in an object array.
            raise InputFormatError("coefficient entry too large for a float") from None
        if not np.all(np.isfinite(arr)):
            raise InputFormatError("coefficient entries must be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- basic shape info ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def degree_bound(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def field(self) -> str:
        return "complex" if self.coeffs.dtype == _COMPLEX_DTYPE else "real"

    @property
    def is_wide(self) -> bool:
        return self.rows < self.cols

    def __repr__(self) -> str:
        return (
            f"PolyMat({self.rows}x{self.cols}, degree_bound={self.degree_bound}, "
            f"field={self.field})"
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_coeff_list(cls, coeff_list: Sequence) -> "PolyMat":
        """Build from an iterable of (rows x cols) coefficient matrices C_0..C_d."""
        mats = [np.asarray(c) for c in coeff_list]
        if not mats:
            raise ShapeError("at least one coefficient matrix is required")
        shape = mats[0].shape
        for i, c in enumerate(mats):
            if c.shape != shape:
                raise ShapeError(
                    f"coefficient {i} has shape {c.shape}, expected {shape}"
                )
        return cls(np.stack(mats))

    @classmethod
    def zeros(cls, rows: int, cols: int, degree_bound: int, field: str = "real") -> "PolyMat":
        _check_field(field)
        dtype = _COMPLEX_DTYPE if field == "complex" else _REAL_DTYPE
        return cls(np.zeros((degree_bound + 1, rows, cols), dtype=dtype))


def _check_field(field: str) -> None:
    """InputFormatError unless ``field`` is a field tag, "real" or "complex"."""
    if field not in ("real", "complex"):
        raise InputFormatError(f"unknown field tag {field!r}")


def _stack_dtype(arr: np.ndarray) -> type:
    """complex128 when an entry of ``arr`` is complex, else float64.  An entry
    that is not a number, such as a string or a boolean, raises
    InputFormatError, as in ``from_dict``."""
    kind = arr.dtype.kind
    if kind == "O":  # Python numbers, such as Fractions and ints past int64
        entries = arr.ravel().tolist()
        bad = [v for v in entries if isinstance(v, bool) or not isinstance(v, numbers.Number)]
        if bad:
            raise InputFormatError(f"coefficient entries must be numbers, got {bad[0]!r}")
        kind = "c" if any(isinstance(v, (complex, np.complexfloating)) for v in entries) else "f"
    if kind not in "iufc":
        raise InputFormatError(f"coefficient entries must be numbers, got dtype {arr.dtype}")
    return _COMPLEX_DTYPE if kind == "c" else _REAL_DTYPE


def _require_same_field(A: PolyMat, B: PolyMat, op: str) -> None:
    # Silent promotion hides modeling errors in perturbation studies.
    if A.field != B.field:
        raise FieldMismatchError(
            f"{op}: mixed fields ({A.field} vs {B.field}) are rejected, not promoted"
        )


# -- elementary operations ----------------------------------------------------


def degree(P: PolyMat) -> int:
    """Largest i with C_i nonzero; 0 for the zero matrix by convention."""
    for i in range(P.degree_bound, -1, -1):
        if np.any(P.coeffs[i]):
            return i
    return 0


def row_degrees(P: PolyMat) -> list[int]:
    """Degree of each row; zero rows have row degree 0 by convention."""
    nonzero = P.coeffs.any(axis=2)  # [i, j]: coefficient i of row j is nonzero
    top = P.degree_bound - nonzero[::-1].argmax(axis=0)
    return np.where(nonzero.any(axis=0), top, 0).tolist()


def highest_row_degree_matrix(P: PolyMat) -> np.ndarray:
    """Constant matrix whose row j is the coefficient of lambda^{d_j} in row j."""
    return P.coeffs[row_degrees(P), np.arange(P.rows), :]


def evaluate_array(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Horner evaluation of a coefficient stack of shape (d + 1, rows, cols)
    at each point of the array ``lam``, as an array of shape
    ``lam.shape + (rows, cols)``.

    Any dtype serves: float and complex stacks, and object stacks of Python
    ints and Fractions, which stay exact at an int or Fraction point.
    """
    acc = np.empty(lam.shape + coeffs.shape[1:], np.result_type(coeffs.dtype, lam.dtype))
    acc[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * lam[..., None, None] + c
    return acc


def evaluate(P: PolyMat, lam) -> np.ndarray:
    """Horner evaluation of P at the point ``lam``, or at each point of an
    array of points, as an array of shape ``lam.shape + (rows, cols)``.

    Every point takes the same operations as a call on that point alone, so
    each slice equals that call bit for bit.  Evaluating a real-field matrix
    at a complex point is allowed and yields a complex constant matrix.
    """
    lam = np.asarray(lam)
    lam = lam.astype(_COMPLEX_DTYPE if np.iscomplexobj(lam) else _REAL_DTYPE)
    if not np.isfinite(np.abs(lam)).all():
        raise InputFormatError("evaluation point must be finite")
    return evaluate_array(P.coeffs, lam)


def poly_multiply_transpose(A: PolyMat, B: PolyMat) -> PolyMat:
    """Coefficient-convolution product A(lambda) * B(lambda)^T.

    The grade of the result is A.degree_bound + B.degree_bound even when
    leading terms cancel.
    """
    if A.cols != B.cols:
        raise ShapeError(
            f"column counts differ ({A.cols} vs {B.cols}); cannot form A*B^T"
        )
    _require_same_field(A, B, "poly_multiply_transpose")
    da, db = A.degree_bound, B.degree_bound
    out = np.zeros((da + db + 1, A.rows, B.rows), dtype=A.coeffs.dtype)
    for i in range(da + 1):
        for j in range(db + 1):
            out[i + j] += A.coeffs[i] @ B.coeffs[j].T
    return PolyMat(out)


def s1_stack(P: PolyMat) -> np.ndarray:
    """The stacked coefficient matrix [C_0; C_1; ...; C_d]."""
    return P.coeffs.reshape((P.degree_bound + 1) * P.rows, P.cols)


# -- arithmetic helpers --------------------------------------------------------


def _require_congruent(A: PolyMat, B: PolyMat, op: str) -> None:
    _require_same_field(A, B, op)
    if A.coeffs.shape != B.coeffs.shape:
        raise ShapeError(
            f"{op}: shape/grade mismatch {A.coeffs.shape} vs {B.coeffs.shape}"
        )


def add(A: PolyMat, B: PolyMat) -> PolyMat:
    _require_congruent(A, B, "add")
    return PolyMat(A.coeffs + B.coeffs)


def scale(P: PolyMat, factor: float) -> PolyMat:
    return PolyMat(P.coeffs * factor)


def embed(P: PolyMat, degree_bound: int) -> PolyMat:
    """Re-embed P into a larger ambient grade by zero-padding coefficients."""
    if degree_bound < P.degree_bound:
        raise ShapeError(
            f"cannot embed grade {P.degree_bound} matrix into smaller grade {degree_bound}"
        )
    padded = np.zeros((degree_bound + 1, P.rows, P.cols), dtype=P.coeffs.dtype)
    padded[: P.degree_bound + 1] = P.coeffs
    return PolyMat(padded)


def vstack_polymats(blocks: Iterable[PolyMat]) -> PolyMat:
    """Stack polynomial matrices vertically; all must share cols, grade, field."""
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("nothing to stack")
    first = blocks[0]
    for b in blocks[1:]:
        _require_same_field(first, b, "vstack")
        if b.cols != first.cols or b.degree_bound != first.degree_bound:
            raise ShapeError("vstack requires equal column counts and grades")
    return PolyMat(np.concatenate([b.coeffs for b in blocks], axis=1))


# -- JSON interchange -----------------------------------------------------------
#
# { "field": "real"|"complex", "rows": m, "cols": q, "degree_bound": d,
#   "coefficients": [C_0, ..., C_d] }
# where each C_i is a rows-length array of cols-length arrays and complex
# entries are [re, im] pairs.


def _parse_entry(value, field: str, where: str):
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
        # An integer literal past the float range (a float literal such as
        # 1e400 reads as inf, which PolyMat rejects as non-finite).
        raise InputFormatError(f"{where}: number too large for a float") from None


def from_dict(obj: dict) -> PolyMat:
    """Parse the JSON object form of a polynomial matrix.

    Rejects ragged coefficient arrays and wrong coefficient counts.
    """
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
    dtype = _COMPLEX_DTYPE if field == "complex" else _REAL_DTYPE
    arr = np.zeros((db + 1, rows, cols), dtype=dtype)
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
                arr[i, r, c] = _parse_entry(value, field, f"coefficients[{i}][{r}][{c}]")
    return PolyMat(arr)


def to_dict(P: PolyMat) -> dict:
    """Serialize to the JSON object form (round-trips through ``from_dict``)."""
    if P.field == "real":
        coeffs = [[[float(v) for v in row] for row in C] for C in P.coeffs]
    else:
        coeffs = [
            [[[float(v.real), float(v.imag)] for v in row] for row in C]
            for C in P.coeffs
        ]
    return {
        "field": P.field,
        "rows": P.rows,
        "cols": P.cols,
        "degree_bound": P.degree_bound,
        "coefficients": coeffs,
    }


def load(path) -> PolyMat:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # bytes that are not UTF-8, or an int past the digit limit
            raise InputFormatError(f"{path}: {exc}") from exc
    try:
        return from_dict(obj)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save(P: PolyMat, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(P), fh)
        fh.write("\n")
