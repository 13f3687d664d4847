import json
from fractions import Fraction

import numpy as np
import pytest

import minbasis as mb
from minbasis.polymat import (
    PolyMat,
    _multiply_transpose,
    evaluate,
    evaluate_array,
    from_dict,
    highest_row_degree_matrix,
    load,
    poly_multiply_transpose,
    s1_stack,
    save,
    to_dict,
)
from minbasis.sylvester import singular_values

from helpers import (
    degree,
    example1,
    example3,
    one_lambda,
    one_lambda_dual,
    reference_from_dict,
    reference_poly_multiply_transpose,
    reference_to_dict,
    reversal,
)


def naive_evaluate(P, lam):
    out = np.zeros((P.rows, P.cols), dtype=complex)
    for i in range(P.degree_bound + 1):
        out += P.coeffs[i] * lam**i
    return out


def test_degree_reads_off_nonzero_coefficient():
    assert degree(one_lambda()) == 1


def test_degree_example1_is_one():
    assert degree(example1()) == 1


def test_degree_of_zero_matrix_is_zero_by_convention():
    Z = PolyMat.zeros(2, 3, 3)
    assert degree(Z) == 0
    assert mb.row_degrees(Z) == [0, 0]


def test_row_degrees_examples():
    assert mb.row_degrees(example1()) == [1, 1, 1, 1, 1, 1]
    assert mb.row_degrees(example3()) == [1, 1, 1, 1, 2, 2]


def test_row_degrees_are_kept_with_the_matrix():
    # The first call computes them; later calls, the certificate's and the
    # highest-row-degree matrix's included, read them back, each as a new list.
    M = example3()
    first = mb.row_degrees(M)
    first.append(9)
    assert mb.row_degrees(M) == [1, 1, 1, 1, 2, 2]
    assert M._row_degrees == (1, 1, 1, 1, 2, 2)
    object.__setattr__(M, "_row_degrees", (2, 2, 2, 2, 2, 2))  # read, not recomputed
    assert mb.row_degrees(M) == [2, 2, 2, 2, 2, 2]
    assert mb.certify_minimal_basis(M).degree_sum_expected == 12
    fresh = example3()
    mb.certify_minimal_basis(fresh)
    assert fresh._row_degrees == (1, 1, 1, 1, 2, 2)


def test_row_degrees_and_highest_row_degree_matrix_match_loop_reference():
    # Sparse random stacks: zero rows, zero leading and trailing coefficients.
    rng = np.random.default_rng(8)
    for _ in range(50):
        d, m, q = rng.integers(0, 4), rng.integers(1, 5), rng.integers(1, 5)
        coeffs = rng.standard_normal((d + 1, m, q)) * (rng.random((d + 1, m, 1)) < 0.4)
        P = PolyMat(coeffs)
        degs = []
        for j in range(m):
            nonzero = [i for i in range(d + 1) if np.any(coeffs[i, j])]
            degs.append(max(nonzero, default=0))
        assert mb.row_degrees(P) == degs
        hr = highest_row_degree_matrix(P)
        assert np.array_equal(hr, np.array([coeffs[degs[j], j] for j in range(m)]))


def test_highest_row_degree_matrix_single_row():
    hr = highest_row_degree_matrix(one_lambda())
    assert np.array_equal(hr, [[0.0, 1.0]])


def test_highest_row_degree_matrix_example1():
    hr = highest_row_degree_matrix(example1())
    expected = np.zeros((6, 8))
    for b in range(3):
        expected[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = np.eye(2)
    assert np.array_equal(hr, expected)
    assert np.linalg.matrix_rank(hr) == 6


def test_highest_row_degree_matrix_example3_mixed_degrees():
    hr = highest_row_degree_matrix(example3())
    M = example3()
    assert np.array_equal(hr[:4], M.coeffs[1][:4])
    assert np.array_equal(hr[4:], M.coeffs[2][4:])
    assert np.linalg.matrix_rank(hr) == 6


def test_evaluate_simple():
    assert np.array_equal(evaluate(one_lambda(), 2.0), [[1.0, 2.0]])


def test_evaluate_example1_at_zero():
    M0 = evaluate(example1(), 0.0)
    assert np.array_equal(M0, example1().coeffs[0])
    assert np.linalg.matrix_rank(M0) == 6


def test_evaluate_matches_naive_power_sum():
    rng = np.random.default_rng(11)
    P = PolyMat(rng.standard_normal((4, 3, 5)))
    for lam in [0.3, -1.7, 2.5 + 0.5j, rng.standard_normal()]:
        got = evaluate(P, lam)
        assert np.allclose(got, naive_evaluate(P, lam), rtol=1e-12, atol=1e-12)


_RNG = np.random.default_rng(23)


@pytest.mark.parametrize("P", [
    PolyMat(_RNG.standard_normal((4, 3, 5))),
    PolyMat(_RNG.standard_normal((3, 2, 4)) + 1j * _RNG.standard_normal((3, 2, 4))),
    PolyMat(_RNG.standard_normal((1, 2, 3))),
], ids=["real", "complex", "degree0"])
@pytest.mark.parametrize("points", [
    np.array(0.7 - 1.3j),
    np.array([0.3, -1.7, 2.5 + 0.5j, 0.0]),
    _RNG.standard_normal((2, 3)),
], ids=["scalar", "vector", "grid"])
def test_evaluate_on_a_point_array_equals_per_point_calls(P, points):
    got = evaluate(P, points)
    assert got.shape == points.shape + (P.rows, P.cols)
    for idx in np.ndindex(points.shape):
        one = evaluate(P, points[idx].item())
        assert got[idx].dtype == one.dtype
        assert np.array_equal(got[idx], one)


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, np.nan), -np.inf + 1j])
def test_evaluate_rejects_a_non_finite_point_anywhere_in_an_array(bad):
    with pytest.raises(mb.InputFormatError, match="finite"):
        evaluate(example1(), np.array([[0.5, 1.0], [bad, 2.0]]))


def _python_horner(coeffs, lam):
    rows, cols = coeffs.shape[1:]
    out = [[coeffs[-1, r, c] for c in range(cols)] for r in range(rows)]
    for C in coeffs[-2::-1]:
        out = [[out[r][c] * lam + C[r, c] for c in range(cols)] for r in range(rows)]
    return out


@pytest.mark.parametrize("lam", [12345, -(2**40), Fraction(-7, 3)],
                         ids=["int", "big_int", "fraction"])
def test_evaluate_array_is_exact_on_object_stacks(lam):
    # Entries past 2**63: a route through int64 or float64 would lose them.
    rng = np.random.default_rng(8)
    coeffs = np.empty((4, 2, 3), dtype=object)
    for idx in np.ndindex(coeffs.shape):
        coeffs[idx] = int(rng.integers(-10**6, 10**6)) * 2**70 + int(rng.integers(-9, 10))
    coeffs[1, 0, 0] = Fraction(2**80 + 1, 3)
    value = evaluate_array(coeffs, np.asarray(lam))
    assert value.dtype == object and value.shape == (2, 3)
    assert value.tolist() == _python_horner(coeffs, lam)
    kind = Fraction if isinstance(lam, Fraction) else int
    assert all(type(x) is kind for x in value.flat[1:])


def test_reversal_swaps_coefficients():
    rev = reversal(one_lambda(), 1)
    assert np.array_equal(rev.coeffs[0], [[0.0, 1.0]])
    assert np.array_equal(rev.coeffs[1], [[1.0, 0.0]])


def test_reversal_example1_swaps_blocks():
    M = example1()
    rev = reversal(M, 1)
    assert np.array_equal(rev.coeffs[0], M.coeffs[1])
    assert np.array_equal(rev.coeffs[1], M.coeffs[0])


def test_reversal_is_involution_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = PolyMat(rng.standard_normal((3, 2, 4)))
        assert np.array_equal(reversal(reversal(P, P.degree_bound), P.degree_bound).coeffs, P.coeffs)
        # At a larger grade the round trip reproduces P inside that grade.
        g = P.degree_bound + 2
        assert np.array_equal(reversal(reversal(P, g), g).coeffs, mb.embed(P, g).coeffs)


def test_reversal_rejects_grade_below_degree():
    with pytest.raises(mb.ShapeError, match="grade below degree"):
        reversal(one_lambda(), 0)


def test_multiply_transpose_dual_pair_is_zero():
    prod = poly_multiply_transpose(one_lambda(), one_lambda_dual())
    assert not np.any(prod.coeffs)
    assert prod.degree_bound == 2


def test_multiply_transpose_example1_pair_is_zero():
    from helpers import example1_N

    prod = poly_multiply_transpose(example1(), example1_N())
    assert prod.rows == 6 and prod.cols == 2
    assert not np.any(prod.coeffs)


def test_multiply_transpose_matches_pointwise_evaluation():
    rng = np.random.default_rng(23)
    A = PolyMat(rng.standard_normal((3, 2, 5)))
    B = PolyMat(rng.standard_normal((2, 3, 5)))
    prod = poly_multiply_transpose(A, B)
    scale = 1.0 + np.linalg.norm(s1_stack(A)) * np.linalg.norm(s1_stack(B))
    for _ in range(10):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = evaluate(prod, lam)
        rhs = evaluate(A, lam) @ evaluate(B, lam).T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_multiply_transpose_rejects_dimension_mismatch():
    A = PolyMat.zeros(2, 4, 1)
    B = PolyMat.zeros(2, 5, 1)
    with pytest.raises(mb.ShapeError):
        poly_multiply_transpose(A, B)


def test_mixed_field_operations_rejected():
    A = PolyMat.zeros(2, 4, 1, field="real")
    B = PolyMat.zeros(2, 4, 1, field="complex")
    with pytest.raises(mb.FieldMismatchError):
        poly_multiply_transpose(A, B)
    with pytest.raises(mb.FieldMismatchError):
        mb.add(A, B)


def test_s1_frobenius_is_entry_sum_root():
    rng = np.random.default_rng(7)
    P = PolyMat(rng.standard_normal((4, 3, 6)))
    fro = np.linalg.norm(s1_stack(P))
    assert abs(fro - np.sqrt((P.coeffs**2).sum())) < 1e-12


def test_spectral_below_frobenius_with_rank_one_equality():
    rng = np.random.default_rng(9)
    for _ in range(10):
        P = PolyMat(rng.standard_normal((3, 2, 4)))
        stack = s1_stack(P)
        assert singular_values(stack)[0] <= np.linalg.norm(stack) + 1e-12
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((1, 4))
    stack = s1_stack(PolyMat((u @ v).reshape(3, 2, 4)))
    spec, fro = singular_values(stack)[0], np.linalg.norm(stack)
    assert abs(spec - fro) < 1e-10 * fro


def test_s1_frobenius_transpose_invariant():
    rng = np.random.default_rng(13)
    P = PolyMat(rng.standard_normal((3, 2, 5)))
    Pt = PolyMat(np.transpose(P.coeffs, (0, 2, 1)))
    assert abs(np.linalg.norm(s1_stack(P)) - np.linalg.norm(s1_stack(Pt))) < 1e-14


def test_construction_rejects_nan():
    with pytest.raises(mb.InputFormatError):
        PolyMat(np.array([[[np.nan, 0.0]]]))


def test_coefficients_are_immutable():
    P = example1()
    with pytest.raises(ValueError):
        P.coeffs[0, 0, 0] = 5.0


def test_embed_preserves_value_and_raises_grade():
    M = example1()
    E = mb.embed(M, 3)
    assert E.degree_bound == 3
    assert degree(E) == 1
    rng = np.random.default_rng(2)
    lam = rng.standard_normal()
    assert np.allclose(evaluate(E, lam), evaluate(M, lam))


def test_count_arguments_take_numpy_integers():
    assert mb.embed(example1(), np.int64(3)).degree_bound == 3
    Z = PolyMat.zeros(np.int32(2), np.int64(3), np.uint8(1))
    assert Z.coeffs.shape == (2, 2, 3)


# -- JSON interchange ----------------------------------------------------------


def test_json_round_trip_real(tmp_path):
    M = example1()
    path = tmp_path / "m.json"
    save(M, path)
    Q = load(path)
    assert Q.field == "real"
    assert np.array_equal(Q.coeffs, M.coeffs)


def test_json_round_trip_complex(tmp_path):
    rng = np.random.default_rng(3)
    P = PolyMat(rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3)))
    path = tmp_path / "c.json"
    save(P, path)
    Q = load(path)
    assert Q.field == "complex"
    assert np.array_equal(Q.coeffs, P.coeffs)


def test_json_rejects_wrong_coefficient_count():
    obj = to_dict(example1())
    obj["coefficients"] = obj["coefficients"][:1]
    with pytest.raises(mb.InputFormatError, match="expected 2 matrices"):
        from_dict(obj)


def test_json_rejects_ragged_rows():
    obj = to_dict(one_lambda())
    obj["coefficients"][0][0] = [1.0]
    with pytest.raises(mb.InputFormatError, match="columns"):
        from_dict(obj)


def test_json_rejects_bad_field_tag():
    obj = to_dict(one_lambda())
    obj["field"] = "rational"
    with pytest.raises(mb.InputFormatError, match="field"):
        from_dict(obj)


def test_json_rejects_missing_key():
    obj = to_dict(one_lambda())
    del obj["rows"]
    with pytest.raises(mb.InputFormatError, match="rows"):
        from_dict(obj)


def test_load_reports_json_syntax_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    with pytest.raises(mb.InputFormatError, match="line"):
        load(path)


# Entries whose float a per-entry float() and one nested-list conversion must
# agree on: signed zeros, integers past 2**53 and past int64 (rounded), huge
# finite values and subnormals.
_EDGE_VALUES = [0.0, -0.0, 2**53 + 1, 2**63 + 1, -(2**64) - 3, 2**1000, 10**300,
                5e-324, -2.5e-310, 1, -7]


def _loader_dict(field: str, entries: list) -> dict:
    """A 2x3 grade-1 matrix object whose entries are ``entries``, in order,
    cycled to fill it, through a JSON round trip."""
    flat = [entries[i % len(entries)] for i in range(12)]
    coeffs = [[flat[6 * i + 3 * r : 6 * i + 3 * r + 3] for r in range(2)] for i in range(2)]
    obj = {"field": field, "rows": 2, "cols": 3, "degree_bound": 1, "coefficients": coeffs}
    return json.loads(json.dumps(obj))


def _assert_loads_like_reference(obj: dict) -> None:
    P, R = from_dict(obj), reference_from_dict(obj)
    assert P.coeffs.dtype == R.coeffs.dtype and P.coeffs.tobytes() == R.coeffs.tobytes()
    assert json.dumps(to_dict(P)) == json.dumps(reference_to_dict(R))


@pytest.mark.parametrize("start", range(0, len(_EDGE_VALUES), 3))
def test_loader_matches_reference_on_edge_values(start):
    real = _EDGE_VALUES[start:] + _EDGE_VALUES[:start]
    _assert_loads_like_reference(_loader_dict("real", real))
    pairs = [[a, b] for a in real[:4] for b in (0.0, -0.0, real[-1])]
    _assert_loads_like_reference(_loader_dict("complex", pairs))


def test_loader_matches_reference_on_numpy_floats_and_tuple_pairs():
    # Built in memory, not parsed: np.float64 subclasses float, and a pair
    # may be a tuple; neither passes the one-pass type check of a row.
    real = _loader_dict("real", [1.5, -0.0])
    real["coefficients"][0][1] = [np.float64(v) for v in (-0.0, 2.0, 3.5)]
    _assert_loads_like_reference(real)
    cplx = _loader_dict("complex", [[1.0, -0.0]])
    cplx["coefficients"][1][0] = [(np.float64(-0.0), 2), [np.float64(3.0), -0.0], (1, 2)]
    _assert_loads_like_reference(cplx)


_BAD_REAL = [True, "1", None, 10**400]
_BAD_PAIRS = [True, "1", None, [1.0], [1.0, 2.0, 3.0], [False, 1.0], [1.0, None],
              [10**400, 0.0], [0.0, -(10**400)], (1.0, "2")]
_RAGGED = object()  # marks a row cut short by one entry


@pytest.mark.parametrize("field, bad", [("real", v) for v in _BAD_REAL + [_RAGGED]]
                         + [("complex", v) for v in _BAD_PAIRS + [_RAGGED]])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 1), (1, 1, 2)],
                         ids=["first", "middle", "last"])
def test_loader_reports_a_bad_entry_as_the_reference_does(field, bad, where):
    obj = _loader_dict(field, [[0.5, -1.0]] if field == "complex" else [0.5, -1.0])
    i, r, c = where
    row = obj["coefficients"][i][r]
    if bad is _RAGGED:
        del row[c]
    else:
        row[c] = bad
    with pytest.raises(mb.InputFormatError) as expected:
        reference_from_dict(obj)
    with pytest.raises(mb.InputFormatError) as got:
        from_dict(obj)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [[[1.0, 2.0, 3.0], [4.0]], [[1.0], [2.0, 3.0, 4.0]],
                                 [True, [0.0, 1.0]], [[0.0, 1.0], "12"], [[1.0, None], [2.0, 3.0]],
                                 [{"re": 1.0, "im": 2.0}, [0.0, 1.0]], [[[1.0], [2.0]], [0.0, 1.0]]],
                         ids=["long-then-short", "short-then-long", "bool", "string", "null",
                              "object", "nested"])
def test_loader_names_a_bad_complex_entry_in_a_large_file(bad):
    # Two neighbouring entries of a 30x40 grade-2 complex file go bad, the
    # first pair of them with lengths that still sum to four numbers: the
    # passes over the whole list fail and the walk names the first entry,
    # as the reference does.
    rng = np.random.default_rng(8)
    P = PolyMat(rng.standard_normal((3, 30, 40)) + 1j * rng.standard_normal((3, 30, 40)))
    obj = json.loads(json.dumps(to_dict(P)))
    obj["coefficients"][2][17][21:23] = bad
    obj = json.loads(json.dumps(obj))
    with pytest.raises(mb.InputFormatError) as expected:
        reference_from_dict(obj)
    with pytest.raises(mb.InputFormatError) as got:
        from_dict(obj)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("coefficients[2][17][2")


def _double_loop_cases():
    rng = np.random.default_rng(29)
    for field in ("real", "complex"):
        for da in range(4):
            for db in range(25):
                for rows_a, rows_b, cols in ((1, 1, 3), (1, 5, 8), (6, 1, 8), (3, 4, 9)):
                    def draw(shape):
                        x = rng.standard_normal(shape)
                        return x + 1j * rng.standard_normal(shape) if field == "complex" else x
                    yield (PolyMat(draw((da + 1, rows_a, cols))),
                           PolyMat(draw((db + 1, rows_b, cols))))


def test_array_product_is_poly_multiply_transpose_bit_for_bit():
    # The duality residual multiplies coefficient arrays without a PolyMat.
    for A, B in _double_loop_cases():
        got = _multiply_transpose(A.coeffs, B.coeffs)
        assert got.dtype == A.coeffs.dtype
        assert np.array_equal(got, poly_multiply_transpose(A, B).coeffs)


def test_poly_multiply_transpose_matches_the_double_loop_reference():
    for A, B in _double_loop_cases():
        got = poly_multiply_transpose(A, B)
        ref = reference_poly_multiply_transpose(A, B)
        assert got.coeffs.shape == ref.coeffs.shape and got.field == ref.field
        assert np.linalg.norm(got.coeffs - ref.coeffs) <= 1e-14 * np.linalg.norm(ref.coeffs)
