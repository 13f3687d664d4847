from fractions import Fraction

import numpy as np
import pytest

import minbasis as mb
from minbasis.oracle import (
    exact_evaluate,
    exact_nullspace,
    exact_rank,
    exact_rank_profile,
    exact_sylvester,
)
from minbasis.polymat import PolyMat
from minbasis.sylvester import rank_nullity, sylvester

from helpers import common_factor_2x4, example1, example1_N, example2, example3, planted_indices


def test_exact_rank_worked_example_values():
    assert exact_rank(exact_sylvester(example1(), 3)) == 24
    assert exact_rank(exact_sylvester(example2(), 2)) == 11


def test_exact_rank_identity():
    assert exact_rank(np.eye(5, dtype=int)) == 5


def test_exact_rank_invariant_under_permutation_and_transpose():
    rng = np.random.default_rng(3)
    A = rng.integers(-9, 10, size=(5, 7))
    base = exact_rank(A.tolist())
    perm_rows = A[rng.permutation(5)][:, rng.permutation(7)]
    assert exact_rank(perm_rows.tolist()) == base
    assert exact_rank(A.T.tolist()) == base


def test_exact_rank_fractions():
    A = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 6), Fraction(1, 3)]]
    assert exact_rank(A) == 1


def test_exact_rank_matches_float_on_integer_corpus():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p, q = rng.integers(1, 13, size=2)
        r = int(rng.integers(0, min(p, q) + 1))
        if r == 0:
            A = np.zeros((p, q), dtype=int)
        else:
            A = rng.integers(-5, 6, size=(p, r)) @ rng.integers(-5, 6, size=(r, q))
        exact = exact_rank(A.tolist())
        floating = rank_nullity(A.astype(float)).rank
        assert exact == floating


def test_exact_rank_large_entries():
    rng = np.random.default_rng(7)
    A = rng.integers(-1000, 1001, size=(20, 20))
    assert exact_rank(A.tolist()) == rank_nullity(A.astype(float)).rank


def test_exact_rank_desk_scale_60x60():
    rng = np.random.default_rng(8)
    B = rng.integers(-1000, 1001, size=(60, 40))
    C = rng.integers(-1000, 1001, size=(40, 60))
    A = B @ C  # rank 40 with probability one
    exact = exact_rank(A.tolist())
    assert exact == rank_nullity(A.astype(float)).rank == 40


def test_exact_nullspace_of_example1_s4_reproduces_dual():
    S4 = exact_sylvester(example1(), 4)
    basis = exact_nullspace(S4)
    assert len(basis) == 2
    # Each nullvector unpacks block-wise to a degree-3 polynomial that must
    # lie in the span of the two reference dual rows.
    N = example1_N()
    ref = np.column_stack(
        [np.concatenate([N.coeffs[i][r] for i in range(4)]) for r in range(2)]
    )
    for vec in basis:
        v = np.array([float(f) for f in vec])
        coeff, *_ = np.linalg.lstsq(ref, v, rcond=None)
        assert np.linalg.norm(ref @ coeff - v) < 1e-12


def test_exact_nullspace_verifies_exactly():
    rng = np.random.default_rng(9)
    B = rng.integers(-4, 5, size=(4, 2))
    C = rng.integers(-4, 5, size=(2, 6))
    A = (B @ C).tolist()
    basis = exact_nullspace(A)
    assert len(basis) == 6 - exact_rank(A)
    for vec in basis:
        for row in A:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_exact_nullspace_full_column_rank_empty():
    A = [[1, 0], [0, 1], [1, 1]]
    assert exact_nullspace(A) == []


def test_exact_rank_nullity_dimension_identity():
    rng = np.random.default_rng(11)
    A = rng.integers(-3, 4, size=(5, 8)).tolist()
    assert exact_rank(A) + len(exact_nullspace(A)) == 8


def test_exact_profile_example3():
    prof = exact_rank_profile(example3())
    assert prof.ranks == (8, 16, 24, 32, 38)
    assert prof.d_prime == 4
    assert prof.alphas == (0, 0, 0, 0, 2)
    assert prof.tolerance is None


def test_exact_profile_example2():
    prof = exact_rank_profile(example2())
    assert prof.alphas == (1, 1, 1)
    assert prof.d_prime == 2


def test_exact_profile_matches_floating_on_random_integers():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        coeffs = rng.integers(-4, 5, size=(d + 1, m, m + n)).astype(float)
        M = PolyMat(coeffs)
        exact = exact_rank_profile(M)
        floating = mb.rank_profile(M)
        assert exact.ranks == floating.ranks
        assert exact.d_prime == floating.d_prime
        assert exact.alphas == floating.alphas


def test_exact_profile_detects_rank_deficiency():
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    C1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    C2 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    prof = exact_rank_profile(PolyMat.from_coeff_list([C0, C1, C2]))
    assert not prof.normal_rank_full
    assert prof.stabilized_increment == 1


def test_exact_profile_rejects_complex():
    M = PolyMat.zeros(2, 4, 1, field="complex")
    with pytest.raises(mb.InputFormatError):
        exact_rank_profile(M)


def test_exact_evaluate_horner():
    M = example2()
    val = exact_evaluate(M, Fraction(3, 2))
    ref = mb.evaluate(M, 1.5)
    assert np.allclose([[float(x) for x in row] for row in val], ref)


def test_rational_matrix_rejects_ragged():
    with pytest.raises(mb.InputFormatError):
        exact_rank([[1, 2], [3]])


def _near_common_factor():
    # Noise of size 1e-9 gives every coefficient a dyadic denominator near 2^82.
    C = common_factor_2x4()
    rng = np.random.default_rng(4)
    return PolyMat(C.coeffs + 1e-9 * rng.standard_normal(C.coeffs.shape))


@pytest.mark.parametrize("M", [
    example1(), example2(), example3(),
    planted_indices((1, 2, 5), np.random.default_rng(1)),
    _near_common_factor(),
], ids=["example1", "example2", "example3", "planted_1_2_5", "near_common_factor"])
def test_exact_sylvester_is_the_float_builder_entry_by_entry(M):
    for k in (1, 2, 4):
        exact = exact_sylvester(M, k)
        assert exact.dtype == object
        assert all(isinstance(x, (int, Fraction)) for x in exact.flat)
        assert exact.shape == sylvester(M, k).shape
        # A Fraction equals a float only when it is that float's exact value.
        assert (exact == sylvester(M, k)).all()


def test_exact_rank_profile_clears_huge_row_denominators():
    M = _near_common_factor()
    assert max(f.denominator for f in exact_sylvester(M, 1).flat if f) > 2**60
    # S_1 has full rank 4: the noise breaks the common factor.
    assert exact_rank_profile(M).ranks[0] == 4


def test_exact_rank_is_invariant_under_row_scaling():
    # Row denominators 2 and 3: only their lcm 6 clears the first row.
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]]) == 1
    rng = np.random.default_rng(21)
    for _ in range(20):
        p, q = rng.integers(2, 8, size=2)
        r = int(rng.integers(1, min(p, q) + 1))
        A = rng.integers(-5, 6, size=(p, r)) @ rng.integers(-5, 6, size=(r, q))
        rank = exact_rank(A)
        powers = 2.0 ** rng.integers(-60, 61, size=(p, 1))
        assert exact_rank(A * powers) == rank
        den = rng.integers(1, 10**12, size=p)
        scaled = [[Fraction(int(x), int(s)) for x in row] for row, s in zip(A, den)]
        assert exact_rank(scaled) == rank


@pytest.mark.parametrize("A,where", [
    ([[1, True], [0, 1]], r"entry \(0, 1\): booleans"),
    (np.array([[1.0, 0.0], [np.nan, 1.0]]), r"entry \(1, 0\): non-finite"),
    (np.zeros((2, 2, 2)), r"shape \(2, 2, 2\)"),
    (np.zeros((0, 3)), r"shape \(0, 3\)"),
])
def test_exact_rank_rejects_bad_entries_and_shapes(A, where):
    with pytest.raises(mb.InputFormatError, match=where):
        exact_rank(A)
