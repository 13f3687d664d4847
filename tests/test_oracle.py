import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import minbasis as mb
from minbasis import oracle
from minbasis.oracle import exact_rank, exact_rank_profile
from minbasis.polymat import PolyMat, evaluate, evaluate_array
from minbasis.sylvester import rank_nullity, sylvester

from helpers import (
    example1,
    example1_N,
    example2,
    example3,
    exact_nullspace,
    exact_sylvester,
    fraction_coeffs,
    fraction_nullspace,
    near_common_factor,
    planted_indices,
)

# The reference kernel's first two primes: a residue test that only one of
# them fails exercises its bad-prime path.
P1, P2 = itertools.islice(oracle._primes(2**31), 2)
# The product of the pass's batch: every prime of it is bad for a matrix
# with an entry of this size where a unit would do.
BATCH = math.prod(oracle._PASS_PRIMES)


def _integers(vec) -> list[int]:
    """A vector of ints, floats or Fractions times the lcm of its denominators."""
    vec = [Fraction(x) for x in vec]
    scale = math.lcm(*(x.denominator for x in vec))
    return [int(x * scale) for x in vec]


def _assert_null_vectors(A, basis, nullity):
    """``basis`` has ``nullity`` vectors, each with A @ v == 0 in integers."""
    assert len(basis) == nullity
    rows = [_integers(row) for row in A]
    for vec in map(_integers, basis):
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


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
    _assert_null_vectors(A.tolist(), exact_nullspace(A.tolist()), 20)


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
    # The float path's Horner evaluates the oracle's Fraction stack exactly.
    M = example2()
    val = evaluate_array(fraction_coeffs(M), np.asarray(Fraction(3, 2)))
    assert all(isinstance(x, Fraction) for x in val.flat)
    assert np.allclose(val.astype(float), evaluate(M, 1.5))


def test_rational_matrix_rejects_ragged():
    with pytest.raises(mb.InputFormatError):
        exact_rank([[1, 2], [3]])


@pytest.mark.parametrize("M", [
    example1(), example2(), example3(),
    planted_indices((1, 2, 5), np.random.default_rng(1)),
    near_common_factor(),
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
    M = near_common_factor()
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
    ([[1, "2"], [0, 1]], r"entry \(0, 1\): cannot ingest str exactly"),
])
def test_exact_rank_rejects_bad_entries_and_shapes(A, where):
    with pytest.raises(mb.InputFormatError, match=where):
        exact_rank(A)


def test_primes_are_every_prime_below_2_to_the_31_in_order():
    def trial_division(n):
        return all(n % f for f in range(3, math.isqrt(n) + 1, 2))

    first = list(itertools.islice(oracle._primes(2**31), 20))
    expected = [n for n in range(2**31 - 1, first[-1] - 1, -2) if trial_division(n)]
    assert first == expected


@pytest.mark.parametrize("p", [P1, BATCH], ids=["kernel_prime", "pass_batch"])
def test_a_prime_that_divides_every_maximal_minor_is_not_believed(p, monkeypatch):
    # diag(1, p) has rank 1 modulo p; the lift of its null vector (0, 1)
    # fails the check over Z, and the next prime (or batch) proves rank 2.
    restarts = []
    restart = oracle._ModularPass._restart
    monkeypatch.setattr(oracle._ModularPass, "_restart",
                        lambda self: restarts.append(self.primes) or restart(self))
    assert exact_rank([[1, 0], [0, p]]) == 2
    assert len(restarts) == (p == BATCH)
    assert exact_nullspace([[1, 0], [0, p]]) == []


@pytest.mark.parametrize("p", [P1, P2], ids=["first_prime", "second_prime"])
def test_a_bad_prime_with_a_later_pivot_column_is_skipped(p):
    # Same rank modulo p, but pivot column 1 instead of 0.  The entry -1/p
    # needs more than one good prime to lift, so with p = P2 the bad prime
    # comes after the first good one and must not enter its CRT.
    A = [[p, 1], [0, 0]]
    assert exact_rank(A) == 1
    basis = exact_nullspace(A)
    assert basis == fraction_nullspace(A) == [[Fraction(-1, p), Fraction(1)]]
    _assert_null_vectors(A, basis, 1)


@pytest.mark.parametrize("p", [P1, oracle._PASS_PRIMES[0]], ids=["kernel_prime", "pass_prime"])
def test_exact_profile_with_a_row_times_the_first_prime(p):
    # Every entry of that row of each S_k is 0 modulo p, so p undercounts
    # every rank: the reference kernel's first prime, or the pass's, which
    # leaves the batch.  A row scaling keeps the exact profile.
    M = planted_indices((1, 2), np.random.default_rng(17))
    coeffs = M.coeffs.copy()
    coeffs[:, 0, :] *= p
    scaled = exact_rank_profile(PolyMat(coeffs))
    floating = mb.rank_profile(M)
    assert (scaled.ranks, scaled.d_prime, scaled.normal_rank_full) == (
        floating.ranks, 2, True
    )


def test_rows_wider_than_63_bits():
    # Integer rows a, b plus noise of size 1e-9, as in near_common_factor_2x4,
    # have dyadic denominators near 2**82; with a + 3b / 7: rank 2, nullity 4.
    rng = np.random.default_rng(23)
    base = np.array([[1, 0, 2, 0, -1, 3], [0, 1, 1, 2, 0, -2]])
    a, b = base + 1e-9 * rng.standard_normal((2, 6))
    A = [list(a), list(b), [Fraction(x) + Fraction(3, 7) * Fraction(y) for x, y in zip(a, b)]]
    wide = oracle._integer_rows(oracle._fraction_matrix(A))
    assert max(abs(x) for x in wide.flat) > 2**63
    assert exact_rank(A) == 2
    basis = exact_nullspace(A)
    assert basis == fraction_nullspace(A)
    _assert_null_vectors(A, basis, 4)


@pytest.mark.parametrize("A,rank", [
    (np.zeros((3, 4), dtype=int), 0),
    (np.zeros((1, 1), dtype=int), 0),
    (np.array([[-7]]), 1),
], ids=["zero_3x4", "zero_1x1", "one_by_one"])
def test_exact_rank_and_nullspace_of_trivial_shapes(A, rank):
    assert exact_rank(A) == rank
    basis = exact_nullspace(A)
    assert basis == fraction_nullspace(A.tolist())
    _assert_null_vectors(A.tolist(), basis, A.shape[1] - rank)


def _nullspace_corpus():
    """Seeded integer and Fraction matrices: every fourth of full rank (tall
    ones of full column rank), the others of random rank, zero included."""
    rng = np.random.default_rng(29)
    for i in range(40):
        p, q = (int(v) for v in rng.integers(1, 9, size=2))
        r = min(p, q) if i % 4 == 0 else int(rng.integers(0, min(p, q) + 1))
        A = rng.integers(-6, 7, size=(p, r)) @ rng.integers(-6, 7, size=(r, q))
        if i % 2:
            A = [[Fraction(int(x), int(rng.integers(1, 50))) for x in row] for row in A]
        yield A if isinstance(A, list) else A.tolist()


@pytest.mark.parametrize("A", list(_nullspace_corpus()))
def test_exact_nullspace_is_the_reduced_row_echelon_basis(A):
    basis = exact_nullspace(A)
    assert basis == fraction_nullspace(A)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    _assert_null_vectors(A, basis, len(A[0]) - exact_rank(A))


def test_no_certificate_by_the_hadamard_bound_raises(monkeypatch):
    # With every check over Z failing, the reference kernel stops once the
    # prime product passes 2 H^2 instead of trying primes forever.
    monkeypatch.setattr(oracle, "_vanishes", lambda A, V: False)
    with pytest.raises(mb.NumericalInconsistencyError, match="Hadamard bound"):
        exact_nullspace([[1, 2, 3], [2, 4, 6]])


@pytest.mark.parametrize("A,dependent", [
    ([[1, 3], [2, 6]], True),
    ([[1, 0, 2], [0, 1, 5], [1, 1, 7]], True),
    ([[2, 0, 1], [0, 3, 1]], True),
    ([[1, 0, 0], [0, 1, BATCH]], True),
    ([[1, 0, 0], [0, 1, 0], [0, 0, BATCH]], False),
    ([[BATCH], [0]], False),
], ids=["one_column", "two_columns", "fractions", "wide_entry", "independent", "no_support"])
def test_the_dixon_lift_proves_the_last_column_dependent_or_independent(A, dependent):
    # The columns before the last are independent modulo the pass's first
    # prime; the last is dependent over Q, or independent though every
    # prime of the batch finds it dependent.
    p = oracle._PASS_PRIMES[0]
    A = np.array(A, dtype=object)
    assert len(oracle._echelon(A[:, :-1], p)[1]) == A.shape[1] - 1
    assert oracle._dixon(A, p) == dependent


def test_a_dixon_lift_past_the_hadamard_cap_proves_nothing(monkeypatch):
    # With every check over Z failing, the lift stops once p^k passes 2 H^2:
    # the column is then independent over Q, so the event stays unproven.
    steps = []
    lift = oracle._lift
    monkeypatch.setattr(oracle, "_lift", lambda X, m: steps.append(m) or lift(X, m))
    monkeypatch.setattr(oracle, "_vanishes", lambda A, V: False)
    p, big = oracle._PASS_PRIMES[0], 10**9
    A = np.array([[big, 2, big + 2], [2 * big, 4, 2 * big + 4], [0, big, big]], dtype=object)
    assert not oracle._dixon(A, p)
    cap = 2 * oracle._minor_bound_squared(A[[0, 2]])
    assert len(steps) > 1
    assert steps[-1] > cap >= steps[-1] // p


@pytest.mark.parametrize("indices,seed", [((1, 1, 1, 1, 8), 0), ((1, 1, 1, 1, 20), 7)],
                         ids=["12x17", "24x29"])
def test_exact_profile_at_benchmark_scale(indices, seed):
    # The 24x29 input is structured_scan's longest scan, S_1 .. S_21; the
    # float profile implies most of those ranks by the index-sum jump.
    M = planted_indices(indices, np.random.default_rng(seed))
    exact = exact_rank_profile(M)
    floating = mb.rank_profile(M)
    assert len(exact.ranks) == max(indices) + 1
    assert (exact.ranks, exact.d_prime, exact.normal_rank_full) == (
        floating.ranks, floating.d_prime, floating.normal_rank_full
    )


@pytest.mark.parametrize("M,error", [
    (PolyMat.zeros(3, 2, 1, field="complex"), "requires a wide matrix"),
    (PolyMat.zeros(2, 4, 0), "requires degree_bound >= 1"),
], ids=["tall_complex", "grade_0"])
def test_exact_profile_checks_the_shape_before_converting(M, error, monkeypatch):
    def no_conversion(M):
        raise AssertionError("coefficients converted before the shape check")

    monkeypatch.setattr(oracle, "_integer_coeffs", no_conversion)
    with pytest.raises(mb.ShapeError, match=error):
        exact_rank_profile(M)


def _minor_bound_corpus():
    """Integer matrices as int64 and as Python ints, on both sides of the
    magnitude at which a squared row norm would overflow int64."""
    rng = np.random.default_rng(37)
    for i in range(24):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        bits = (4, 29, 30, 31, 40, 70)[i % 6]
        A = [[int(x) for x in row] for row in rng.integers(-2**15, 2**15, size=(rows, cols))]
        A[0][0] = (2**bits - 1) * (1 if i % 2 else -1)
        A[rows - 1] = [0] * cols
        yield np.array(A, dtype=np.int64 if bits < 63 else object)
        yield np.array(A, dtype=object)


@pytest.mark.parametrize("A", list(_minor_bound_corpus()))
def test_minor_bound_equals_its_python_int_loop(A):
    norms2 = sorted(sum(x * x for x in row) for row in A.tolist())
    assert oracle._minor_bound_squared(A) == math.prod(n for n in norms2[-min(A.shape):] if n)
