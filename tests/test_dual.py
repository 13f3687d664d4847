import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import (
    admissible_radius,
    dual_minimal_basis,
    propagate_perturbation,
    verify_duality,
)
from minbasis.polymat import PolyMat, evaluate, highest_row_degree_matrix, row_degrees
from minbasis.sylvester import rank_nullity, sylvester

from helpers import (
    example1,
    example1_N,
    example2,
    example2_N,
    one_lambda,
    one_lambda_dual,
    random_perturbation,
    reversal,
)


def rowspace_residual(basis: PolyMat, target_row: np.ndarray) -> float:
    # Least-squares distance of a row vector to the row space of basis rows.
    coeff, *_ = np.linalg.lstsq(basis.T, target_row, rcond=None)
    return float(np.linalg.norm(basis.T @ coeff - target_row))


def test_dual_example1_row_degrees_and_span():
    pair = dual_minimal_basis(example1())
    assert row_degrees(pair.N) == [3, 3]
    assert pair.residual < 1e-10
    reference_N = example1_N()
    rng = np.random.default_rng(4)
    for _ in range(5):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        ours = evaluate(pair.N, lam)
        theirs = evaluate(reference_N, lam)
        for row in theirs:
            assert rowspace_residual(ours, row) < 1e-10 * (1 + np.linalg.norm(row))


def test_dual_one_lambda_proportional_to_reference():
    pair = dual_minimal_basis(one_lambda())
    ref = one_lambda_dual()
    rng = np.random.default_rng(6)
    for _ in range(5):
        lam = rng.standard_normal()
        a = evaluate(pair.N, lam)[0]
        b = evaluate(ref, lam)[0]
        cross = a[0] * b[1] - a[1] * b[0]
        assert abs(cross) < 1e-12


def test_dual_431_degrees_and_residual():
    M = mb.sample_full_sylvester(4, 3, 1, seed=14)
    pair = dual_minimal_basis(M)
    assert sorted(row_degrees(pair.N)) == [1, 1, 2]
    assert pair.residual < 1e-10
    assert mb.certify_minimal_basis(pair.N).is_minimal_basis


def test_dual_extraction_rejects_non_fullsyl():
    from helpers import example3

    with pytest.raises(mb.PreconditionError):
        dual_minimal_basis(example3())


def test_dual_extraction_complex_field():
    M = mb.sample_full_sylvester(2, 2, 1, seed=3, field_tag="complex")
    pair = dual_minimal_basis(M)
    assert pair.N.field == "complex"
    assert pair.residual < 1e-10


def test_verify_duality_reference_pair_exact_zero_residual():
    pair = verify_duality(example1(), example1_N())
    assert pair.is_valid
    assert pair.residual == 0.0
    assert pair.k_prime_t.k_prime == 3


def test_verify_duality_flags_non_minimal_M():
    pair = verify_duality(example2(), example2_N())
    assert not pair.is_valid
    assert pair.residual == 0.0
    assert any("M is not a minimal basis" in f for f in pair.failures)


def test_verify_duality_flags_nonzero_residual():
    bad_N = PolyMat.from_coeff_list([[[1.0, 1.0]], [[0.0, 0.0]]])
    pair = verify_duality(one_lambda(), bad_N)
    assert not pair.is_valid
    assert any("residual" in f for f in pair.failures)


def test_verify_duality_of_a_zero_matrix_has_zero_residual():
    # A zero M or N has no largest entry to scale by; the product is zero.
    zero = PolyMat.zeros(1, 2, 1)
    assert verify_duality(one_lambda(), zero).failures == (
        "N is not a minimal basis (hr_rank_deficient)",)
    assert verify_duality(zero, one_lambda()).failures == (
        "M is not a minimal basis (not_full_normal_rank)",)
    assert verify_duality(zero, one_lambda()).residual == 0.0


# The extracted dual of this M with every nonzero coefficient moved: the
# same row degrees [3, 3], itself a minimal basis, and no dual of M.
_WRONG_DUAL_M = mb.sample_full_sylvester(3, 2, 2, seed=1)


def _wrong_dual() -> PolyMat:
    coeffs = np.array(dual_minimal_basis(_WRONG_DUAL_M).N.coeffs)
    moved = coeffs != 0
    coeffs[moved] += 0.5 * np.random.default_rng(5).standard_normal(int(moved.sum()))
    return PolyMat(coeffs)


@pytest.mark.parametrize("s", [1e-300, 1e-12, 1e-11, 1e-10, 1.0, 1e150, 1e300])
def test_verify_duality_residual_test_is_scale_free(s):
    # An absolute floor accepted any N at tiny scales, where M N^T falls
    # below it or underflows, and an overflowing product and threshold
    # accepted any N at huge ones.
    wrong = _wrong_dual()
    assert row_degrees(wrong) == [3, 3] and mb.certify_minimal_basis(wrong).is_minimal_basis
    M = mb.scale(_WRONG_DUAL_M, s)
    pair = verify_duality(M, wrong)
    assert not pair.is_valid
    assert any("duality residual" in f for f in pair.failures)
    assert verify_duality(M, dual_minimal_basis(M).N).is_valid


def test_verify_duality_rejects_mixed_fields():
    M = example1()
    N = PolyMat(dual_minimal_basis(M).N.coeffs + 0j)
    with pytest.raises(mb.FieldMismatchError, match="verify_duality"):
        verify_duality(M, N)


def test_verify_duality_flags_dimension_sum():
    M = mb.sample_full_sylvester(1, 3, 1, seed=2)
    pair = verify_duality(M, M)
    assert not pair.is_valid
    assert any("dimension sum" in f for f in pair.failures)


def test_propagate_zero_perturbation_is_exactly_zero():
    pair = dual_minimal_basis(example1())
    rep = propagate_perturbation(pair, PolyMat.zeros(6, 8, 1))
    assert not np.any(rep.delta_N.coeffs)
    assert rep.relative_change == 0.0


def test_propagate_example1_bound_and_degrees():
    pair = dual_minimal_basis(example1())
    rng = np.random.default_rng(8)
    radius = admissible_radius(pair.M, pair.N)
    delta = random_perturbation(pair.M, 0.1 * radius, rng)
    rep = propagate_perturbation(pair, delta)
    assert rep.applied_norm < rep.admissible_radius
    assert rep.relative_change <= rep.guaranteed_bound
    assert row_degrees(rep.perturbed_pair.N) == [3, 3]
    assert rep.perturbed_pair.is_valid


def test_propagate_rejects_inadmissible():
    pair = dual_minimal_basis(example1())
    rng = np.random.default_rng(9)
    radius = admissible_radius(pair.M, pair.N)
    delta = random_perturbation(pair.M, 2.0 * radius, rng)
    with pytest.raises(mb.AdmissibilityError) as err:
        propagate_perturbation(pair, delta)
    assert err.value.applied_norm > err.value.admissible_radius


def test_propagate_case_a_row_split_and_residual():
    M = mb.sample_full_sylvester(4, 3, 1, seed=21)
    pair = dual_minimal_basis(M)
    rng = np.random.default_rng(10)
    delta = random_perturbation(M, 0.3 * admissible_radius(M, pair.N), rng)
    rep = propagate_perturbation(pair, delta)
    assert rep.row_degree_split == (2, 1)
    assert rep.perturbed_pair.residual < 1e-9
    hr = highest_row_degree_matrix(rep.perturbed_pair.N)
    assert np.linalg.matrix_rank(hr) == 3
    assert rep.relative_change <= rep.guaranteed_bound


def test_propagate_min_norm_orthogonality():
    # The correction stack must be orthogonal to the nullspace of the
    # perturbed Sylvester operator (Moore-Penrose least-norm property).
    M = mb.sample_full_sylvester(4, 3, 1, seed=33)
    pair = dual_minimal_basis(M)
    rng = np.random.default_rng(12)
    delta = random_perturbation(M, 0.2 * admissible_radius(M, pair.N), rng)
    rep = propagate_perturbation(pair, delta)
    kp, t = pair.k_prime_t.k_prime, pair.k_prime_t.t
    M_new = rep.perturbed_pair.M
    degs = row_degrees(pair.N)
    x_rows = [j for j, dg in enumerate(degs) if dg == kp - 1]
    q = M.cols
    dX = np.vstack([rep.delta_N.coeffs[i][x_rows, :].T for i in range(kp)])
    S = sylvester(M_new, kp)
    dec = rank_nullity(S)
    _, _, vh = np.linalg.svd(S, full_matrices=True)
    null_basis = vh[dec.rank :].conj().T
    assert null_basis.shape[1] == t
    projection = null_basis.conj().T @ dX
    assert np.linalg.norm(projection) < 1e-10 * (1 + np.linalg.norm(dX))


def test_propagate_shuffled_rows_keeps_caller_order():
    M = mb.sample_full_sylvester(4, 3, 1, seed=44)
    pair = dual_minimal_basis(M)
    # Reorder N so a degree-2 row comes first; the split keys off degrees.
    perm = [2, 0, 1]
    N_shuffled = PolyMat(pair.N.coeffs[:, perm, :])
    shuffled_pair = verify_duality(M, N_shuffled)
    assert shuffled_pair.is_valid
    rng = np.random.default_rng(13)
    delta = random_perturbation(M, 0.2 * admissible_radius(M, N_shuffled), rng)
    rep = propagate_perturbation(shuffled_pair, delta)
    assert row_degrees(rep.perturbed_pair.N) == row_degrees(N_shuffled)


def test_dual_has_full_sylvester_rank_exactly_when_t_is_zero():
    cases = [
        (example1(), True),
        (mb.sample_full_sylvester(1, 3, 1, seed=1), False),
        (mb.sample_full_sylvester(3, 2, 2, seed=1), True),
    ]
    for M, expected in cases:
        pair = dual_minimal_basis(M)
        assert (pair.k_prime_t.t == 0) is expected
        assert mb.has_full_sylvester_rank(pair.N).has_full_sylvester_rank is expected


def test_dual_of_dual_kprime():
    # For t = 0 the dual's own block count equals the original grade.
    pair = dual_minimal_basis(example1())
    rep = mb.has_full_sylvester_rank(pair.N)
    assert rep.k_prime_t.k_prime == example1().degree_bound
    assert rep.k_prime_t.t == 0


def _reversed_pair(pair):
    """(rev_d M, rev_k' N) of a t = 0 pair, verified, with both components
    checked for full-Sylvester-rank."""
    rev = verify_duality(reversal(pair.M, pair.M.degree_bound),
                         reversal(pair.N, pair.N.degree_bound))
    assert rev.is_valid
    assert mb.has_full_sylvester_rank(rev.M).has_full_sylvester_rank
    assert mb.has_full_sylvester_rank(rev.N).has_full_sylvester_rank
    return rev


def test_reversed_pair_example1_is_dual_with_full_sylvester_rank():
    _reversed_pair(dual_minimal_basis(example1()))


def test_reversed_pair_one_lambda_is_dual_with_full_sylvester_rank():
    pair = verify_duality(one_lambda(), one_lambda_dual())
    assert pair.is_valid
    rev = _reversed_pair(pair)
    # rev_1 [1, lam] = [lam, 1] and rev_1 [-lam, 1] = [-1, lam].
    assert np.array_equal(rev.M.coeffs[0], [[0.0, 1.0]])
    assert np.array_equal(rev.M.coeffs[1], [[1.0, 0.0]])
    assert np.array_equal(rev.N.coeffs[0], [[-1.0, 0.0]])
    assert np.array_equal(rev.N.coeffs[1], [[0.0, 1.0]])


def test_reversed_pair_with_positive_t_is_not_a_dual_pair():
    # N has rows of degree below k' when t > 0, so rev_k' N drops rank at 0:
    # reversal gives a dual pair only when t = 0.
    pair = dual_minimal_basis(mb.sample_full_sylvester(1, 3, 1, seed=5))
    assert pair.k_prime_t.t == 2
    rev = verify_duality(reversal(pair.M, pair.M.degree_bound),
                         reversal(pair.N, pair.N.degree_bound))
    assert not rev.is_valid
    assert rev.failures == ("N is not a minimal basis (degree_sum_mismatch)",)
    assert not mb.has_full_sylvester_rank(rev.N).has_full_sylvester_rank


def test_swapped_roles_bound_when_t_zero():
    # With t = 0 the dual also has full-Sylvester-rank, so perturbing N and
    # propagating to M works through the same machinery.
    M = mb.sample_full_sylvester(2, 2, 2, seed=17)
    pair = dual_minimal_basis(M)
    assert mb.has_full_sylvester_rank(pair.N).has_full_sylvester_rank
    swapped = verify_duality(pair.N, pair.M)
    assert swapped.is_valid
    rng = np.random.default_rng(15)
    delta = random_perturbation(pair.N, 0.2 * admissible_radius(pair.N, pair.M), rng)
    rep = propagate_perturbation(swapped, delta)
    assert rep.relative_change <= rep.guaranteed_bound
