import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius, propagate_perturbation
from minbasis.lify import backward_error_map, build_lification, minimal_index_shift_check
from minbasis.polymat import PolyMat, evaluate, poly_multiply_transpose, vstack_polymats

from helpers import example1, example1_N, random_perturbation


def k_for_example1(rows: int = 2) -> PolyMat:
    C0 = np.hstack([np.eye(rows), np.zeros((rows, 8 - rows))])
    return PolyMat.from_coeff_list([C0, np.zeros((rows, 8))])


def test_reference_dual_gives_lambda_cubed_identity():
    P = poly_multiply_transpose(k_for_example1(), example1_N())
    expected = np.zeros((4, 2, 2))
    expected[3] = np.eye(2)
    assert P.degree_bound == 4
    assert np.allclose(P.coeffs[:4], expected)
    assert not np.any(P.coeffs[4])


def test_build_lification_example1():
    lif = build_lification(k_for_example1(), example1())
    assert lif.k_prime == 3
    assert lif.ell == 1
    assert (lif.P.rows, lif.P.cols) == (2, 2)
    assert lif.P.degree_bound == 4
    assert lif.L.rows == 8
    assert lif.pair.residual < 1e-10


def test_build_lification_zero_K():
    K = PolyMat.zeros(2, 8, 1)
    lif = build_lification(K, example1())
    assert not np.any(lif.P.coeffs)


def test_build_lification_product_residual_random():
    rng = np.random.default_rng(3)
    M = mb.sample_full_sylvester(3, 2, 2, seed=6)  # k' = 3
    K = PolyMat(rng.standard_normal((3, 1, 5)))
    lif = build_lification(K, M)
    recomputed = poly_multiply_transpose(K, lif.N)
    assert np.linalg.norm(lif.P.coeffs - recomputed.coeffs) < 1e-10


def test_build_lification_rejects_indivisible():
    M = mb.sample_full_sylvester(4, 3, 1, seed=0)  # m*ell = 4 not divisible by 3
    K = PolyMat.zeros(1, 7, 1)
    with pytest.raises(mb.PreconditionError, match="divisible"):
        build_lification(K, M)


def test_build_lification_rejects_non_fullsyl():
    from helpers import example3

    K = PolyMat.zeros(1, 8, 2)
    with pytest.raises(mb.PreconditionError):
        build_lification(K, example3())


def test_p_recovery_consistency_at_sampled_points():
    lif = build_lification(k_for_example1(), example1())
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = evaluate(lif.P, lam)
        rhs = evaluate(lif.K, lam) @ evaluate(lif.N, lam).T
        scale = 1 + np.linalg.norm(rhs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_backward_error_zero_perturbation():
    lif = build_lification(k_for_example1(), example1())
    rep = backward_error_map(lif, PolyMat.zeros(2, 8, 1), PolyMat.zeros(6, 8, 1))
    assert not np.any(rep.delta_P.coeffs)
    assert rep.relative_dP == 0.0
    assert rep.bound_rhs == 0.0
    assert rep.C_PL > 0


def test_backward_error_random_trials_respect_bound():
    lif = build_lification(k_for_example1(), example1())
    radius = admissible_radius(lif.M, lif.N)
    rng = np.random.default_rng(7)
    for _ in range(20):
        dm = random_perturbation(lif.M, rng.uniform(0.01, 0.5) * radius, rng)
        dk = random_perturbation(lif.K, rng.uniform(0.0, 0.1), rng)
        rep = backward_error_map(lif, dk, dm)
        assert rep.relative_dP <= rep.bound_rhs
        assert rep.admissible


def test_backward_error_scaling_of_bound():
    lif = build_lification(k_for_example1(), example1())
    radius = admissible_radius(lif.M, lif.N)
    rng = np.random.default_rng(11)
    dm = random_perturbation(lif.M, 0.05 * radius, rng)
    dk = random_perturbation(lif.K, 0.01, rng)
    rep1 = backward_error_map(lif, dk, dm)
    rep2 = backward_error_map(lif, mb.scale(dk, 2.0), mb.scale(dm, 2.0))
    # Doubling the perturbation scales the bound's delta-L factor linearly;
    # C_PL moves only through the ||S1(delta K)||_F term.
    assert rep2.factors["norm_delta_L"] == pytest.approx(2 * rep1.factors["norm_delta_L"], rel=1e-12)
    ratio = rep2.bound_rhs / rep1.bound_rhs
    assert 2.0 <= ratio <= 2.0 * (rep2.C_PL / rep1.C_PL) + 1e-9


def test_backward_error_admissibility_enforced():
    lif = build_lification(k_for_example1(), example1())
    radius = admissible_radius(lif.M, lif.N)
    rng = np.random.default_rng(13)
    dm = random_perturbation(lif.M, 3.0 * radius, rng)
    with pytest.raises(mb.AdmissibilityError):
        backward_error_map(lif, PolyMat.zeros(2, 8, 1), dm)


def test_index_shift_square_nonsingular_P():
    # p = n = 2: both P and L are square and nonsingular, no minimal indices.
    rng = np.random.default_rng(17)
    lif = build_lification(k_for_example1(), example1())
    ok = minimal_index_shift_check(
        lif, PolyMat.zeros(2, 8, 1),
        propagate_perturbation(lif.pair, PolyMat.zeros(6, 8, 1)),
    )
    assert ok is True


def test_index_shift_known_structure():
    # K = [e1^T; 0-padded] with one row: P = lam^3 * (first row of I2 dual
    # product) has a single right minimal index; L carries it shifted by k'.
    K = k_for_example1(rows=1)
    lif = build_lification(K, example1())
    assert (lif.P.rows, lif.P.cols) == (1, 2)
    indices_P = mb.right_minimal_indices(lif.P)
    indices_L = mb.right_minimal_indices(lif.L)
    assert [e + lif.k_prime for e in indices_P] == indices_L
    ok = minimal_index_shift_check(
        lif, PolyMat.zeros(1, 8, 1),
        propagate_perturbation(lif.pair, PolyMat.zeros(6, 8, 1)),
    )
    assert ok is True


def test_index_shift_literal_lambda_cubed_instance():
    # Against the reference dual basis, K = e1 picks out P = [lam^3, 0],
    # which has the single right minimal index 0; the stacked L carries it
    # shifted up by k' = 3.  The shift holds for any choice of dual basis
    # because the recovered polynomials differ by a unimodular factor.
    K = k_for_example1(rows=1)
    P_ref = poly_multiply_transpose(K, example1_N())
    expected = np.zeros((5, 1, 2))
    expected[3, 0, 0] = 1.0
    assert np.allclose(P_ref.coeffs, expected)
    assert mb.right_minimal_indices(P_ref) == [0]
    L = vstack_polymats([K, example1()])
    assert mb.right_minimal_indices(L) == [0 + 3]


def test_index_shift_random_perturbed_instance():
    lif = build_lification(k_for_example1(rows=1), example1())
    radius = admissible_radius(lif.M, lif.N)
    rng = np.random.default_rng(19)
    dm = random_perturbation(lif.M, 0.1 * radius, rng)
    dk = random_perturbation(lif.K, 0.05, rng)
    assert minimal_index_shift_check(lif, dk, propagate_perturbation(lif.pair, dm)) is True


def test_index_shift_is_skipped_when_the_perturbed_P_lacks_full_row_normal_rank():
    # K and delta K each have two equal rows, so P + delta P = (K + dK) N_new^T
    # has two equal rows, rank 1 < 2: its right minimal indices are
    # undefined and the check is skipped, not failed.
    M = mb.sample_full_sylvester(6, 3, 3, seed=11)
    rng = np.random.default_rng(12)
    row = rng.standard_normal((4, 1, 9))
    lif = build_lification(PolyMat(np.concatenate([row, row], axis=1)), M)
    assert (lif.P.rows, lif.P.cols) == (2, 3)
    drow = 0.01 * rng.standard_normal((4, 1, 9))
    dk = PolyMat(np.concatenate([drow, drow], axis=1))
    dm = random_perturbation(M, 0.25 * admissible_radius(M, lif.N), rng)
    perturbation = propagate_perturbation(lif.pair, dm)
    assert minimal_index_shift_check(lif, dk, perturbation) is None
    # The same perturbation with two different rows in delta K is checked.
    dk_full = PolyMat(0.01 * rng.standard_normal((4, 2, 9)))
    assert minimal_index_shift_check(lif, dk_full, perturbation) is True


def test_index_shift_is_skipped_when_the_perturbed_P_is_tall():
    # K has 3 rows and N has n = 2, so P = K N^T is 3x2: a tall matrix
    # never has full row normal rank.
    M = mb.sample_full_sylvester(4, 2, 1, seed=3)
    lif = build_lification(PolyMat(np.random.default_rng(0).standard_normal((2, 3, 6))), M)
    assert (lif.P.rows, lif.P.cols) == (3, 2)
    rng = np.random.default_rng(1)
    dm = random_perturbation(M, 0.01 * admissible_radius(M, lif.N), rng)
    dk = random_perturbation(lif.K, 1e-3, rng)
    assert minimal_index_shift_check(lif, dk, propagate_perturbation(lif.pair, dm)) is None


def test_ell_two_family():
    rng = np.random.default_rng(23)
    M = mb.sample_full_sylvester(2, 2, 2, seed=29)  # k' = 2, t = 0
    K = PolyMat(rng.standard_normal((3, 1, 4)))
    lif = build_lification(K, M)
    assert lif.k_prime == 2
    assert lif.P.degree_bound == 4
    radius = admissible_radius(M, lif.N)
    dm = random_perturbation(M, 0.2 * radius, rng)
    dk = random_perturbation(K, 0.05, rng)
    rep = backward_error_map(lif, dk, dm)
    assert rep.relative_dP <= rep.bound_rhs
    assert minimal_index_shift_check(lif, dk, rep.perturbation) in (True, None)
