import math

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius
from minbasis.polymat import PolyMat, evaluate, s1_stack
from minbasis.robust import (
    LowerBoundReport,
    classical_lower_bound_check,
    distance,
    fragile_neighbor,
    robustness_radius_fullsyl,
    robustness_radius_minimal,
    sharp_witness_flat,
    thetas,
)
from minbasis.sylvester import singular_values, sylvester

from helpers import (
    example1,
    example3,
    flat_1311,
    one_lambda,
    planted_indices,
    random_perturbation,
)


def test_radius_minimal_example1_matches_reported_value():
    rep = robustness_radius_minimal(example1())
    assert rep.kind == "minimal_basis"
    assert rep.k_used == 3
    assert rep.radius == pytest.approx(0.2569, abs=1e-3)
    assert rep.radius == pytest.approx(max(c for _, c in rep.scanned))


def test_radius_minimal_flat_is_one():
    rep = robustness_radius_minimal(flat_1311())
    assert rep.radius == pytest.approx(1.0, rel=1e-12)
    assert rep.k_used == 1


def test_radius_minimal_starts_at_the_certified_d_prime():
    rng = np.random.default_rng(43)
    cases = [example1(), flat_1311(), one_lambda()]
    cases += [planted_indices(eps, rng) for eps in [(0, 1, 3), (1, 2, 5), (2, 2, 2)]]
    cases += [mb.sample_full_sylvester(*dims, seed=seed)
              for seed, dims in enumerate([(3, 2, 2), (2, 3, 1), (4, 3, 2), (1, 3, 1)])]
    for M in cases:
        assert robustness_radius_minimal(M).scanned[0][0] == mb.certify_minimal_basis(M).d_prime


def test_radius_minimal_rejects_deficient_leading():
    with pytest.raises(mb.LeadingCoefficientError):
        robustness_radius_minimal(example3())


def test_radius_minimal_rejects_non_minimal():
    from helpers import example2

    with pytest.raises(mb.PreconditionError):
        robustness_radius_minimal(example2())


def test_radius_fullsyl_example1():
    rep = robustness_radius_fullsyl(example1())
    assert rep.radius == pytest.approx(0.2569, abs=1e-3)
    assert rep.kind == "full_sylvester"


def test_radius_fullsyl_flat_is_one():
    assert robustness_radius_fullsyl(flat_1311()).radius == pytest.approx(1.0)


def test_radius_fullsyl_rejects_example3():
    with pytest.raises(mb.PreconditionError):
        robustness_radius_fullsyl(example3())


def test_radius_fullsyl_two_rank_case_holds_under_perturbation():
    rng = np.random.default_rng(19)
    M = mb.sample_full_sylvester(4, 3, 1, seed=6)
    radius = robustness_radius_fullsyl(M).radius
    assert radius > 0
    for _ in range(50):
        delta = random_perturbation(M, rng.uniform(0.05, 0.95) * radius, rng)
        assert mb.has_full_sylvester_rank(mb.add(M, delta)).has_full_sylvester_rank


def test_perturb_and_hold_minimal_example1():
    rng = np.random.default_rng(23)
    M = example1()
    radius = robustness_radius_minimal(M).radius
    for _ in range(25):
        delta = random_perturbation(M, rng.uniform(0.05, 0.95) * radius, rng)
        perturbed = mb.add(M, delta)
        cert = mb.certify_minimal_basis(perturbed)
        assert cert.is_minimal_basis
        lead = perturbed.coeffs[perturbed.degree_bound]
        assert np.linalg.matrix_rank(lead) == 6


def test_sharp_witness_flat_unit_distance():
    witness, dist = sharp_witness_flat(flat_1311())
    assert dist == pytest.approx(1.0)
    assert not mb.has_full_sylvester_rank(witness).has_full_sylvester_rank
    from minbasis.sylvester import rank_nullity

    assert rank_nullity(s1_stack(witness)).rank == 1


def test_sharp_witness_random_flat_matches_sigma_min():
    for seed in range(5):
        M = mb.sample_full_sylvester(1, 3, 1, seed=seed)
        witness, dist = sharp_witness_flat(M)
        sv = singular_values(sylvester(M, 1))
        assert dist == pytest.approx(float(sv[-1]), rel=1e-12)
        assert distance(M, witness) == pytest.approx(dist, rel=1e-10)


def test_sharp_witness_distance_equals_fullsyl_radius():
    M = mb.sample_full_sylvester(1, 3, 1, seed=8)
    _, dist = sharp_witness_flat(M)
    assert dist == pytest.approx(robustness_radius_fullsyl(M).radius, rel=1e-12)


def test_sharp_witness_rejects_non_flat():
    with pytest.raises(mb.PreconditionError):
        sharp_witness_flat(example1())


def test_thetas_example1_case_c():
    th = thetas(example1())
    assert th.case == "c"
    s3 = singular_values(sylvester(example1(), 3))[-1] / math.sqrt(3)
    s4 = singular_values(sylvester(example1(), 4))[29] / math.sqrt(4)
    assert th.theta1 == pytest.approx(min(s3, s4), rel=1e-12)
    assert th.theta2 == pytest.approx(s4, rel=1e-12)
    assert th.theta1 <= th.theta2


def test_thetas_flat_case_b_equal():
    th = thetas(flat_1311())
    assert th.case == "b"
    assert th.theta1 == th.theta2
    s1 = singular_values(sylvester(flat_1311(), 1))[-1]
    s2 = singular_values(sylvester(flat_1311(), 2))[2] / math.sqrt(2)
    assert th.theta1 == pytest.approx(min(s1, s2), rel=1e-12)


def test_thetas_case_a_ordering():
    M = mb.sample_full_sylvester(4, 3, 1, seed=12)
    th = thetas(M)
    assert th.case == "a"
    assert th.theta1 <= th.theta2


def test_thetas_reject_non_fullsyl():
    with pytest.raises(mb.PreconditionError):
        thetas(example3())


def test_lower_bound_example1():
    rep = classical_lower_bound_check(example1(), num_samples=100, seed=2)
    assert rep.lower_bound == pytest.approx(0.2569 * math.sqrt(3), abs=2e-3)
    assert rep.sigma_leading == pytest.approx(1.0)
    assert rep.violations == 0
    assert rep.lower_bound <= rep.min_sampled_sigma + 1e-12


def test_lower_bound_equality_edge_on_one_lambda():
    rep = classical_lower_bound_check(one_lambda(), num_samples=50, seed=2)
    assert rep.d_prime == 1
    assert rep.lower_bound == pytest.approx(1.0)
    assert rep.sigma_leading == pytest.approx(1.0)
    assert rep.violations == 0


def test_lower_bound_rejects_deficient_leading():
    with pytest.raises(mb.LeadingCoefficientError):
        classical_lower_bound_check(example3())


def test_fragile_neighbor_example3_both_scales():
    M = example3()
    for eps in (1e-2, 1e-6):
        witness, dist = fragile_neighbor(M, eps)
        assert dist < eps
        assert dist == pytest.approx(0.5 * eps, rel=1e-12)
        assert not mb.certify_minimal_basis(witness).is_minimal_basis


def test_fragile_neighbor_degree_raise_example1():
    embedded = mb.embed(example1(), 2)
    assert mb.certify_minimal_basis(embedded).is_minimal_basis
    witness, dist = fragile_neighbor(embedded, 1e-6)
    assert dist < 1e-6
    assert not mb.certify_minimal_basis(witness).is_minimal_basis


def test_fragile_neighbor_single_row():
    embedded = mb.embed(one_lambda(), 2)
    witness, dist = fragile_neighbor(embedded, 1e-3)
    assert dist < 1e-3
    assert not mb.certify_minimal_basis(witness).is_minimal_basis


def test_fragile_neighbor_rejects_full_leading():
    with pytest.raises(mb.PreconditionError):
        fragile_neighbor(example1(), 1e-3)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-3])
def test_fragile_neighbor_rejects_an_eps_that_is_not_finite_and_positive(eps):
    # A NaN eps used to double the far-away point ~1000 times before failing,
    # and an infinite one returned a "neighbor below eps" at any distance.
    with pytest.raises(mb.ShapeError, match=repr(eps)):
        fragile_neighbor(mb.embed(one_lambda(), 2), eps)


_C = np.arange(8.0)


@pytest.mark.parametrize("A, B, error", [
    # One stacked matrix, two shapes: a 1x4 of grade 1 and a 2x4 of grade 0.
    (PolyMat(_C.reshape(2, 1, 4)), PolyMat(_C.reshape(1, 2, 4)), mb.ShapeError),
    (PolyMat(_C.reshape(2, 1, 4)), PolyMat(_C[:4].reshape(1, 1, 4)), mb.ShapeError),
    (PolyMat(_C.reshape(2, 1, 4)), PolyMat(_C.reshape(2, 1, 4) + 0j), mb.FieldMismatchError),
])
def test_distance_rejects_matrices_it_cannot_compare(A, B, error):
    with pytest.raises(error, match="distance"):
        distance(A, B)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectral_norms_equal_numpy_norm_2_bit_for_bit(field):
    # distance and applied_norm read the largest singular value of the stack,
    # which np.linalg.norm(., 2) takes from the same LAPACK values.
    M = mb.sample_full_sylvester(4, 3, 2, seed=21, field_tag=field)
    pair = mb.dual_minimal_basis(M)
    delta = random_perturbation(M, 0.25 * admissible_radius(M, pair.N), np.random.default_rng(22))
    applied = mb.propagate_perturbation(pair, delta).applied_norm
    assert applied == float(np.linalg.norm(s1_stack(delta), 2))
    B = mb.add(M, delta)
    assert distance(M, B) == float(np.linalg.norm(s1_stack(M) - s1_stack(B), 2))
    assert distance(M, M) == 0.0


def _lower_bound_loop(M, num_samples, seed, radii, tol):
    """``classical_lower_bound_check`` as a loop with one evaluation and SVD
    per sample."""
    m, d = M.rows, M.degree_bound
    dp = mb.certify_minimal_basis(M, tol).d_prime
    lower = float(singular_values(sylvester(M, dp))[(d + dp) * m - 1])
    sigma_lead = float(singular_values(M.coeffs[-1])[m - 1])
    violations = int(lower > sigma_lead + 1e-12)
    rng = np.random.default_rng(seed)
    min_sigma, min_at = float("inf"), 0j
    for i in range(num_samples):
        lam = radii[i % len(radii)] * np.exp(2j * np.pi * rng.uniform())
        sigma_m = float(singular_values(evaluate(M, lam))[m - 1])
        if sigma_m < min_sigma:
            min_sigma, min_at = sigma_m, complex(lam)
        violations += int(lower > sigma_m + 1e-12)
    return LowerBoundReport(
        lower_bound=lower,
        d_prime=dp,
        sigma_leading=sigma_lead,
        min_sampled_sigma=min_sigma,
        min_sampled_at=min_at,
        tightest_ratio=min(min_sigma, sigma_lead) / lower,
        samples=num_samples,
        radii=tuple(radii),
        violations=violations,
    )


@pytest.mark.parametrize("make", [
    example1,
    one_lambda,
    lambda: planted_indices((1, 2, 5), np.random.default_rng(2024)),
    lambda: mb.sample_full_sylvester(2, 3, 1, seed=3),
    lambda: mb.sample_full_sylvester(4, 3, 2, seed=3, field_tag="complex"),
], ids=["ex1", "one_lambda", "planted", "real", "complex"])
def test_lower_bound_check_equals_the_per_sample_loop(make):
    M = make()
    for seed in (0, 1, 7):
        for tol in (None, 1e-10, 0.0):
            for num_samples, radii in ((1, (0.5, 1.0, 2.0, 10.0)), (50, (3,)),
                                       (500, (0.5, 1.0, 2.0, 10.0))):
                got = classical_lower_bound_check(M, num_samples, seed, radii, tol)
                assert got == _lower_bound_loop(M, num_samples, seed, radii, tol)


@pytest.mark.parametrize("kwargs", [{"num_samples": 0}, {"num_samples": -3}, {"radii": ()}])
def test_lower_bound_check_rejects_an_empty_sample(kwargs):
    # Without a sample there is no sampled minimum to report.
    with pytest.raises(mb.ShapeError, match="must be positive"):
        classical_lower_bound_check(example1(), **kwargs)
