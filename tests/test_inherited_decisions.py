"""Full-rank verdicts M + delta inherits from its parent's memo by Weyl's
inequality inside the admissible radius.  Each is checked against the SVD
of a fresh matrix with the same coefficients, every public result on the
perturbed pair against the same call on fresh matrices, and the spy checks
which factorizations the inheritance saves."""

import numpy as np
import pytest

import minbasis as mb
import minbasis.dual as dual_module
from minbasis.dual import admissible_radius
from minbasis.polymat import PolyMat, add
from minbasis.sylvester import (
    _implied_full_rank,
    highest_row_degree_rank,
    perturbed_with_memo,
    singular_values,
    sylvester,
    sylvester_nullspace,
    sylvester_rank,
    sylvester_singular_values,
)

from helpers import LinalgSpy, random_perturbation, svds_of

# The generic_pipeline shapes of the benchmark: t = 0 except (4, 3, 2), whose
# column test on S_{k'-1} the bound must also cover.
SHAPES = [(3, 2, 2, "real"), (3, 2, 2, "complex"), (4, 3, 2, "real"),
          (8, 2, 6, "real"), (20, 5, 3, "real")]
FRACTIONS = [0.25, 0.5, 0.9, 0.99]


def _case(shape, fraction):
    """A certified sample of ``shape`` with its dual pair and a perturbation
    at ``fraction`` of the admissible radius."""
    m, n, d, field = shape
    M = mb.sample_full_sylvester(m, n, d, seed=17, field_tag=field)
    pair = mb.dual_minimal_basis(M)
    rng = np.random.default_rng([m, n, d, int(fraction * 100)])
    delta = random_perturbation(M, fraction * admissible_radius(M, pair.N), rng)
    return M, pair, delta


def _svd_path(monkeypatch, pair, delta, tol=None):
    """The propagation with every verdict on the perturbed pair factored:
    ``perturbed_with_memo`` replaced by a plain ``add``."""
    with monkeypatch.context() as patch:
        patch.setattr(dual_module, "perturbed_with_memo",
                      lambda P, dP, eta, tol: add(P, dP))
        report = mb.propagate_perturbation(pair, delta, tol)
    assert not _implied_full_rank(report.perturbed_pair.M, "hr", tol)
    return report


def _implied_keys(P):
    """The keys whose full rank P inherited, at the default tolerance."""
    return [key[1] for key in P._sylvester_memo
            if isinstance(key, tuple) and key[0] == "implied" and key[2] is None]


def _decision(P, key):
    return highest_row_degree_rank(P) if key == "hr" else sylvester_rank(P, key)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_bound_path_agrees_with_the_svd_path(shape, fraction, monkeypatch):
    M, pair, delta = _case(shape, fraction)
    report = mb.propagate_perturbation(pair, delta)
    new = report.perturbed_pair
    fresh = mb.verify_duality(PolyMat(new.M.coeffs), PolyMat(new.N.coeffs))
    assert (new.is_valid, new.failures) == (fresh.is_valid, fresh.failures) == (True, ())
    svd = _svd_path(monkeypatch, pair, delta)
    assert np.array_equal(report.delta_N.coeffs, svd.delta_N.coeffs)
    assert report.relative_change == svd.relative_change
    assert report.applied_norm == svd.applied_norm
    # Every matrix whose singular values M's memo held is inherited by
    # M + delta, and each inherited verdict is the full, not marginal,
    # decision a fresh SVD takes.
    assert sorted(map(str, _implied_keys(new.M))) == sorted(
        str(key) for key in M._sylvester_memo if not isinstance(key, tuple))
    for P in (new.M, new.N):
        fresh_P = PolyMat(P.coeffs)
        for key in _implied_keys(P):
            measured = _decision(fresh_P, key)
            assert measured.rank == len(measured.singular_values)
            assert not measured.marginal


@pytest.mark.parametrize("fraction", [0.5, 0.99])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_public_results_on_the_perturbed_pair_equal_those_on_fresh_matrices(
    shape, fraction
):
    # Inherited verdicts hold no spectrum: every decision, report, radius and
    # bound read from the perturbed pair is that of fresh matrices with the
    # same coefficients, bit for bit, and so is a chained propagation.
    M, pair, delta = _case(shape, fraction)
    new = mb.propagate_perturbation(pair, delta).perturbed_pair
    fresh = mb.verify_duality(PolyMat(new.M.coeffs), PolyMat(new.N.coeffs))

    def results(p):
        kp = p.k_prime_t.k_prime
        delta2 = random_perturbation(p.M, 0.3 * admissible_radius(p.M, p.N),
                                     np.random.default_rng(3))
        chained = mb.propagate_perturbation(p, delta2)
        return (
            mb.has_full_sylvester_rank(p.M),
            mb.certify_minimal_basis(p.M),
            mb.certify_minimal_basis(p.N),
            highest_row_degree_rank(p.M),
            highest_row_degree_rank(p.N),
            sylvester_rank(p.M, kp),
            admissible_radius(p.M, p.N),
            mb.thetas(p.M),
            mb.classical_lower_bound_check(p.M, num_samples=20),
            chained.admissible_radius,
            chained.relative_change,
            chained.delta_N.coeffs.tobytes(),
        )

    assert results(new) == results(fresh)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_perturbed_M_is_decided_without_an_svd(shape, fraction, monkeypatch):
    M, pair, delta = _case(shape, fraction)
    m, n, d, field = shape
    spy = LinalgSpy(monkeypatch)
    report = mb.propagate_perturbation(pair, delta)
    assert svds_of(spy.take(), report.perturbed_pair.M) == []
    assert _implied_full_rank(report.perturbed_pair.M, "hr", None)
    if pair.k_prime_t.t == 0:
        rng = np.random.default_rng(5)
        K = random_perturbation(PolyMat(np.zeros((d + 1, 2, m + n),
                                                 M.coeffs.dtype)), 1.0, rng)
        lif = mb.build_lification(K, M)
        spy.take()
        be = mb.backward_error_map(lif, random_perturbation(K, 1e-6, rng), delta)
        assert svds_of(spy.take(), be.perturbation.perturbed_pair.M) == []


@pytest.mark.parametrize("shape", [(3, 2, 2, "real"), (4, 3, 2, "real")],
                         ids=["t0", "t1"])
def test_an_inconclusive_bound_falls_back_to_the_svd(shape, monkeypatch):
    # A tolerance between sigma_min(S_k')/2 and sigma_min(S_k') leaves a gap
    # below 2 at S_k': a decision there would be marginal, so nothing is
    # inherited for S_k', which is factored and decides as on the SVD path.
    M, pair, delta = _case(shape, 0.1)
    kp = pair.k_prime_t.k_prime
    tol = 0.75 * float(sylvester_singular_values(M, kp)[-1])
    spy = LinalgSpy(monkeypatch)
    report = mb.propagate_perturbation(pair, delta, tol)
    M_new = report.perturbed_pair.M
    assert (id(M_new), kp) in [c.key for c in spy.take("svd")]
    assert not _implied_full_rank(M_new, kp, tol)
    svd = _svd_path(monkeypatch, pair, delta, tol)
    assert report.perturbed_pair.is_valid == svd.perturbed_pair.is_valid
    assert report.perturbed_pair.failures == svd.perturbed_pair.failures
    assert np.array_equal(report.delta_N.coeffs, svd.delta_N.coeffs)


def test_reading_a_decision_of_a_perturbed_matrix_factors_it(monkeypatch):
    M, pair, delta = _case((3, 2, 2, "real"), 0.5)
    kp = pair.k_prime_t.k_prime
    M_new = mb.propagate_perturbation(pair, delta).perturbed_pair.M
    assert _implied_full_rank(M_new, kp, None)
    measured = sylvester_rank(PolyMat(M_new.coeffs), kp)
    spy = LinalgSpy(monkeypatch)
    assert sylvester_rank(M_new, kp) == measured
    assert [c.key for c in spy.take("svd")] == [(id(M_new), kp)]
    sv = sylvester_singular_values(M_new, kp)
    assert spy.take("svd") == []
    assert np.array_equal(sv, singular_values(sylvester(M_new, kp)))
    null = sylvester_nullspace(M_new, kp + 1)
    assert np.abs(sylvester(M_new, kp + 1) @ null).max() < 1e-12


def test_changed_row_degrees_leave_the_highest_row_degree_matrix_unseeded():
    # Row 1 of M has degree 0 and delta gives it degree 1, so the highest-row-
    # degree matrix of M + delta is not near M's: only S_1 is inherited.
    M = PolyMat(np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                          [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]))
    assert highest_row_degree_rank(M).rank == 2
    assert sylvester_rank(M, 1).rank == 3
    raised = np.zeros((2, 2, 3))
    raised[1, 1, 0] = 1e-9
    child = perturbed_with_memo(M, PolyMat(raised), 1e-9, None)
    assert _implied_full_rank(child, 1, None)
    assert not _implied_full_rank(child, "hr", None)
    assert highest_row_degree_rank(child).singular_values[-1] == pytest.approx(1e-9)


def test_no_key_is_seeded_beyond_the_bound():
    # A perturbation size of sigma_min(S_1) certifies no rank of S_1, and a
    # verdict is kept only at the tolerance it was found for.
    M = mb.sample_full_sylvester(1, 3, 1, seed=2)
    sigma = float(sylvester_singular_values(M, 1)[-1])
    child = perturbed_with_memo(M, mb.scale(M, 0.0), sigma, None)
    assert not _implied_full_rank(child, 1, None)
    child = perturbed_with_memo(M, mb.scale(M, 0.0), 0.0, None)
    assert _implied_full_rank(child, 1, None)
    assert not _implied_full_rank(child, 1, 1e-12)


def test_a_zero_matrix_inherits_nothing():
    M = PolyMat(np.zeros((2, 1, 3)))
    assert highest_row_degree_rank(M).rank == 0
    assert sylvester_rank(M, 1).rank == 0
    child = perturbed_with_memo(M, M, 0.0, None)
    assert not _implied_full_rank(child, 1, None)
    assert not _implied_full_rank(child, "hr", None)
