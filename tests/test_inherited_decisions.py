"""Full-rank verdicts on M + delta that ``weyl_full_rank`` draws from the
parent's memo by Weyl's inequality inside the admissible radius.  Each is
checked against the SVD of a fresh matrix with the same coefficients, every
public result on the perturbed pair against the same call on fresh
matrices, and the spy checks which factorizations the bounds save."""

import numpy as np
import pytest

import minbasis as mb
import minbasis.dual as dual_module
from minbasis.dual import admissible_radius
from minbasis.polymat import PolyMat, add, s1_stack
from minbasis.sylvester import (
    highest_row_degree_rank,
    singular_values,
    sylvester,
    sylvester_nullspace,
    sylvester_rank,
    sylvester_singular_values,
    weyl_full_rank,
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
    """The propagation with every check on the perturbed pair factored:
    ``weyl_full_rank`` patched to decide nothing.  It propagates a copy of
    ``delta``, so it recomputes what M's memo keeps of a propagation of
    ``delta`` itself."""
    with monkeypatch.context() as patch:
        patch.setattr(dual_module, "weyl_full_rank", lambda *args: False)
        spy = LinalgSpy(patch)
        report = mb.propagate_perturbation(pair, PolyMat(delta.coeffs), tol)
        assert svds_of(spy.take(), report.perturbed_pair.M) != []
    return report


def _same_pair(a, b):
    return (a.residual, a.k_prime_t, a.is_valid, a.failures) == (
        b.residual, b.k_prime_t, b.is_valid, b.failures) and all(
        np.array_equal(x.coeffs, y.coeffs) for x, y in ((a.M, b.M), (a.N, b.N)))


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
    assert new.residual == fresh.residual
    svd = _svd_path(monkeypatch, pair, delta)
    assert _same_pair(new, svd.perturbed_pair)
    assert np.array_equal(report.delta_N.coeffs, svd.delta_N.coeffs)
    assert report.relative_change == svd.relative_change
    assert report.applied_norm == svd.applied_norm
    # The bound holds for every matrix whose singular values M's memo holds,
    # and each full-rank verdict it gives, on M + delta or N + delta_N, is
    # the full, not marginal, decision a fresh SVD takes.
    norm_delta_n = float(np.linalg.norm(s1_stack(report.delta_N)))
    keys = [key for key in M._sylvester_memo if not isinstance(key, tuple)]
    for parent, child, eta in ((M, new.M, report.applied_norm),
                               (pair.N, new.N, norm_delta_n)):
        passed = [key for key in keys if weyl_full_rank(parent, child, [key], eta, None)]
        if parent is M:
            assert passed == keys
        fresh_P = PolyMat(child.coeffs)
        for key in passed:
            measured = _decision(fresh_P, key)
            assert measured.rank == len(measured.singular_values)
            assert not measured.marginal


@pytest.mark.parametrize("fraction", [0.5, 0.99])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_public_results_on_the_perturbed_pair_equal_those_on_fresh_matrices(
    shape, fraction
):
    # Nothing is stored on the perturbed pair: every decision, report, radius
    # and bound read from it is that of fresh matrices with the same
    # coefficients, bit for bit, and so is a chained propagation.
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
    assert weyl_full_rank(M, report.perturbed_pair.M, ["hr"], report.applied_norm, None)
    if pair.k_prime_t.t == 0:
        rng = np.random.default_rng(5)
        K = random_perturbation(PolyMat(np.zeros((d + 1, 2, m + n),
                                                 M.coeffs.dtype)), 1.0, rng)
        lif = mb.build_lification(K, M)
        spy.take()
        # A copy of delta: the map propagates it again, not from M's memo.
        be = mb.backward_error_map(lif, random_perturbation(K, 1e-6, rng),
                                   PolyMat(delta.coeffs))
        assert svds_of(spy.take(), be.perturbation.perturbed_pair.M) == []


@pytest.mark.parametrize("shape", [(3, 2, 2, "real"), (4, 3, 2, "real")],
                         ids=["t0", "t1"])
def test_an_inconclusive_bound_falls_back_to_the_svd(shape, monkeypatch):
    # A tolerance between sigma_min(S_k')/2 and sigma_min(S_k') leaves a gap
    # below 2 at S_k': a decision there would be marginal, so the bound
    # decides nothing for S_k', which is factored and decides as on the SVD
    # path.
    M, pair, delta = _case(shape, 0.1)
    kp = pair.k_prime_t.k_prime
    tol = 0.75 * float(sylvester_singular_values(M, kp)[-1])
    spy = LinalgSpy(monkeypatch)
    report = mb.propagate_perturbation(pair, delta, tol)
    M_new = report.perturbed_pair.M
    assert (id(M_new), kp) in [c.key for c in spy.take("svd")]
    assert not weyl_full_rank(M, M_new, [kp], report.applied_norm, tol)
    svd = _svd_path(monkeypatch, pair, delta, tol)
    assert _same_pair(report.perturbed_pair, svd.perturbed_pair)
    assert np.array_equal(report.delta_N.coeffs, svd.delta_N.coeffs)


def test_a_bound_that_fails_for_N_alone_sends_the_pair_to_verify_duality(monkeypatch):
    M, pair, delta = _case((3, 2, 2, "real"), 0.5)
    with monkeypatch.context() as patch:
        patch.setattr(dual_module, "weyl_full_rank",
                      lambda P, *args: P is not pair.N and weyl_full_rank(P, *args))
        spy = LinalgSpy(patch)
        new = mb.propagate_perturbation(pair, PolyMat(delta.coeffs)).perturbed_pair
        assert [c for c in spy.take("svd") if c.hr_of == id(new.N)] != []
    assert _same_pair(new, mb.propagate_perturbation(pair, delta).perturbed_pair)


def test_a_residual_above_the_threshold_fails_the_pair(monkeypatch):
    # With delta_N forced to 0 every bound passes, N + delta_N being N, and
    # only the residual check stops the pair.
    M, pair, delta = _case((3, 2, 2, "real"), 0.5)
    monkeypatch.setattr(dual_module, "_min_norm_solve",
                        lambda A, B: np.zeros((A.shape[1], B.shape[1])))
    with pytest.raises(mb.NumericalInconsistencyError, match="duality residual"):
        mb.propagate_perturbation(pair, delta)


def test_reading_a_decision_of_a_perturbed_matrix_factors_it(monkeypatch):
    M, pair, delta = _case((3, 2, 2, "real"), 0.5)
    kp = pair.k_prime_t.k_prime
    report = mb.propagate_perturbation(pair, delta)
    M_new = report.perturbed_pair.M
    assert weyl_full_rank(M, M_new, [kp], report.applied_norm, None)
    measured = sylvester_rank(PolyMat(M_new.coeffs), kp)
    spy = LinalgSpy(monkeypatch)
    assert sylvester_rank(M_new, kp) == measured
    assert [c.key for c in spy.take("svd")] == [(id(M_new), kp)]
    sv = sylvester_singular_values(M_new, kp)
    assert spy.take("svd") == []
    assert np.array_equal(sv, singular_values(sylvester(M_new, kp)))
    null = sylvester_nullspace(M_new, kp + 1)
    assert np.abs(sylvester(M_new, kp + 1) @ null).max() < 1e-12


def test_changed_row_degrees_block_the_highest_row_degree_bound():
    # Row 1 of M has degree 0 and delta gives it degree 1, so the highest-row-
    # degree matrix of M + delta is not near M's: only S_1 passes.
    M = PolyMat(np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                          [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]))
    assert highest_row_degree_rank(M).rank == 2
    assert sylvester_rank(M, 1).rank == 3
    raised = np.zeros((2, 2, 3))
    raised[1, 1, 0] = 1e-9
    child = add(M, PolyMat(raised))
    assert weyl_full_rank(M, child, [1], 1e-9, None)
    assert not weyl_full_rank(M, child, ["hr"], 1e-9, None)
    assert not weyl_full_rank(M, child, [1, "hr"], 1e-9, None)
    assert highest_row_degree_rank(child).singular_values[-1] == pytest.approx(1e-9)


def test_no_key_passes_beyond_the_bound():
    # A perturbation size of sigma_min(S_1) certifies no rank of S_1; with
    # zero shift the bound decides at the default tolerance, and at an
    # explicit one only above the round-off floor and below sigma_min / 1e3.
    M = mb.sample_full_sylvester(1, 3, 1, seed=2)
    sv = sylvester_singular_values(M, 1)
    child = add(M, mb.scale(M, 0.0))
    assert not weyl_full_rank(M, child, [1], float(sv[-1]), None)
    assert weyl_full_rank(M, child, [1], 0.0, None)
    assert weyl_full_rank(M, child, [1], 0.0, 1e-12)
    assert not weyl_full_rank(M, child, [1], 0.0, 1e-300)
    assert not weyl_full_rank(M, child, [1], 0.0, 1.01e-3 * float(sv[-1]))


def test_a_key_missing_from_the_parents_memo_passes_nothing():
    # The sampler factored S_1 of M and nothing else.
    M = mb.sample_full_sylvester(1, 3, 1, seed=2)
    child = add(M, mb.scale(M, 0.0))
    assert not weyl_full_rank(M, child, ["hr"], 0.0, None)
    assert not weyl_full_rank(M, child, [1, 2], 0.0, None)
    assert weyl_full_rank(M, child, [1], 0.0, None)
    highest_row_degree_rank(M)
    assert weyl_full_rank(M, child, [1, "hr"], 0.0, None)


def test_a_zero_matrix_passes_nothing():
    M = PolyMat(np.zeros((2, 1, 3)))
    assert highest_row_degree_rank(M).rank == 0
    assert sylvester_rank(M, 1).rank == 0
    child = add(M, M)
    assert not weyl_full_rank(M, child, [1], 0.0, None)
    assert not weyl_full_rank(M, child, ["hr"], 0.0, None)
