"""One propagation of a perturbation per dual pair: M's memo keeps the latest
``propagate_perturbation`` report per tolerance, with the N and delta_M
objects it was computed from, and a call with the same objects, such as
``backward_error_map``'s, reads it back without factoring anything."""

import gc
import weakref

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius
from minbasis.polymat import PolyMat, scale

from helpers import LinalgSpy, random_perturbation


def _case(shape=(6, 3, 3), field="real", seed=11):
    """A fresh full-Sylvester-rank M with its dual pair and a perturbation at
    a quarter of the admissible radius."""
    M = PolyMat(mb.sample_full_sylvester(*shape, seed=seed, field_tag=field).coeffs)
    pair = mb.dual_minimal_basis(M)
    delta = random_perturbation(M, 0.25 * admissible_radius(M, pair.N),
                                np.random.default_rng(seed + 1))
    return M, pair, delta


def _fields(report):
    """Every field of a PerturbReport, arrays as bytes, for a bit-for-bit
    comparison."""
    new = report.perturbed_pair
    return (report.thetas, report.admissible_radius, report.applied_norm,
            report.relative_change, report.guaranteed_bound, report.row_degree_split,
            report.delta_N.coeffs.tobytes(), new.M.coeffs.tobytes(), new.N.coeffs.tobytes(),
            new.residual, new.k_prime_t, new.is_valid, new.failures)


def _slots(M):
    return {key for key in M._sylvester_memo
            if isinstance(key, tuple) and key[0] == "perturb"}


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_backward_error_map_reuses_the_propagation_and_factors_nothing(
        field, monkeypatch):
    M, pair, delta = _case((3, 2, 2) if field == "complex" else (6, 3, 3), field)
    rng = np.random.default_rng(12)
    K = random_perturbation(PolyMat(np.zeros((M.degree_bound + 1, 2, M.cols),
                                             M.coeffs.dtype)), 1.0, rng)
    delta_K = random_perturbation(K, 1e-6, rng)
    report = mb.propagate_perturbation(pair, delta)
    spy = LinalgSpy(monkeypatch)
    be = mb.backward_error_map(mb.build_lification(K, M), delta_K, delta)
    assert spy.take() == []
    assert be.perturbation is report
    assert mb.propagate_perturbation(pair, delta) is report


@pytest.mark.parametrize("shape, field", [((6, 3, 3), "real"), ((4, 3, 2), "real"),
                                          ((3, 2, 2), "complex")])
def test_equal_but_distinct_objects_recompute_the_same_fields(shape, field, monkeypatch):
    M, pair, delta = _case(shape, field)
    report = mb.propagate_perturbation(pair, delta)
    spy = LinalgSpy(monkeypatch)
    copied = mb.propagate_perturbation(pair, PolyMat(delta.coeffs))
    assert copied is not report
    assert [c for c in spy.take() if c.kind == "qr"] != []
    assert _fields(copied) == _fields(report)
    # Another N with the same coefficients, verified as a pair of its own.
    other = mb.verify_duality(M, PolyMat(pair.N.coeffs))
    again = mb.propagate_perturbation(other, delta)
    assert again is not report and again is not copied
    assert [c for c in spy.take() if c.kind == "qr"] != []
    assert _fields(again) == _fields(report)


def test_a_call_that_raises_stores_nothing():
    M, pair, delta = _case()
    too_big = scale(delta, 8.0)
    with pytest.raises(mb.AdmissibilityError):
        mb.propagate_perturbation(pair, too_big)
    assert _slots(M) == set()
    report = mb.propagate_perturbation(pair, delta)
    slot = M._sylvester_memo["perturb", None]
    with pytest.raises(mb.AdmissibilityError):
        mb.propagate_perturbation(pair, too_big)
    assert M._sylvester_memo["perturb", None] is slot
    assert mb.propagate_perturbation(pair, delta) is report


def test_the_memo_keeps_one_propagation_per_tolerance():
    M, pair, delta = _case()
    rng = np.random.default_rng(3)
    radius = admissible_radius(M, pair.N)
    tol = 1e-10
    for _ in range(6):
        for t in (None, tol):
            last = mb.propagate_perturbation(pair, random_perturbation(M, 0.2 * radius, rng), t)
    assert _slots(M) == {("perturb", None), ("perturb", tol)}
    assert M._sylvester_memo["perturb", tol][-1] is last


def test_a_matrix_is_freed_at_its_last_reference_after_a_propagation():
    # The slot holds N, delta_M and the report, none of which refers to M:
    # with no reference cycle M goes without the collector.
    M, pair, delta = _case((3, 2, 2))
    ref = weakref.ref(M)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert mb.propagate_perturbation(pair, delta).perturbed_pair.is_valid
        del M, pair
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
