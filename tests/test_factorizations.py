"""Factorization counts, not times: a hidden extra SVD of a Sylvester matrix
fails here even when it is too cheap to show in a benchmark."""

import sys

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius
from minbasis.fullsyl import BLOCK_BYTES, decisive_rank_tests
from minbasis.polymat import PolyMat

from helpers import random_perturbation


class SvdSpy:
    """Logs every ``numpy.linalg.svd`` call while installed.

    Each call is logged as (key, with_vectors); the key is (id(P), k) when
    the input is S_k(P) as built by ``sylvester`` in any module of the
    package, and None for any other matrix.  Built matrices are kept alive, so ids stay
    unique.
    """

    def __init__(self, monkeypatch):
        build = sys.modules["minbasis.sylvester"].sylvester
        svd = np.linalg.svd
        self.calls: list[tuple[tuple[int, int] | None, bool]] = []
        self._built: dict[int, tuple[int, int]] = {}
        self._alive: list = []

        def spy_build(P, k):
            S = build(P, k)
            self._alive.append((P, S.data))
            self._built[id(S.data)] = (id(P), k)
            return S

        def spy_svd(a, *args, **kwargs):
            with_vectors = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            self.calls.append((self._built.get(id(a)), bool(with_vectors)))
            return svd(a, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("minbasis.") and getattr(module, "sylvester", None) is build:
                monkeypatch.setattr(module, "sylvester", spy_build)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)

    def take(self) -> list[tuple[tuple[int, int] | None, bool]]:
        calls, self.calls = self.calls, []
        return calls


@pytest.fixture
def generic_633():
    """A fresh Gaussian full-Sylvester-rank (m, n, d) = (6, 3, 3) matrix with
    an empty memo, its admissible perturbation and an l-ification block."""
    sample = mb.sample_full_sylvester(6, 3, 3, seed=11)
    rng = np.random.default_rng(12)
    pair = mb.dual_minimal_basis(sample)
    delta = random_perturbation(sample, 0.25 * admissible_radius(sample, pair.N), rng)
    K = PolyMat(rng.standard_normal((4, 2, 9)))
    delta_K = random_perturbation(K, 1e-6, rng)
    return PolyMat(sample.coeffs), delta, K, delta_K


def test_certify_factors_at_most_two_sylvester_matrices(generic_633, monkeypatch):
    M = generic_633[0]
    spy = SvdSpy(monkeypatch)
    cert = mb.certify_minimal_basis(M)
    calls = spy.take()
    assert cert.is_minimal_basis
    # The highest-row-degree matrix plus at most the two decisive S_k tests.
    assert len(calls) <= 3
    assert sum(key is not None for key, _ in calls) <= 2
    assert mb.right_minimal_indices(M) == mb.predicted_minimal_indices(6, 3, 3)
    assert mb.has_full_sylvester_rank(M).has_full_sylvester_rank
    assert mb.robustness_radius_fullsyl(M).radius > 0
    assert spy.take() == []


def test_user_chain_factors_each_sylvester_matrix_once(generic_633, monkeypatch):
    M, delta, K, delta_K = generic_633
    spy = SvdSpy(monkeypatch)
    mb.certify_minimal_basis(M)
    mb.right_minimal_indices(M)
    mb.has_full_sylvester_rank(M)
    mb.robustness_radius_minimal(M)
    mb.robustness_radius_fullsyl(M)
    pair = mb.dual_minimal_basis(M)
    mb.propagate_perturbation(pair, delta)
    mb.backward_error_map(mb.build_lification(K, M), delta_K, delta)
    per_matrix: dict[tuple[int, int], list[bool]] = {}
    for key, with_vectors in spy.take():
        if key is not None:
            per_matrix.setdefault(key, []).append(with_vectors)
    assert per_matrix
    # At most one values-only and one full factorization of each S_k of each
    # matrix, and never values-only once the vectors are known.
    for kinds in per_matrix.values():
        assert kinds in ([False], [True], [False, True]), kinds


def test_genericity_experiment_runs_one_svd_per_decisive_test_and_block(monkeypatch):
    m, n, d, trials = 3, 2, 2, 50
    plan = decisive_rank_tests(mb.kprime_t(m, n, d), m, m + n, d)
    k = plan[-1][0]
    block = BLOCK_BYTES // ((k + d) * m * k * (m + n) * 8)
    spy = SvdSpy(monkeypatch)
    assert mb.genericity_experiment(m, n, d, trials=trials, seed=42).successes == trials
    assert 0 < len(spy.take()) <= len(plan) * -(-trials // block)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_genericity_experiment_rejects_invalid_tolerance(tol):
    with pytest.raises(mb.InputFormatError, match="rank tolerance"):
        mb.genericity_experiment(3, 2, 2, trials=5, seed=1, tol=tol)


def test_sharp_witness_flat_factors_its_stack_once(monkeypatch):
    M = PolyMat.from_coeff_list([[[1.0, 0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0, 0.0]]])
    spy = SvdSpy(monkeypatch)
    _, dist = mb.sharp_witness_flat(M)
    assert dist == pytest.approx(1.0)
    # Only the stack's SVD is unkeyed: the witness check that follows factors
    # S_1 of the witness through ``sylvester``, which the spy keys.
    assert [call for call in spy.take() if call[0] is None] == [(None, True)]
