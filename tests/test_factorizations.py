"""Factorization counts, not times: a hidden extra SVD or QR of a Sylvester
matrix fails here even when it is too cheap to show in a benchmark."""

import ast
import gc
import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius
from minbasis.fullsyl import BLOCK_BYTES, decisive_rank_tests, kprime_t
from minbasis.polymat import PolyMat
from minbasis.sylvester import RankDecision

from helpers import (
    Call, LinalgSpy, planted_indices, raised_first_row, random_perturbation, svds_of,
)


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
    spy = LinalgSpy(monkeypatch)
    cert = mb.certify_minimal_basis(M)
    calls = spy.take()
    assert cert.is_minimal_basis
    # The highest-row-degree matrix plus at most the two decisive S_k tests,
    # all values-only SVDs.
    assert len(calls) <= 3
    assert all(c.kind == "svd" and c.detail is False for c in calls)
    assert sum(c.key is not None for c in calls) <= 2
    assert mb.right_minimal_indices(M) == mb.predicted_minimal_indices(6, 3, 3)
    assert mb.has_full_sylvester_rank(M).has_full_sylvester_rank
    assert mb.robustness_radius_fullsyl(M).radius > 0
    assert spy.take() == []


@pytest.mark.parametrize("make", [
    lambda: PolyMat(mb.sample_full_sylvester(6, 3, 3, seed=11).coeffs),
    lambda: planted_indices((1, 2, 5), np.random.default_rng(2024)),
], ids=["generic", "planted"])
def test_full_leading_certificate_and_radius_reuse_the_certified_scan(make, monkeypatch):
    # Both read d' from the general certificate: after it, certify_full_leading
    # factors no S_k, and the radius only the S_k past d' that it scans.
    M = make()
    d_prime = mb.certify_minimal_basis(M).d_prime
    spy = LinalgSpy(monkeypatch)
    assert mb.certify_full_leading(M).d_prime == d_prime
    assert [c for c in spy.take() if c.key is not None] == []
    mb.robustness_radius_minimal(M, scan_extra=3)
    ks = [c.key[1] for c in spy.take() if c.key is not None]
    assert all(d_prime < k <= d_prime + 3 for k in ks)
    assert len(ks) == len(set(ks))
    mb.robustness_radius_minimal(M, scan_extra=3)
    assert [c for c in spy.take() if c.key is not None] == []


def test_warm_scan_reuses_its_normal_rank_probes(monkeypatch):
    # The scan's two probes of M(lambda), taken because the raised row leaves
    # the highest-row-degree matrix rank deficient, are kept in M's memo next
    # to its S_k, so once M is certified neither a second certificate nor its
    # indices factor anything.
    M = raised_first_row(planted_indices((1, 2, 5), np.random.default_rng(2024)))
    cert = mb.certify_minimal_basis(M)
    assert ("normal_rank", None) in M._sylvester_memo
    spy = LinalgSpy(monkeypatch)
    assert mb.certify_minimal_basis(M) == cert
    assert sorted(mb.right_minimal_indices(M)) == [1, 2, 5]
    assert spy.take("svd") == []


def _certify_with_unkeyed_svd_shapes(monkeypatch, M):
    """M's certificate, with the shapes of the SVDs it took of matrices that
    are no S_k."""
    spy = LinalgSpy(monkeypatch)
    shapes = []
    spy_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return spy_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    cert = mb.certify_minimal_basis(M)
    return cert, [shape for shape, c in zip(shapes, spy.take("svd")) if c.key is None]


def test_cold_scan_certificate_takes_one_svd_for_both_normal_rank_probes(monkeypatch):
    # Planted (1, 2, 5) with its first row raised has a rank-deficient
    # highest-row-degree matrix, so the scan checks normal rank: both probes
    # of M(lambda) in one SVD.
    M = raised_first_row(planted_indices((1, 2, 5), np.random.default_rng(2024)))
    cert, shapes = _certify_with_unkeyed_svd_shapes(monkeypatch, M)
    # The highest-row-degree matrix, then the stack of the two probes.
    assert shapes == [(8, 11), (2, 8, 11)]
    assert cert.reason == "hr_rank_deficient" and cert.profile.normal_rank_full


def test_a_row_reduced_certificate_takes_no_normal_rank_probe(monkeypatch):
    # Planted (1, 2, 5) itself is row reduced: its highest-row-degree matrix
    # of full row rank gives full row normal rank without evaluating M.
    M = planted_indices((1, 2, 5), np.random.default_rng(2024))
    cert, shapes = _certify_with_unkeyed_svd_shapes(monkeypatch, M)
    assert shapes == [(8, 11)]
    assert cert.is_minimal_basis
    assert ("normal_rank", None) not in M._sylvester_memo


def test_classical_lower_bound_check_decides_every_sample_from_one_svd(monkeypatch):
    M = mb.sample_full_sylvester(4, 3, 2, seed=3)
    mb.certify_minimal_basis(M)
    spy = LinalgSpy(monkeypatch)
    assert mb.classical_lower_bound_check(M, num_samples=500).samples == 500
    assert spy.take() == [Call("svd", None, False)]


def _qr_of(calls, P):
    """The QR calls among ``calls`` of P's Sylvester matrices, as (k, mode)."""
    return [(c.key[1], c.detail) for c in calls
            if c.kind == "qr" and c.key is not None and c.key[0] == id(P)]


def test_user_chain_factors_each_sylvester_matrix_once(generic_633, monkeypatch):
    M, delta, K, delta_K = generic_633
    kp = kprime_t(6, 3, 3).k_prime
    spy = LinalgSpy(monkeypatch)
    mb.certify_minimal_basis(M)
    mb.right_minimal_indices(M)
    mb.has_full_sylvester_rank(M)
    mb.robustness_radius_minimal(M)
    mb.robustness_radius_fullsyl(M)
    pair = mb.dual_minimal_basis(M)
    dual = spy.take()
    report = mb.propagate_perturbation(pair, delta)
    perturb = spy.take()
    lif = mb.build_lification(K, M)
    lify = spy.take()
    be = mb.backward_error_map(lif, delta_K, delta)
    backward = spy.take()
    calls = dual + perturb + lify + backward
    # Values-only SVDs, each S_k of each matrix at most once; no least squares.
    assert not [c for c in calls if c.kind == "lstsq"]
    assert not [c for c in calls if c.kind == "svd" and c.detail]
    keys = [c.key for c in calls if c.kind == "svd" and c.key is not None]
    assert keys and len(keys) == len(set(keys))
    # t = 0: the dual comes from the nullspace of S_{k'+1} alone, one complete
    # QR.  M's memo keeps the dual, which build_lification reads back: it
    # factors nothing at all.
    assert _qr_of(dual, M) == [(kp + 1, "complete")]
    assert _qr_of(perturb + backward, M) == []
    assert lif.pair.N is pair.N
    assert lify == []
    # The map propagates the same delta to the same N: M's memo gives back
    # the report, and nothing is factored.
    assert be.perturbation is report
    assert backward == []
    # One R-only QR per correction system, here only the degree-k' one.
    assert _qr_of(perturb, report.perturbed_pair.M) == [(kp + 1, "r")]
    assert [c.kind for c in perturb if c.kind == "qr"] == ["qr"]
    # Inside the admissible radius the rank decisions on M + delta come from
    # M's memo by Weyl's inequality: no SVD of its S_k or its highest-row-
    # degree matrix runs.
    assert svds_of(perturb + backward, report.perturbed_pair.M,
                    be.perturbation.perturbed_pair.M) == []


def test_dual_and_perturbation_with_t_positive_factor_by_qr(monkeypatch):
    # (4, 3, 2): k' = 3, t = 1, so both nullspaces and both corrections run.
    M = PolyMat(mb.sample_full_sylvester(4, 3, 2, seed=5).coeffs)
    spy = LinalgSpy(monkeypatch)
    pair = mb.dual_minimal_basis(M)
    dual = spy.take()
    delta = random_perturbation(M, 0.25 * admissible_radius(M, pair.N),
                                np.random.default_rng(6))
    spy.take()
    report = mb.propagate_perturbation(pair, delta)
    perturb = spy.take()
    calls = dual + perturb
    assert not [c for c in calls if c.kind == "lstsq" or (c.kind == "svd" and c.detail)]
    assert _qr_of(dual, M) == [(3, "complete"), (4, "complete")]
    # The only other QR splits the nullspace of S_4 from the shifted rows.
    assert [c for c in dual if c.kind == "qr" and c.key is None] == [Call("qr", None, "complete")]
    assert _qr_of(perturb, report.perturbed_pair.M) == [(3, "r"), (4, "r")]
    assert len([c for c in perturb if c.kind == "qr"]) == 2
    # verify_duality checks each new N by its degrees: no S_k of N is built.
    duals = {id(pair.N), id(report.perturbed_pair.N)}
    assert not [c for c in calls if c.key is not None and c.key[0] in duals]
    # Both decisive tests of M + delta, S_2 and S_3, and its highest-row-
    # degree matrix are decided from M's memo: no SVD of them runs.
    assert svds_of(perturb, report.perturbed_pair.M) == []


def test_dual_and_perturbation_of_a_large_shape_sweep_instead_of_a_dense_qr(monkeypatch):
    # (20, 5, 3): k' = 12, t = 0, so the dual takes the nullspace of S_13,
    # 320x325, and the correction solves against S_13 of M + delta: each by
    # the 13 panel QRs of one banded sweep, and no QR of all of S_13^H.
    M = PolyMat(mb.sample_full_sylvester(20, 5, 3, seed=5).coeffs)
    spy = LinalgSpy(monkeypatch)
    pair = mb.dual_minimal_basis(M)
    dual = spy.take("qr")
    delta = random_perturbation(M, 0.25 * admissible_radius(M, pair.N),
                                np.random.default_rng(6))
    spy.take()
    report = mb.propagate_perturbation(pair, delta)
    perturb = spy.take("qr")
    assert dual == [Call("qr", (id(M), 13), "complete")] * 13
    assert perturb == [Call("qr", (id(report.perturbed_pair.M), 13), "r")] * 13


def test_genericity_experiment_runs_one_svd_per_decisive_test_and_block(monkeypatch):
    m, n, d, trials = 3, 2, 2, 50
    plan = decisive_rank_tests(kprime_t(m, n, d), m, m + n, d)
    k = plan[-1][0]
    block = BLOCK_BYTES // ((k + d) * m * k * (m + n) * 8)
    spy = LinalgSpy(monkeypatch)
    assert mb.genericity_experiment(m, n, d, trials=trials, seed=42).successes == trials
    calls = spy.take()
    assert all(c.kind == "svd" for c in calls)
    assert 0 < len(calls) <= len(plan) * -(-trials // block)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_genericity_experiment_rejects_invalid_tolerance(tol):
    with pytest.raises(mb.InputFormatError, match="rank tolerance"):
        mb.genericity_experiment(3, 2, 2, trials=5, seed=1, tol=tol)


def test_sharp_witness_flat_factors_its_stack_once(monkeypatch):
    M = PolyMat.from_coeff_list([[[1.0, 0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0, 0.0]]])
    spy = LinalgSpy(monkeypatch)
    _, dist = mb.sharp_witness_flat(M)
    assert dist == pytest.approx(1.0)
    # The stack is factored once, with vectors; the only other unkeyed SVD is
    # the values-only one of the spectral norm in ``distance``.  The witness
    # check factors S_1 of the witness through ``sylvester``, which the spy keys.
    assert [c for c in spy.take("svd") if c.key is None] == [
        Call("svd", None, True), Call("svd", None, False)]


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1.0j], ids=["real", "complex"])
def test_sharp_witness_flat_checks_its_grade_before_any_factorization(scale, monkeypatch):
    # A 1x4 grade-0 input passes the flat check m*d <= n, but the witness
    # needs grade >= 1: the error names sharp_witness_flat, and comes first.
    M = PolyMat(scale * np.array([[[1.0, 2.0, 0.0, 1.0]]]))
    spy = LinalgSpy(monkeypatch)
    with pytest.raises(mb.ShapeError, match="sharp_witness_flat requires degree_bound >= 1"):
        mb.sharp_witness_flat(M)
    assert spy.take() == []


def test_benchmark_span_targets_exist():
    # The traced benchmark run wraps these public functions by name; deleting
    # or renaming one breaks it without failing any other test.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"minbasis.{layer}"), name, None))
    ]
    assert missing == []


def _linalg_uses(tree: ast.Module) -> list[int]:
    """The lines of a module that use ``numpy.linalg``, except in one-argument
    ``norm(x)`` calls: a Frobenius or Euclidean norm, not a factorization."""
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node)]
    numpy = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm" and len(node.args) == 1 and not node.keywords):
            allowed.add(id(node.func.value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy
                and id(node) not in allowed):
            uses.append(node.lineno)
    return uses


def test_only_sylvester_py_factors_a_matrix():
    # Every SVD, QR and solve goes through sylvester.py, so that module is the
    # one place to count, cache or trace them.
    package = Path(mb.__file__).parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if path.name != "sylvester.py"
        and (uses := _linalg_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    assert _linalg_uses(ast.parse((package / "sylvester.py").read_text(encoding="utf-8")))


def test_only_sylvester_py_reads_or_writes_the_memo():
    # polymat.py declares the memo field of a PolyMat; every read and write
    # of it is in sylvester.py, so no other module can store on a matrix a
    # verdict that its own factorization did not give.
    package = Path(mb.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert {name for name, text in sources.items() if "_sylvester_memo" in text} == {
        "polymat.py", "sylvester.py"}
    assert {name for name, text in sources.items()
            if any(isinstance(node, ast.Attribute) and node.attr == "_sylvester_memo"
                   for node in ast.walk(ast.parse(text)))} == {"sylvester.py"}


@pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 2)], ids=["t0", "t1"])
def test_a_perturbed_pair_starts_with_empty_memos(shape):
    # Inside the admissible radius the pair is decided from the parents'
    # memos alone: nothing is factored for, or stored on, M + delta or
    # N + delta_N.
    M = mb.sample_full_sylvester(*shape, seed=5)
    pair = mb.dual_minimal_basis(M)
    delta = random_perturbation(M, 0.5 * admissible_radius(M, pair.N),
                                np.random.default_rng(6))
    new = mb.propagate_perturbation(pair, delta).perturbed_pair
    assert new.is_valid
    assert new.M._sylvester_memo == {} and new.N._sylvester_memo == {}


@pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 2)], ids=["t0", "t1"])
def test_a_matrix_is_freed_at_its_last_reference_after_its_dual(shape):
    # M's memo keeps its dual's N, residual and (k', t), never a DualPair,
    # which holds M: with no reference cycle M goes without the collector.
    M = PolyMat(mb.sample_full_sylvester(*shape, seed=5).coeffs)
    ref = weakref.ref(M)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert mb.dual_minimal_basis(M).is_valid
        del M
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 2)], ids=["t0", "t1"])
def test_the_memo_keeps_singular_values_but_no_nullspace(shape):
    # The dual takes a QR nullspace of S_k' (t > 0) and of S_{k'+1}; the
    # memo keeps their singular values and rank decisions, not the bases.
    M = PolyMat(mb.sample_full_sylvester(*shape, seed=5).coeffs)
    pair = mb.dual_minimal_basis(M)
    kp = pair.k_prime_t.k_prime
    memo = M._sylvester_memo
    spectra = {key: v for key, v in memo.items() if not isinstance(key, tuple)}
    assert kp + 1 in spectra
    assert all(isinstance(sv, np.ndarray) and sv.ndim == 1 and not sv.flags.writeable
               for sv in spectra.values())
    assert not any(isinstance(v, np.ndarray) for key, v in memo.items() if isinstance(key, tuple))
    dec = memo[kp + 1, None]
    assert isinstance(dec, RankDecision)
    assert dec.singular_values == tuple(spectra[kp + 1].tolist())
