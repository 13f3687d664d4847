import dataclasses
import json

import numpy as np
import pytest

import minbasis as mb
from minbasis import fullsyl
from minbasis.cli import _fields
from minbasis.fullsyl import (
    decisive_rank_tests,
    genericity_experiment,
    has_full_sylvester_rank,
    kprime_t,
    predicted_minimal_indices,
    sample_full_sylvester,
    sample_polymat,
)
from minbasis.sylvester import sylvester_array

from helpers import example1, example3, flat_1311


def test_kprime_t_staircase_example():
    kt = kprime_t(6, 2, 1)
    assert (kt.k_prime, kt.t) == (3, 0)


@pytest.mark.parametrize(
    "m,n,d,expected",
    [
        (1, 3, 1, (1, 2)),
        (4, 3, 1, (2, 2)),
        (3, 2, 2, (3, 0)),
        (2, 5, 3, (2, 4)),
    ],
)
def test_kprime_t_arithmetic(m, n, d, expected):
    kt = kprime_t(m, n, d)
    assert (kt.k_prime, kt.t) == expected
    assert n * kt.k_prime == m * d + kt.t
    assert 0 <= kt.t < n


def test_kprime_t_rejects_degenerate_dims():
    with pytest.raises(mb.ShapeError):
        kprime_t(0, 2, 1)


def test_example1_has_full_sylvester_rank():
    rep = has_full_sylvester_rank(example1())
    assert rep.has_full_sylvester_rank
    assert rep.k_prime_t.k_prime == 3 and rep.k_prime_t.t == 0
    assert [c.k for c in rep.checked_ranks] == [3]
    assert rep.checked_ranks[0].required == 24


def test_example3_lacks_full_sylvester_rank():
    rep = has_full_sylvester_rank(example3())
    assert not rep.has_full_sylvester_rank
    # Its indices {4,4} differ from the predicted {6,6} for (6,2,2).
    assert list(rep.predicted_indices) == [6, 6]
    assert mb.right_minimal_indices(example3()) == [4, 4]


def test_flat_case_checks_single_row_rank():
    rep = has_full_sylvester_rank(flat_1311())
    assert rep.has_full_sylvester_rank
    assert rep.k_prime_t.k_prime == 1 and rep.k_prime_t.t == 2
    assert [c.kind for c in rep.checked_ranks] == ["row"]


def test_two_rank_case_checks_column_then_row():
    M = sample_full_sylvester(4, 3, 1, seed=0)
    rep = has_full_sylvester_rank(M)
    assert rep.has_full_sylvester_rank
    assert [c.kind for c in rep.checked_ranks] == ["column", "row"]
    assert [c.k for c in rep.checked_ranks] == [1, 2]


def test_predicted_indices():
    assert predicted_minimal_indices(6, 2, 1) == [3, 3]
    assert predicted_minimal_indices(4, 3, 1) == [1, 1, 2]
    assert predicted_minimal_indices(1, 3, 1) == [0, 0, 1]


@pytest.mark.parametrize("dims", [(6, 2, 1), (4, 3, 1), (1, 3, 1), (3, 2, 2)])
def test_predicted_indices_match_rank_profile_on_samples(dims):
    m, n, d = dims
    M = sample_full_sylvester(m, n, d, seed=101)
    assert mb.right_minimal_indices(M) == predicted_minimal_indices(m, n, d)


def test_full_sylvester_samples_certify_minimal_with_full_leading():
    for seed in range(5):
        M = sample_full_sylvester(4, 3, 1, seed=seed)
        cert = mb.certify_minimal_basis(M)
        assert cert.is_minimal_basis
        lead = M.coeffs[M.degree_bound]
        assert np.linalg.matrix_rank(lead) == M.rows


def test_full_sylvester_rank_makes_the_minimal_indices_sum_to_m_d():
    # The Index Sum consequence: with full-Sylvester-rank, the right minimal
    # indices sum to m*d.  example3 is a minimal basis without the property,
    # and its indices sum to 8, not 2*6.
    for M in (example1(), flat_1311(), sample_full_sylvester(3, 2, 2, seed=5)):
        assert has_full_sylvester_rank(M).has_full_sylvester_rank
        assert sum(mb.right_minimal_indices(M)) == M.rows * M.degree_bound
        assert mb.certify_minimal_basis(M).degree_sum_observed == M.rows * M.degree_bound
    M = example3()
    assert mb.certify_minimal_basis(M).is_minimal_basis
    assert not has_full_sylvester_rank(M).has_full_sylvester_rank
    assert sum(mb.right_minimal_indices(M)) == 8 != M.rows * M.degree_bound


def test_monotone_persistence_beyond_checked_ranks():
    from minbasis.sylvester import rank_nullity, sylvester

    M = sample_full_sylvester(4, 3, 1, seed=2)
    kp = kprime_t(4, 3, 1).k_prime
    for k in (kp + 1, kp + 2):
        dec = rank_nullity(sylvester(M, k))
        assert dec.rank == (k + 1) * 4


def test_genericity_experiment_full_success_on_small_run():
    res = genericity_experiment(3, 2, 2, trials=50, seed=42)
    assert res.successes == 50
    assert res.failures == ()
    assert res.min_margin > 1e3


def test_genericity_uniform_distribution():
    res = genericity_experiment(2, 2, 1, trials=50, seed=7, dist="uniform")
    assert res.successes == 50


def test_genericity_complex_field():
    res = genericity_experiment(2, 2, 1, trials=25, seed=9, field_tag="complex")
    assert res.successes == 25


def test_genericity_trials_are_order_independent():
    # At tol = 1.0 most trials fail, each with its own non-zero margin, so the
    # failures pin the first five draws.
    a = genericity_experiment(2, 3, 1, trials=10, seed=11, tol=1.0)
    b = genericity_experiment(2, 3, 1, trials=5, seed=11, tol=1.0)
    assert len(b.failures) >= 3 and all(f["margin"] > 0 for f in b.failures)
    assert [f for f in a.failures if f["trial"] < 5] == list(b.failures)


def test_degenerate_stratum_never_succeeds():
    res = genericity_experiment(3, 2, 2, trials=30, seed=42, zero_leading=True)
    assert res.successes == 0
    assert len(res.failures) == 30


def test_frequency_record_serializes_to_schema():
    res = genericity_experiment(2, 2, 1, trials=10, seed=1)
    obj = json.loads(json.dumps(_fields(res, "zero_leading")))
    assert set(obj) == {
        "m", "n", "d", "trials", "seed", "dist", "successes", "failures", "min_margin",
    }
    assert obj["successes"] + len(obj["failures"]) == obj["trials"]


def test_sampler_margin_and_profile_shape():
    M = sample_full_sylvester(6, 2, 1, seed=3)
    rep = has_full_sylvester_rank(M)
    assert rep.margin >= 1e3
    prof = mb.rank_profile(M)
    assert prof.ranks[:3] == (8, 16, 24)


def test_sampler_gives_up_on_degenerate_tolerance():
    with pytest.raises(RuntimeError, match="margin"):
        sample_full_sylvester(2, 2, 1, seed=0, tol=1e6)


def test_unknown_field_tag_is_rejected_before_any_draw():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    calls = [
        lambda: sample_polymat(rng, 3, 5, 2, field="quaternion"),
        lambda: genericity_experiment(3, 2, 2, trials=5, seed=1, field_tag="quaternion"),
        lambda: sample_full_sylvester(3, 2, 2, seed=1, field_tag="quaternion"),
    ]
    for call in calls:
        with pytest.raises(mb.InputFormatError, match="'quaternion'"):
            call()
    assert rng.bit_generator.state == state


def test_unknown_distribution_is_rejected_before_any_draw():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    calls = [
        lambda: sample_polymat(rng, 2, 3, 1, dist="cauchy"),
        lambda: genericity_experiment(3, 2, 2, trials=5, seed=1, dist="cauchy"),
    ]
    for call in calls:
        with pytest.raises(mb.InputFormatError, match="'cauchy'"):
            call()
    assert rng.bit_generator.state == state


def _per_trial_reference(m, n, d, trials, seed, dist, field, zero_leading, tol):
    """The experiment's counts, one has_full_sylvester_rank call per trial, each
    trial drawn by its own sample_polymat call on one np.random.default_rng(seed),
    and the drawn coefficient stacks."""
    rng = np.random.default_rng(seed)
    successes, failures, min_margin, drawn = 0, [], float("inf"), []
    for trial in range(trials):
        M = sample_polymat(rng, m, m + n, d, dist=dist, field=field, zero_leading=zero_leading)
        drawn.append(M.coeffs)
        report = has_full_sylvester_rank(M, tol)
        min_margin = min(min_margin, report.margin)
        if report.has_full_sylvester_rank:
            successes += 1
        else:
            failures.append({"trial": trial, "margin": report.margin})
    return successes, failures, min_margin, drawn


def _s_kprime_bytes(m, n, d, field):
    k = kprime_t(m, n, d).k_prime
    return (k + d) * m * k * (m + n) * (16 if field == "complex" else 8)


def _assert_matches_reference(monkeypatch, m, n, d, trials, seed, dist, field, zero_leading,
                              tol):
    k_prime = kprime_t(m, n, d).k_prime
    factored = []

    def recording(coeffs, k):
        if k == k_prime:
            factored.append(coeffs.copy())
        return sylvester_array(coeffs, k)

    monkeypatch.setattr(fullsyl, "sylvester_array", recording)
    got = _fields(genericity_experiment(
        m, n, d, trials=trials, seed=seed, dist=dist, field_tag=field,
        zero_leading=zero_leading, tol=tol,
    ))
    successes, failures, min_margin, drawn = _per_trial_reference(
        m, n, d, trials, seed, dist, field, zero_leading, tol
    )
    assert got["successes"] == successes
    assert got["failures"] == failures
    assert got["min_margin"] == min_margin
    # Every zero_leading trial fails, and at tol = 0 every trial passes, with
    # margin 0 whatever its draw: compare the factored stacks too.
    assert np.array_equal(np.concatenate(factored), np.stack(drawn))


# (m, n, d, dist, field, zero_leading); (4, 3, 2) and (2, 3, 2) have t > 0 and
# k' > 1, so both decisive tests run; (2, 3, 1) and (3, 2, 2) run one.
BLOCKED_CASES = [
    (4, 3, 2, "gaussian", "real", False),
    (4, 3, 2, "uniform", "complex", True),
    (2, 3, 2, "gaussian", "complex", False),
    (2, 3, 2, "uniform", "real", True),
    (2, 3, 1, "uniform", "complex", False),
    (3, 2, 2, "gaussian", "real", True),
]


# tol = 1.0 fails most trials, with non-zero margins.  Seven trials end one
# past a block boundary for blocks of two and three trials.
@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("tol", [None, 1e-12, 0.0, 1.0])
@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_blocked_experiment_matches_per_trial_reference(case, tol, block, monkeypatch):
    m, n, d, dist, field, zero_leading = case
    tests = len(decisive_rank_tests(kprime_t(m, n, d), m, m + n, d))
    assert tests == (2 if (m, n, d) in ((4, 3, 2), (2, 3, 2)) else 1)
    monkeypatch.setattr(fullsyl, "BLOCK_BYTES", block * _s_kprime_bytes(m, n, d, field))
    _assert_matches_reference(monkeypatch, m, n, d, 7, 5, dist, field, zero_leading, tol)


@pytest.mark.parametrize("tol", [None, 1e-12, 0.0, 1.0])
@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_blocked_experiment_matches_reference_past_the_default_block(case, tol, monkeypatch):
    m, n, d, dist, field, zero_leading = case
    block = fullsyl.BLOCK_BYTES // _s_kprime_bytes(m, n, d, field)
    assert block > 1
    _assert_matches_reference(monkeypatch, m, n, d, block + 1, 2**40 + 7, dist, field,
                              zero_leading, tol)


# -- the streams that samples are drawn from -------------------------------------


@pytest.mark.parametrize("zero_leading", [False, True])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dist", ["gaussian", "uniform"])
def test_sample_polymat_draws_the_real_part_then_the_imaginary_part(dist, field, zero_leading):
    shape = (3, 2, 4)

    def draw(rng):
        if dist == "gaussian":
            return rng.standard_normal(shape)
        return rng.uniform(-1.0, 1.0, shape)

    rng = np.random.default_rng(17)
    want = draw(rng) + 1j * draw(rng) if field == "complex" else draw(rng)
    if zero_leading:
        want[-1] = 0.0
    got = sample_polymat(np.random.default_rng(17), 2, 4, 2, dist=dist, field=field,
                         zero_leading=zero_leading)
    assert got.coeffs.dtype == want.dtype
    assert np.array_equal(got.coeffs, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sample_full_sylvester_draws_attempt_i_from_seed_and_attempt(field, monkeypatch):
    # Rejecting the first two draws makes the third attempt the sample.
    decide = fullsyl.has_full_sylvester_rank
    seen = []

    def rejecting(M, tol=None):
        seen.append(M)
        report = decide(M, tol)
        return report if len(seen) > 2 else dataclasses.replace(report, margin=0.0)

    monkeypatch.setattr(fullsyl, "has_full_sylvester_rank", rejecting)
    M = sample_full_sylvester(3, 2, 2, seed=23, field_tag=field)
    for attempt, drawn in enumerate(seen):
        rng = np.random.default_rng([23, attempt])
        want = sample_polymat(rng, 3, 5, 2, field=field)
        assert np.array_equal(drawn.coeffs, want.coeffs)
    assert len(seen) == 3 and M is seen[-1]
