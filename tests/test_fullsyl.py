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
from minbasis.minimal import index_sum_check

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


def test_index_sum_check():
    assert index_sum_check(example1())
    assert index_sum_check(flat_1311())
    M = sample_full_sylvester(3, 2, 2, seed=5)
    assert index_sum_check(M)
    with pytest.raises(mb.PreconditionError):
        index_sum_check(example3())


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
    a = genericity_experiment(2, 3, 1, trials=10, seed=11)
    b = genericity_experiment(2, 3, 1, trials=5, seed=11)
    # The first five trials use identical per-trial streams.
    assert a.successes >= b.successes
    assert a.min_margin <= b.min_margin or a.failures


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
        sample_full_sylvester(2, 2, 1, seed=0, tol=1e6, max_rejects=5)


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
        lambda: sample_full_sylvester(3, 2, 2, seed=1, dist="cauchy"),
    ]
    for call in calls:
        with pytest.raises(mb.InputFormatError, match="'cauchy'"):
            call()
    assert rng.bit_generator.state == state


def _per_trial_reference(m, n, d, trials, seed, dist, field, zero_leading, tol):
    """The experiment's counts, one has_full_sylvester_rank call per trial."""
    successes, failures, min_margin = 0, [], float("inf")
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        M = sample_polymat(rng, m, m + n, d, dist=dist, field=field, zero_leading=zero_leading)
        report = has_full_sylvester_rank(M, tol)
        min_margin = min(min_margin, report.margin)
        if report.has_full_sylvester_rank:
            successes += 1
        else:
            failures.append({"trial": trial, "margin": report.margin})
    return successes, failures, min_margin


def _s_kprime_bytes(m, n, d, field):
    k = kprime_t(m, n, d).k_prime
    return (k + d) * m * k * (m + n) * (16 if field == "complex" else 8)


def _assert_matches_reference(m, n, d, trials, seed, dist, field, zero_leading, tol):
    got = _fields(genericity_experiment(
        m, n, d, trials=trials, seed=seed, dist=dist, field_tag=field,
        zero_leading=zero_leading, tol=tol,
    ))
    successes, failures, min_margin = _per_trial_reference(
        m, n, d, trials, seed, dist, field, zero_leading, tol
    )
    assert got["successes"] == successes
    assert got["failures"] == failures
    assert got["min_margin"] == min_margin


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


# tol = 1.0 fails most trials, with non-zero margins.
@pytest.mark.parametrize("tol", [None, 1e-12, 0.0, 1.0])
@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_blocked_experiment_matches_per_trial_reference(case, tol, monkeypatch):
    m, n, d, dist, field, zero_leading = case
    tests = len(decisive_rank_tests(kprime_t(m, n, d), m, m + n, d))
    assert tests == (2 if (m, n, d) in ((4, 3, 2), (2, 3, 2)) else 1)
    # Blocks of three trials: seven trials end one past a block boundary.
    monkeypatch.setattr(fullsyl, "BLOCK_BYTES", 3 * _s_kprime_bytes(m, n, d, field))
    _assert_matches_reference(m, n, d, 7, 5, dist, field, zero_leading, tol)


def test_blocked_experiment_matches_reference_past_the_default_block():
    block = fullsyl.BLOCK_BYTES // _s_kprime_bytes(4, 3, 2, "complex")
    assert block > 1
    _assert_matches_reference(4, 3, 2, block + 1, 3, "gaussian", "complex", True, None)
    _assert_matches_reference(4, 3, 2, block + 1, 4, "uniform", "complex", False, 1e-12)
