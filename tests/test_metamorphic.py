"""Metamorphic tests: transformations of M with a known effect on every answer.

A constant invertible factor on the left, a unitary factor on the right and
the substitution lambda -> alpha * lambda keep the right nullspace up to the
same transformation, so Sylvester ranks, right minimal indices and verdicts
must not change.  A unitary factor on the right keeps the singular values of
every S_k, since S_k(MQ) = S_k(M) (I_k kron Q), and so does the reversal,
whose S_k is S_k(M) with its block rows and block columns in reverse order;
scaling M by alpha scales them by |alpha|.
"""

import numpy as np
import pytest

import minbasis as mb
from minbasis.polymat import PolyMat, row_degrees, scale
from minbasis.sylvester import highest_row_degree_rank, sylvester_singular_values

from helpers import common_factor_2x4, example1, planted_indices, reversal


def _inputs():
    """Wide inputs whose rows all have degree equal to the grade, so a left
    factor keeps every row degree: generic samples, planted indices and a
    common factor, minimal and not."""
    rng = np.random.default_rng
    return {
        "generic_3x5_real": mb.sample_full_sylvester(3, 2, 2, seed=1),
        "generic_4x7_real": mb.sample_full_sylvester(4, 3, 2, seed=2),
        "generic_3x5_complex": mb.sample_full_sylvester(3, 2, 2, seed=3, field_tag="complex"),
        "planted_1_2_5": planted_indices((1, 2, 5), rng(2024)),
        "planted_0_1_3": planted_indices((0, 1, 3), rng(1)),
        "planted_2_2": planted_indices((2, 2), rng(2)),
        "example1": example1(),
        "common_factor_2x4": common_factor_2x4(),
    }


INPUTS = _inputs()


def _unitary(q, rng, complex_):
    z = rng.standard_normal((q, q)) + (1j * rng.standard_normal((q, q)) if complex_ else 0)
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _left(M, rng):
    # Well conditioned and dense: identity plus a small random part.
    U = np.eye(M.rows) + 0.3 * rng.standard_normal((M.rows, M.rows))
    return PolyMat(np.einsum("ij,djk->dik", U, M.coeffs))


def _right(M, rng):
    Q = _unitary(M.cols, rng, M.field == "complex")
    return PolyMat(M.coeffs @ Q)


def _substitute(alpha):
    def transform(M, rng):
        powers = alpha ** np.arange(M.degree_bound + 1)
        return PolyMat(M.coeffs * powers[:, None, None])
    return transform


TRANSFORMS = {
    "left_factor": _left,
    "unitary_right": _right,
    "lambda_times_1.5": _substitute(1.5),
    "lambda_times_-0.8": _substitute(-0.8),
}


def _answers(M):
    """Every rank, index and verdict the package gives for M."""
    cert = mb.certify_minimal_basis(M)
    forced = mb.rank_profile(M, k_max=M.rows * M.degree_bound + 2)
    try:
        indices = sorted(mb.right_minimal_indices(M))
    except mb.MinBasisError as err:
        indices = type(err).__name__
    return {
        "row_degrees": row_degrees(M),
        "hr_rank": highest_row_degree_rank(M).rank,
        "ranks": forced.ranks,
        "d_prime": forced.d_prime,
        "normal_rank_full": forced.normal_rank_full,
        "indices": indices,
        "verdict": (cert.is_minimal_basis, cert.reason, cert.d_prime),
        "full_sylvester": mb.has_full_sylvester_rank(M).has_full_sylvester_rank,
    }


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", INPUTS)
def test_answers_are_invariant(name, transform):
    M = INPUTS[name]
    assert set(row_degrees(M)) == {M.degree_bound}
    image = TRANSFORMS[transform](M, np.random.default_rng(7))
    assert _answers(PolyMat(image.coeffs)) == _answers(PolyMat(M.coeffs))


@pytest.mark.parametrize("name", INPUTS)
def test_a_unitary_right_factor_keeps_every_sylvester_spectrum(name):
    M = INPUTS[name]
    image = _right(M, np.random.default_rng(11))
    for k in range(1, 5):
        sv = sylvester_singular_values(M, k)
        assert np.abs(sylvester_singular_values(image, k) - sv).max() <= 1e-13 * sv[0]


@pytest.mark.parametrize("name", INPUTS)
def test_reversal_keeps_every_sylvester_spectrum(name):
    M = INPUTS[name]
    image = reversal(M, M.degree_bound)
    for k in range(1, 5):
        sv = sylvester_singular_values(M, k)
        assert np.abs(sylvester_singular_values(image, k) - sv).max() <= 1e-13 * sv[0]


@pytest.mark.parametrize("alpha", [-3.0, 0.25, 0.5 + 2.0j])
@pytest.mark.parametrize("name", INPUTS)
def test_scaling_scales_every_sylvester_spectrum(name, alpha):
    M = INPUTS[name]
    image = scale(M, alpha)
    for k in range(1, 5):
        sv = sylvester_singular_values(M, k)
        scaled = sylvester_singular_values(image, k)
        assert np.abs(scaled - abs(alpha) * sv).max() <= 1e-13 * abs(alpha) * sv[0]
