"""The normal-rank rule of ``rank_profile``: a highest-row-degree matrix of
full row rank gives full row normal rank, since M(lam) = diag(lam^d_i)
(C_hr + O(1/lam)), so the two evaluation probes run only without it.
Property tests on small integer matrices with zero rows, rank-deficient
leading coefficients and common factors."""

import numpy as np
import pytest

import minbasis as mb
from minbasis import minimal
from minbasis.polymat import PolyMat
from minbasis.sylvester import highest_row_degree_rank

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def small_integer_matrices(draw) -> PolyMat:
    """A wide integer matrix of grade 1 or 2 with entries in -2 .. 2, as is,
    with a zero row, with a leading coefficient whose first row repeats a
    multiple of its last (a zero row when m = 1), or times lam - a."""
    m, n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    size = (d + 1) * m * (m + n)
    entries = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    C = np.array(entries, dtype=float).reshape(d + 1, m, m + n)
    variant = draw(st.sampled_from(["plain", "zero_row", "deficient_leading", "common_factor"]))
    if variant == "zero_row":
        C[:, draw(st.integers(0, m - 1)), :] = 0.0
    elif variant == "deficient_leading":
        C[-1, 0, :] = draw(st.integers(-1, 1)) * C[-1, -1, :] if m > 1 else 0.0
    elif variant == "common_factor":
        a = draw(st.integers(-2, 2))
        factored = np.zeros((d + 2, m, m + n))
        factored[1:] += C
        factored[:-1] -= a * C
        C = factored
    return PolyMat(C)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(M=small_integer_matrices())
def test_a_full_rank_highest_row_degree_matrix_gives_full_normal_rank(M):
    profile = mb.rank_profile(M)
    if highest_row_degree_rank(M).rank == M.rows:
        # The profile took no probe, and the probes agree with the rule.
        assert ("normal_rank", None) not in M._sylvester_memo
        assert minimal._evaluation_rank(M, None) == M.rows
    forced = mb.rank_profile(PolyMat(M.coeffs), k_max=M.rows * M.degree_bound + 2)
    assert (profile.d_prime, profile.normal_rank_full) == (forced.d_prime, forced.normal_rank_full)
    if profile.d_prime is not None:
        assert profile.ranks == forced.ranks[: profile.d_prime + 1]
