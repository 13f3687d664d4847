"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import minbasis as mb
from minbasis.dual import admissible_radius, dual_minimal_basis, propagate_perturbation
from minbasis.lify import backward_error_map, build_lification, minimal_index_shift_check
from minbasis.oracle import exact_rank_profile
from minbasis.polymat import PolyMat, row_degrees, s1_stack
from minbasis.robust import (
    classical_lower_bound_check,
    fragile_neighbor,
    robustness_radius_fullsyl,
    robustness_radius_minimal,
    sharp_witness_flat,
)
from minbasis.sylvester import singular_values, sylvester

from helpers import example1, example2, example3, random_perturbation


def report(number: int, label: str, ok: bool) -> None:
    print(f"[AC-{number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_example1_reproduction():
    started = time.perf_counter()
    M = example1()
    prof = mb.rank_profile(M)
    cert = mb.certify_minimal_basis(M)
    exact = exact_rank_profile(M)
    ok = (
        prof.ranks == (8, 16, 24, 30)
        and prof.nullities == (0, 0, 0, 2)
        and prof.d_prime == 3
        and prof.alphas == (0, 0, 0, 2)
        and cert.is_minimal_basis
        and mb.right_minimal_indices(M) == [3, 3]
        and exact.ranks == prof.ranks
        and exact.d_prime == 3
        and exact.alphas == prof.alphas
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(1, f"Example-1 reproduction (floating + exact, {elapsed:.2f}s)", ok)


def test_criterion_02_example2_reproduction():
    M = example2()
    prof = mb.rank_profile(M)
    cert = mb.certify_minimal_basis(M)
    exact = exact_rank_profile(M)
    ok = (
        prof.ranks == (6, 11, 15)
        and prof.alphas == (1, 1, 1)
        and not cert.is_minimal_basis
        and cert.reason == "degree_sum_mismatch"
        and cert.degree_sum_observed == 3
        and cert.degree_sum_expected == 4
        and exact.ranks == prof.ranks
        and exact.alphas == prof.alphas
    )
    report(2, "Example-2 reproduction (not minimal, 3 != 4)", ok)


def test_criterion_03_example3_reproduction():
    M = example3()
    prof = mb.rank_profile(M)
    cert = mb.certify_minimal_basis(M)
    fullsyl = mb.has_full_sylvester_rank(M)
    exact = exact_rank_profile(M)
    try:
        mb.certify_full_leading(M)
        leading_raises = False
    except mb.LeadingCoefficientError:
        leading_raises = True
    ok = (
        prof.ranks == (8, 16, 24, 32, 38)
        and prof.d_prime == 4
        and cert.is_minimal_basis
        and not fullsyl.has_full_sylvester_rank
        and leading_raises
        and exact.ranks == prof.ranks
        and exact.d_prime == 4
    )
    report(3, "Example-3 reproduction (minimal, fragile leading)", ok)


def test_criterion_04_radius_reproduction():
    M = example1()
    sigma24 = singular_values(sylvester(M, 3))[23]
    spectral = float(np.linalg.norm(s1_stack(M), 2))
    ok = (
        abs(sigma24 / math.sqrt(3) - 0.2569) <= 1e-3
        and abs(spectral - math.sqrt(2)) <= 1e-12
    )
    report(4, "radius value 0.2569 and ||S1||_2 = sqrt(2)", ok)


def test_criterion_05_robustness_property_suite():
    started = time.perf_counter()
    M = example1()
    rng = np.random.default_rng(2024)
    r_min = robustness_radius_minimal(M).radius
    held_minimal = 0
    for _ in range(100):
        delta = random_perturbation(M, rng.uniform(0.01, 0.99) * r_min, rng)
        perturbed = mb.add(M, delta)
        cert = mb.certify_minimal_basis(perturbed)
        lead_full = (
            np.linalg.matrix_rank(perturbed.coeffs[perturbed.degree_bound]) == 6
        )
        if cert.is_minimal_basis and lead_full:
            held_minimal += 1
    r_full = robustness_radius_fullsyl(M).radius
    held_fullsyl = 0
    for _ in range(100):
        delta = random_perturbation(M, rng.uniform(0.01, 0.99) * r_full, rng)
        if mb.has_full_sylvester_rank(mb.add(M, delta)).has_full_sylvester_rank:
            held_fullsyl += 1
    elapsed = time.perf_counter() - started
    ok = held_minimal == 100 and held_fullsyl == 100 and elapsed < 30.0
    report(
        5,
        f"robustness held {held_minimal}/100 minimal, {held_fullsyl}/100 "
        f"full-Sylvester ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_06_fragility_suite():
    M3 = example3()
    ok = True
    for eps in (1e-2, 1e-6):
        witness, dist = fragile_neighbor(M3, eps)
        ok = ok and dist < eps and not mb.certify_minimal_basis(witness).is_minimal_basis
    embedded = mb.embed(example1(), 2)
    witness, dist = fragile_neighbor(embedded, 1e-6)
    ok = (
        ok
        and dist < 1e-6
        and not mb.certify_minimal_basis(witness).is_minimal_basis
    )
    report(6, "fragility constructions break certification below epsilon", ok)


def test_criterion_07_sharpness_flat_case():
    ok = True
    for seed in range(20):
        M = mb.sample_full_sylvester(1, 3, 1, seed=seed)
        witness, dist = sharp_witness_flat(M)
        radius = robustness_radius_fullsyl(M).radius
        ok = ok and abs(dist - radius) <= 1e-10 * radius
        ok = ok and not mb.has_full_sylvester_rank(witness).has_full_sylvester_rank
    report(7, "sharp flat-case witness distance equals radius (20/20)", ok)


def test_criterion_08_dual_perturbation_bound():
    started = time.perf_counter()
    cases = {"a": (4, 3, 1), "b": (1, 3, 1), "c": (3, 2, 2)}
    ok = True
    for case, (m, n, d) in cases.items():
        rng = np.random.default_rng(hash(case) % 2**32)
        expected_split = sorted(mb.predicted_minimal_indices(m, n, d))
        for trial in range(200):
            M = mb.sample_full_sylvester(m, n, d, seed=trial)
            pair = dual_minimal_basis(M)
            radius = admissible_radius(M, pair.N)
            delta = random_perturbation(M, rng.uniform(0.02, 0.95) * radius, rng)
            rep = propagate_perturbation(pair, delta)
            ok = ok and rep.thetas.case == case
            ok = ok and rep.relative_change <= rep.guaranteed_bound
            new_N = rep.perturbed_pair.N
            ok = ok and mb.certify_minimal_basis(new_N).is_minimal_basis
            ok = ok and sorted(row_degrees(new_N)) == expected_split
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report(8, f"dual perturbation bound 3x200 trials, zero violations ({elapsed:.1f}s)", ok)


def test_criterion_09_genericity():
    ok = True
    for m, n, d in [(3, 2, 2), (6, 2, 1), (4, 3, 1), (2, 5, 3)]:
        res = mb.genericity_experiment(m, n, d, trials=1000, seed=42)
        ok = ok and res.successes >= 999
    control = mb.genericity_experiment(3, 2, 2, trials=100, seed=42, zero_leading=True)
    ok = ok and control.successes == 0
    report(9, "genericity >= 999/1000 x4 configs; degenerate stratum 0/100", ok)


def test_criterion_10_lower_bound():
    rep = classical_lower_bound_check(
        example1(), num_samples=500, seed=42, radii=(0.5, 1.0, 2.0, 10.0)
    )
    ok = (
        rep.violations == 0
        and rep.lower_bound <= rep.sigma_leading + 1e-12
        and rep.lower_bound <= rep.min_sampled_sigma + 1e-12
    )
    report(10, "Sylvester lower bound vs leading coeff and 500 samples", ok)


def test_criterion_11_norm_lemmas():
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        cols = rows + int(rng.integers(1, 4))
        grade = int(rng.integers(1, 4))
        P = PolyMat(rng.standard_normal((grade + 1, rows, cols)))
        s1 = float(np.linalg.norm(s1_stack(P), 2))
        for k in range(1, 7):
            sk = float(np.linalg.norm(sylvester(P, k), 2))
            if s1 > sk * (1 + 1e-12) or sk > math.sqrt(k) * s1 * (1 + 1e-12):
                violations += 1
    report(11, "norm sandwich on 50 random matrices, k = 1..6", violations == 0)


def test_criterion_12_lification_backward_error():
    rng = np.random.default_rng(77)
    ok = True
    skipped = 0
    # Family 1: ell = 1, built on Example-1 with a random 1x8 top block.
    M1 = example1()
    K1 = PolyMat(rng.standard_normal((2, 1, 8)))
    lif1 = build_lification(K1, M1)
    # Family 2: ell = 2 on a (2, 2, 2)-grade instance with k' = 2.
    M2 = mb.sample_full_sylvester(2, 2, 2, seed=7)
    K2 = PolyMat(rng.standard_normal((3, 1, 4)))
    lif2 = build_lification(K2, M2)
    for lif in (lif1, lif2):
        radius = admissible_radius(lif.M, lif.N)
        for _ in range(50):
            dm = random_perturbation(lif.M, rng.uniform(0.02, 0.9) * radius, rng)
            dk = random_perturbation(lif.K, rng.uniform(0.0, 0.2), rng)
            rep = backward_error_map(lif, dk, dm)
            ok = ok and rep.relative_dP <= rep.bound_rhs
            shift = minimal_index_shift_check(lif, dk, rep.perturbation)
            if shift is None:
                skipped += 1
            else:
                ok = ok and shift
            if not ok:
                break
    report(
        12,
        f"l-ification backward-error bound 100 trials ({skipped} shift checks skipped)",
        ok,
    )


def test_criterion_13_oracle_equivalence():
    rng = np.random.default_rng(99)
    agreements = 0
    matrices = [example1(), example2(), example3()]
    while len(matrices) < 50:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, min(8 - m, 4) + 1))
        d = int(rng.integers(1, 4))
        if m * d > 8:
            continue
        coeffs = rng.integers(-5, 6, size=(d + 1, m, m + n)).astype(float)
        if not np.any(coeffs):
            continue
        matrices.append(PolyMat(coeffs))
    for M in matrices:
        exact = exact_rank_profile(M)
        floating = mb.rank_profile(M)
        if (
            exact.ranks == floating.ranks
            and exact.nullities == floating.nullities
            and exact.d_prime == floating.d_prime
            and exact.alphas == floating.alphas
            and exact.normal_rank_full == floating.normal_rank_full
        ):
            agreements += 1
    report(13, f"oracle equivalence on integer corpus ({agreements}/50)", agreements == 50)
