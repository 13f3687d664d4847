"""Each theorem's hypothesis has one check, every count argument one check,
and the certificate implies the full row rank of S_{d'} that the robustness
radius needs."""

import json

import numpy as np
import pytest

import minbasis as mb
from minbasis.cli import main
from minbasis.fullsyl import KPrimeT, kprime_t
from minbasis.lify import build_lification
from minbasis.polymat import PolyMat, from_dict, vstack_polymats
from minbasis.sylvester import full_leading_rank, sylvester_rank

from helpers import (
    common_factor_2x4,
    example1,
    example2,
    example3,
    flat_1311,
    one_lambda,
    planted_indices,
)


def _lify(M):
    return build_lification(PolyMat.zeros(1, M.cols, M.degree_bound), M)


# example3 lacks both hypotheses: its leading coefficient is rank deficient,
# so it has neither full-Sylvester-rank nor a robustness neighbourhood.  The
# common factor has a full-rank leading coefficient but is not minimal.
GATES = [
    ("dual_minimal_basis", mb.dual_minimal_basis, example3, mb.PreconditionError),
    ("robustness_radius_fullsyl", mb.robustness_radius_fullsyl, example3, mb.PreconditionError),
    ("thetas", mb.thetas, example3, mb.PreconditionError),
    ("dual_minimal_basis", mb.dual_minimal_basis, common_factor_2x4, mb.PreconditionError),
    ("robustness_radius_fullsyl", mb.robustness_radius_fullsyl, common_factor_2x4,
     mb.PreconditionError),
    ("thetas", mb.thetas, common_factor_2x4, mb.PreconditionError),
    ("build_lification", _lify, example3, mb.PreconditionError),
    ("robustness_radius_minimal", mb.robustness_radius_minimal, example3,
     mb.LeadingCoefficientError),
    ("robustness_radius_minimal", mb.robustness_radius_minimal, common_factor_2x4,
     mb.PreconditionError),
    ("classical_lower_bound_check", mb.classical_lower_bound_check, example3,
     mb.LeadingCoefficientError),
    ("classical_lower_bound_check", mb.classical_lower_bound_check, common_factor_2x4,
     mb.PreconditionError),
]


@pytest.mark.parametrize("name, call, make, error", GATES)
def test_each_entry_point_names_itself_when_its_hypothesis_fails(name, call, make, error):
    with pytest.raises(error, match=name) as info:
        call(make())
    assert type(info.value) is error


def _grid():
    rng = np.random.default_rng
    yield from (example1(), example2(), example3(), flat_1311(), one_lambda(),
                common_factor_2x4())
    for seed, eps in enumerate([(1, 2, 5), (0, 1, 3), (2, 2)]):
        yield planted_indices(eps, rng(seed))
    for dims in [(2, 3, 1), (4, 3, 2), (6, 3, 3), (3, 2, 2), (8, 2, 6), (20, 5, 3)]:
        for field in ("real", "complex"):
            for seed in (0, 1):
                yield mb.sample_full_sylvester(*dims, seed=seed, field_tag=field)


def test_a_minimal_certificate_with_full_leading_rank_gives_full_row_rank_at_d_prime():
    # robustness_radius_minimal relies on this instead of checking S_{d'}.
    checked = 0
    for M in _grid():
        m, d = M.rows, M.degree_bound
        for tol in (None, 1e-10):
            cert = mb.certify_minimal_basis(M, tol)
            if cert.is_minimal_basis and full_leading_rank(M, tol) is not None:
                dp = cert.d_prime
                assert sylvester_rank(M, dp, tol).rank == (dp + d) * m
                checked += 1
    assert checked == 60


@pytest.mark.parametrize("call, match", [
    (lambda: mb.genericity_experiment(2, 3, 1, trials=True, seed=0), "trials must be an integer"),
    (lambda: mb.genericity_experiment(2, 3, 1, trials=3.0, seed=0), "trials must be an integer"),
    (lambda: mb.genericity_experiment(2, 3, 1, trials=0, seed=0), "trials must be positive"),
    (lambda: mb.classical_lower_bound_check(example1(), num_samples=2.5),
     "num_samples must be an integer"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=()),
     "number of radii must be positive"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=("a",)),
     r"radii must be finite positive numbers, got \('a',\)"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=(float("inf"),)),
     r"radii must be finite positive numbers, got \(inf,\)"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=(0,)),
     r"radii must be finite positive numbers, got \(0,\)"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=(-1,)),
     r"radii must be finite positive numbers, got \(-1,\)"),
    (lambda: mb.classical_lower_bound_check(example1(), radii=(1.0, -1)),
     r"radii must be finite positive numbers, got \(1.0, -1\)"),
    (lambda: mb.robustness_radius_minimal(example1(), scan_extra=True),
     "scan_extra must be an integer"),
    (lambda: mb.robustness_radius_minimal(example1(), scan_extra=-1),
     "scan_extra must be non-negative"),
    (lambda: mb.genericity_experiment(2.0, 3, 1, trials=5, seed=0), "m must be an integer, got 2.0"),
    (lambda: mb.sample_full_sylvester(2, 3.0, 1, seed=0), "n must be an integer, got 3.0"),
    (lambda: mb.classical_lower_bound_check(example1(), num_samples=0),
     "num_samples must be positive, got 0"),
    (lambda: mb.sample_full_sylvester(2, 0, 1, seed=0), "n must be positive, got 0"),
    (lambda: mb.genericity_experiment(2, 3, 0, trials=5, seed=0), "d must be positive, got 0"),
    (lambda: mb.predicted_minimal_indices(2, 3.0, 1), "n must be an integer, got 3.0"),
    (lambda: mb.predicted_minimal_indices(2, 3, 0), "d must be positive, got 0"),
    (lambda: kprime_t(2, 3, 1.5), "d must be an integer, got 1.5"),
    (lambda: kprime_t(2, 3, True), "d must be an integer, got True"),
    (lambda: kprime_t(0, 3, 1), "m must be positive, got 0"),
])
def test_count_arguments_are_integers_in_range(call, match):
    with pytest.raises(mb.ShapeError, match=match):
        call()


# Each function that takes a seed, called with it.
SEEDED = {
    "genericity_experiment": lambda seed: mb.genericity_experiment(2, 3, 1, trials=3, seed=seed),
    "sample_full_sylvester": lambda seed: mb.sample_full_sylvester(2, 3, 1, seed=seed),
    "classical_lower_bound_check": lambda seed: mb.classical_lower_bound_check(example1(),
                                                                               seed=seed),
}


@pytest.mark.parametrize("seed, match", [
    (-1, "seed must be non-negative, got -1"),
    (True, "seed must be an integer, got True"),
    (2.5, "seed must be an integer, got 2.5"),
])
@pytest.mark.parametrize("name", SEEDED)
def test_a_seed_is_a_non_negative_integer_checked_before_any_draw(name, seed, match,
                                                                   monkeypatch):
    from minbasis import fullsyl

    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a))
    monkeypatch.setattr(fullsyl, "_draw", lambda *a: draws.append(a))
    with pytest.raises(mb.ShapeError, match=match):
        SEEDED[name](seed)
    assert draws == []


def test_a_numpy_integer_count_is_accepted():
    assert mb.genericity_experiment(2, 3, 1, trials=np.int64(3), seed=0).trials == 3
    assert (mb.genericity_experiment(2, 3, 1, trials=3, seed=np.uint64(2**63))
            == mb.genericity_experiment(2, 3, 1, trials=3, seed=2**63))
    assert len(mb.robustness_radius_minimal(example1(), scan_extra=np.int64(0)).scanned) == 1
    assert kprime_t(np.int64(6), 3, 3) == KPrimeT(k_prime=6, t=0)


TALL = PolyMat(np.ones((2, 3, 2)))
CONSTANT = PolyMat(np.ones((1, 2, 3)))


@pytest.mark.parametrize("call, M, match", [
    (mb.has_full_sylvester_rank, TALL, "property requires a wide matrix, got 3x2"),
    (mb.has_full_sylvester_rank, CONSTANT, "property requires degree_bound >= 1"),
    (mb.rank_profile, TALL, "rank_profile requires a wide matrix, got 3x2"),
    (mb.rank_profile, CONSTANT, "rank_profile requires degree_bound >= 1"),
    (mb.exact_rank_profile, TALL, "rank profile requires a wide matrix, got 3x2"),
    (mb.exact_rank_profile, CONSTANT, "rank profile requires degree_bound >= 1"),
    (mb.certify_minimal_basis, TALL, "certification requires a wide matrix, got 3x2"),
    (mb.right_minimal_indices, TALL, "rank_profile requires a wide matrix, got 3x2"),
    (mb.dual_minimal_basis, TALL, "property requires a wide matrix, got 3x2"),
    (mb.dual_minimal_basis, CONSTANT, "property requires degree_bound >= 1"),
    (mb.robustness_radius_fullsyl, TALL, "property requires a wide matrix, got 3x2"),
    (mb.thetas, TALL, "property requires a wide matrix, got 3x2"),
    (mb.sharp_witness_flat, TALL, "sharp_witness_flat requires a wide matrix, got 3x2"),
    (mb.certify_full_leading, TALL, "certification requires a wide matrix, got 3x2"),
    # Checked before m*ell % n, which divides by n = 0 for a square M.
    (_lify, PolyMat(np.ones((2, 3, 3))), "build_lification requires a wide matrix, got 3x3"),
    # The shape comes before the leading coefficient and minimality.
    (mb.certify_minimal_basis, CONSTANT, "certification requires degree_bound >= 1"),
    (mb.robustness_radius_minimal, TALL,
     "robustness_radius_minimal requires a wide matrix, got 3x2"),
    (mb.robustness_radius_minimal, CONSTANT,
     "robustness_radius_minimal requires degree_bound >= 1"),
    (mb.classical_lower_bound_check, TALL,
     "classical_lower_bound_check requires a wide matrix, got 3x2"),
    (mb.classical_lower_bound_check, CONSTANT,
     "classical_lower_bound_check requires degree_bound >= 1"),
    (lambda M: mb.fragile_neighbor(M, 1e-3), TALL,
     "fragile_neighbor requires a wide matrix, got 3x2"),
])
def test_the_wide_checks_keep_their_messages(call, M, match):
    with pytest.raises(mb.ShapeError, match=match):
        call(M)


def _one_lambda_dict(**changes):
    obj = mb.to_dict(one_lambda())
    obj.update(changes)
    return obj


def _perturb(pair, delta_M):
    return lambda: mb.propagate_perturbation(pair, delta_M)


def _backward_error(delta_K):
    K = PolyMat.zeros(1, 8, 1)
    return lambda: mb.backward_error_map(build_lification(K, example1()), delta_K, example1())


ONE_LAMBDA_PAIR = mb.dual_minimal_basis(one_lambda())
# A leading coefficient of rank 1 with no zero row.
_LEAD_WITHOUT_ZERO_ROW = PolyMat.from_coeff_list([[[1, 0, 0], [0, 1, 0]],
                                                  [[1, 0, 0], [1, 0, 0]]])
# K = 0 recovers P = 0.
_ZERO_K_LIFICATION = build_lification(PolyMat.zeros(1, 4, 1),
                                      mb.sample_full_sylvester(2, 2, 1, seed=0))


@pytest.mark.parametrize("call, error, match", [
    (lambda: from_dict([]), mb.InputFormatError, "top-level value must be an object"),
    (lambda: from_dict(_one_lambda_dict(rows=0)), mb.InputFormatError,
     "rows: expected an integer >= 1, got 0"),
    (lambda: from_dict(_one_lambda_dict(cols=True)), mb.InputFormatError,
     "cols: expected an integer >= 1, got True"),
    (lambda: from_dict(_one_lambda_dict(degree_bound=1.0)), mb.InputFormatError,
     "degree_bound: expected an integer >= 0, got 1.0"),
    (lambda: from_dict(_one_lambda_dict(coefficients=[[[1, 0], [0, 1]], [[0, 1]]])),
     mb.InputFormatError, r"coefficients\[0\]: expected 1 rows, got 2"),
    (lambda: from_dict(_one_lambda_dict(coefficients=[[[1, "0"]], [[0, 1]]])),
     mb.InputFormatError, r"coefficients\[0\]\[0\]\[1\]: expected a real number, got '0'"),
    (lambda: from_dict(_one_lambda_dict(field="complex")), mb.InputFormatError,
     r"coefficients\[0\]\[0\]\[0\]: expected an \[re, im\] pair, got 1.0"),
    (lambda: PolyMat(np.ones((2, 3))), mb.ShapeError,
     r"coefficient stack must be 3-dimensional, got shape \(2, 3\)"),
    (lambda: PolyMat(np.ones((2, 0, 3))), mb.ShapeError,
     r"degenerate coefficient stack shape \(2, 0, 3\)"),
    (lambda: PolyMat.from_coeff_list([]), mb.ShapeError,
     "at least one coefficient matrix is required"),
    (lambda: PolyMat.from_coeff_list([np.ones((1, 2)), np.ones((2, 1))]), mb.ShapeError,
     r"coefficient 1 has shape \(2, 1\), expected \(1, 2\)"),
    (lambda: vstack_polymats([]), mb.ShapeError, "nothing to stack"),
    (lambda: vstack_polymats([one_lambda(), example1()]), mb.ShapeError,
     "vstack requires equal column counts and grades"),
    (lambda: vstack_polymats([one_lambda(), mb.embed(one_lambda(), 2)]), mb.ShapeError,
     "vstack requires equal column counts and grades"),
    (lambda: mb.embed(one_lambda(), 0), mb.ShapeError,
     "cannot embed grade 1 matrix into smaller grade 0"),
    # A count argument takes integers only, as _block_count checks every
    # other one: NumPy used to raise its own TypeError for a float, and
    # accept True as 1.
    (lambda: mb.embed(one_lambda(), 2.5), mb.ShapeError,
     "degree_bound must be an integer, got 2.5"),
    (lambda: mb.embed(one_lambda(), True), mb.ShapeError,
     "degree_bound must be an integer, got True"),
    (lambda: PolyMat.zeros(2, 3, 1.5), mb.ShapeError,
     "degree_bound must be an integer, got 1.5"),
    (lambda: PolyMat.zeros(2.0, 3, 1), mb.ShapeError, "rows must be an integer, got 2.0"),
    (lambda: PolyMat.zeros(2, False, 1), mb.ShapeError, "cols must be an integer, got False"),
    (lambda: PolyMat.zeros(2, 0, 1), mb.ShapeError, "cols must be positive, got 0"),
    (lambda: PolyMat.zeros(2, 3, -1), mb.ShapeError,
     "degree_bound must be non-negative, got -1"),
    (lambda: mb.verify_duality(example1(), one_lambda()), mb.ShapeError,
     r"column counts differ \(8 vs 2\)"),
    (_perturb(mb.verify_duality(one_lambda(), one_lambda()), PolyMat.zeros(1, 2, 1)),
     mb.PreconditionError, "propagation requires a valid dual pair"),
    (_perturb(ONE_LAMBDA_PAIR, PolyMat.zeros(1, 2, 2)), mb.ShapeError,
     r"propagate_perturbation: shape/grade mismatch \(2, 1, 2\) vs \(3, 1, 2\)"),
    (_perturb(ONE_LAMBDA_PAIR, PolyMat.zeros(1, 2, 1, field="complex")),
     mb.FieldMismatchError, r"propagate_perturbation: mixed fields \(real vs complex\)"),
    (lambda: PolyMat.zeros(2, 3, 1, field="quaternion"), mb.InputFormatError,
     "unknown field tag 'quaternion'"),
    (lambda: build_lification(PolyMat.zeros(1, 2, 1), example1()), mb.ShapeError,
     "K and M must share column count and grade"),
    (_backward_error(PolyMat.zeros(2, 8, 1)), mb.ShapeError,
     r"backward_error_map: delta_K: shape/grade mismatch \(2, 1, 8\) vs \(2, 2, 8\)"),
    # PolyMat takes numbers only, as from_dict does, and names a number past
    # the float range.
    (lambda: PolyMat(np.array([[["1.5", "2"]]])), mb.InputFormatError,
     "coefficient entries must be numbers, got dtype <U3"),
    (lambda: PolyMat(np.array([[[True, False]]])), mb.InputFormatError,
     "coefficient entries must be numbers, got dtype bool"),
    (lambda: PolyMat.from_coeff_list([[[10**400, 0]], [[0, 1]]]), mb.InputFormatError,
     "coefficient entry too large for a float"),
    (lambda: PolyMat.from_coeff_list([[[1 + 0j, 10**400]]]), mb.InputFormatError,
     "coefficient entry too large for a float"),
    (lambda: mb.fragile_neighbor(example1(), 0.0), mb.ShapeError,
     "eps must be a finite positive number, got 0.0"),
    (lambda: mb.fragile_neighbor(example1(), float("nan")), mb.ShapeError,
     "eps must be a finite positive number, got nan"),
    # A bool or a non-number is no eps, and no scale factor.
    (lambda: mb.fragile_neighbor(example1(), True), mb.ShapeError,
     "eps must be a finite positive number, got True"),
    (lambda: mb.fragile_neighbor(example1(), "x"), mb.ShapeError,
     "eps must be a finite positive number, got 'x'"),
    (lambda: mb.fragile_neighbor(example1(), None), mb.ShapeError,
     "eps must be a finite positive number, got None"),
    # Below every floating-point witness of [1, lambda] at grade 2.
    (lambda: mb.fragile_neighbor(mb.embed(one_lambda(), 2), 5e-324), mb.ShapeError,
     "eps = 5e-324 is too small for a floating-point witness"),
    (lambda: mb.scale(example1(), "x"), mb.InputFormatError,
     "scale factor must be a number, got 'x'"),
    (lambda: mb.scale(example1(), True), mb.InputFormatError,
     "scale factor must be a number, got True"),
    (lambda: mb.scale(example1(), None), mb.InputFormatError,
     "scale factor must be a number, got None"),
    (lambda: mb.fragile_neighbor(_LEAD_WITHOUT_ZERO_ROW, 1e-3), mb.PreconditionError,
     "rank-deficient leading coefficient without a zero row"),
    (lambda: mb.sharp_witness_flat(PolyMat.from_coeff_list([[[1, 0, 0, 0]], [[2, 0, 0, 0]]])),
     mb.PreconditionError, "first coefficient stack is not of full row rank"),
    (lambda: mb.backward_error_map(_ZERO_K_LIFICATION, PolyMat.zeros(1, 4, 1),
                                   PolyMat.zeros(2, 4, 1)),
     mb.PreconditionError, "recovered polynomial is zero; relative error undefined"),
])
def test_malformed_inputs_are_rejected_with_their_reason(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("tag", ["quaternion", "Real", None, 1])
def test_a_bad_field_tag_has_one_message_in_memory_in_a_file_and_from_the_cli(
        tag, tmp_path, capsys):
    with pytest.raises(mb.InputFormatError) as zeros:
        PolyMat.zeros(1, 2, 1, field=tag)
    with pytest.raises(mb.InputFormatError) as parsed:
        from_dict(_one_lambda_dict(field=tag))
    assert str(parsed.value) == str(zeros.value) == f"unknown field tag {tag!r}"
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(_one_lambda_dict(field=tag)))
    assert main(["certify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"minbasis: error: {path}: unknown field tag {tag!r}\n"
