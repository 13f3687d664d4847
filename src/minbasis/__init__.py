"""Minimal bases of polynomial matrices: certification, robustness, duality.

The package decides whether a wide polynomial matrix is a minimal basis with
finitely many Sylvester-matrix rank tests, recovers its right minimal
indices, detects the generic full-Sylvester-rank property, computes
robustness radii under coefficient perturbations, extracts and perturbs dual
minimal bases with certified bounds, and evaluates the backward-error
constant of strong l-ifications.  An exact rational oracle, built on the
same Sylvester builder over numpy object arrays of ints and Fractions,
cross-checks every floating-point rank decision at desk scale.
"""

from .errors import (
    AdmissibilityError,
    FieldMismatchError,
    InputFormatError,
    LeadingCoefficientError,
    MinBasisError,
    NotFullNormalRankError,
    NumericalInconsistencyError,
    PreconditionError,
    PropertyViolationError,
    ShapeError,
)
from .polymat import (
    PolyMat,
    add,
    degree,
    embed,
    evaluate,
    from_dict,
    highest_row_degree_matrix,
    load,
    poly_equal,
    poly_multiply_transpose,
    reversal,
    row_degrees,
    s1_stack,
    save,
    scale,
    to_dict,
    vstack_polymats,
)
from .sylvester import (
    RankDecision,
    rank_nullity,
    sylvester,
)
from .minimal import (
    Certificate,
    ClassicalCheck,
    RankProfile,
    certify_full_leading,
    certify_minimal_basis,
    classical_check,
    index_sum_check,
    minimal_index_sum,
    rank_profile,
    right_minimal_indices,
)
from .fullsyl import (
    FullSylReport,
    GenericityResult,
    KPrimeT,
    genericity_experiment,
    has_full_sylvester_rank,
    kprime_t,
    predicted_minimal_indices,
    sample_full_sylvester,
    sample_polymat,
)
from .robust import (
    LowerBoundReport,
    RadiusReport,
    Thetas,
    classical_lower_bound_check,
    distance,
    fragile_neighbor,
    robustness_radius_fullsyl,
    robustness_radius_minimal,
    sharp_witness_flat,
    thetas,
)
from .dual import (
    DualPair,
    PerturbReport,
    check_dual_fullsyl,
    dual_minimal_basis,
    propagate_perturbation,
    reversal_dual,
    verify_duality,
)
from .lify import (
    BackwardErrorReport,
    Lification,
    backward_error_map,
    build_lification,
    minimal_index_shift_check,
)
from .oracle import (
    exact_nullspace,
    exact_rank,
    exact_rank_profile,
    exact_sylvester,
)

__version__ = "0.1.0"
