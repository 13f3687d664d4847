"""Minimal bases of polynomial matrices: certification, robustness, duality.

The package decides whether a wide polynomial matrix is a minimal basis with
finitely many Sylvester-matrix rank tests, recovers its right minimal
indices, detects the generic full-Sylvester-rank property, computes
robustness radii under coefficient perturbations, extracts and perturbs dual
minimal bases with certified bounds, and evaluates the backward-error
constant of strong l-ifications.  An exact rational oracle, built on the
same Sylvester builder over numpy object arrays of ints and Fractions and
on modular elimination with a certified integer nullspace, cross-checks
every floating-point rank decision at the float pipeline's sizes.
"""

# The package's public names: each answers a question of the paper, backs a
# CLI command or a benchmark op, or is called by an acceptance criterion; the
# table under "Public names" in README.md gives each one its reason.  Other
# functions stay in their modules, for the package's own use.
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
    embed,
    load,
    row_degrees,
    s1_stack,
    save,
    scale,
    to_dict,
)
from .sylvester import sylvester
from .minimal import (
    Certificate,
    RankProfile,
    certify_full_leading,
    certify_minimal_basis,
    rank_profile,
    right_minimal_indices,
)
from .fullsyl import (
    FullSylReport,
    GenericityResult,
    genericity_experiment,
    has_full_sylvester_rank,
    predicted_minimal_indices,
    sample_full_sylvester,
)
from .robust import (
    LowerBoundReport,
    RadiusReport,
    Thetas,
    classical_lower_bound_check,
    fragile_neighbor,
    robustness_radius_fullsyl,
    robustness_radius_minimal,
    sharp_witness_flat,
    thetas,
)
from .dual import (
    DualPair,
    PerturbReport,
    dual_minimal_basis,
    propagate_perturbation,
    verify_duality,
)
from .lify import (
    BackwardErrorReport,
    Lification,
    backward_error_map,
    build_lification,
    minimal_index_shift_check,
)
from .oracle import exact_rank_profile

__version__ = "0.1.0"
