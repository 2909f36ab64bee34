"""Finite parity-graded commutative rings and their homogeneous spectra.

Exact, exhaustively verified implementations of the graded-ideal pair
decomposition, the graded prime/maximal classification, the contraction
homeomorphism onto the spectrum of the even part, the graded radical in three
independent forms, graded field/domain structure, and the even-part norm
criterion for integrality.
"""

from .errors import (
    AlgebraError,
    EnumerationLimitError,
    GradingAxiomError,
    GradingDecompositionError,
    InstanceParseError,
    InvalidInputError,
    InvalidModuleError,
    InvalidParameterError,
    NotGradedFieldError,
    NotStronglyGradedError,
    RingMismatchError,
    TheoremViolationError,
)
from .rings import (
    DEFAULT_ENUMERATION_BOUND,
    FiniteRing,
    Ideal,
    IdealClassification,
    RingElement,
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    ideal_generate,
    is_field,
    poly_quotient,
    product_ring,
    radical,
    spec,
    zmod,
)
from .grading import (
    GradedRing,
    Matrix2,
    Submodule,
    gaussian_integers,
    grade_manual,
    homogeneous_parts,
    is_strongly_graded,
    matrix_rep,
    quadratic_extension,
    r1_cubed,
    r1_squared,
    residual,
    strong_grading_certificate,
    submodule_generate,
    submodules,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from .graded_ideals import (
    GradedIdeal,
    decompose_graded,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
    graded_ideal_from_submodule,
    is_graded_ideal,
)
from .spectrum import (
    GradedPrime,
    PrimeKind,
    SpectrumReport,
    classify_graded_prime,
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_graded_prime,
    is_prime_submodule,
    phi,
    phi_inverse,
    r1_bracket,
)
from .maxfield import (
    DomainEquivalenceReport,
    GradedFieldPresentation,
    domain_equivalence_check,
    graded_field_presentation,
    graded_max,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_maximal,
    norm,
    norm_set,
)
from .instances import (
    InstanceSpec,
    build_instance,
    parse_instance,
    serialize_instance,
)
from .catalog import CATALOG, CatalogEntry, catalog_entry, catalog_ids
from .verify import (
    CheckRecord,
    VerificationReport,
    report_to_json,
    report_to_text,
    run_verify,
)
from .dot import export_dot, render_dot

__version__ = "0.1.0"
