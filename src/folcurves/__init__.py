"""Exact-arithmetic toolkit for foliations by curves on projective 3-space.

Submodules: polyring (homogeneous polynomial arithmetic), linalg (exact
sparse elimination), groebner (bases, Hilbert data, resolutions, Rao
profiles), forms (twisted differential forms and the wedge pipeline),
sheafcoh (cohomology tables), classify (invariant formulas and the
low-degree classification), monad (monad Chern data and regularity),
verification (acceptance checks) and cli.
"""

from .classify import (
    ClassificationReport,
    DiscrepancyFlag,
    FoliationInvariants,
    ci_foliation_invariants,
    classify_low_degree,
    connected_components,
    generic_invariants,
    invariants_from_c2,
    isolated_count,
    legendrian_moduli_dim,
    nc_curve_invariants,
    nc_moduli_dim,
    rao_bounds,
    sections_of_singular_scheme,
    split_criterion,
)
from .forms import (
    FoliationPresentation,
    TwistedForm,
    contract_with_field,
    exterior_derivative,
    is_contact_form,
    is_decomposable,
    is_projective,
    legendrian_foliation,
    legendrian_sample,
    parse_form,
    pencil_form,
    radial_contraction,
    random_projective_oneform,
    singular_ideal,
    standard_contact_form,
    vector_field_to_twoform,
    wedge,
)
from .groebner import (
    FreeResolution,
    GradedIdeal,
    HilbertPolynomial,
    RaoProfile,
    buchberger,
    curve_invariants,
    graded_syzygies,
    hilbert_polynomial,
    minimal_free_resolution,
    normal_form,
    rao_module_dimensions,
)
from .monad import MonadSpec, instanton_monad, mismatched_charge6_monads, monad_chern, monad_regularity_bound
from .polyring import HomogeneousPolynomial, graded_piece_dimension, parse_polynomial
from .sheafcoh import (
    ChernTriple,
    CohomologyTable,
    SheafSymbol,
    cotangent_cohomology,
    euler_characteristic,
    hom_lower_bound,
    hrr_polynomial,
    instanton_cohomology,
    line_bundle_cohomology,
    null_correlation_h0,
    serre_dual_twist,
)

__version__ = "0.1.0"
