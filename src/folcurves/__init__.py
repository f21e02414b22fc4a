"""Exact-arithmetic toolkit for foliations by curves on projective 3-space.

Submodules: polyring (homogeneous polynomial arithmetic), linalg (exact
sparse elimination), hilbert (Hilbert numerators and polynomials),
groebner (bases and Hilbert data of ideals), resolution (graded
syzygies, free resolutions, Rao profiles), forms (twisted differential
forms and the wedge pipeline), sheafcoh (cohomology tables), classify
(invariant formulas and the low-degree classification), monad (monad Chern
data and regularity), verification (acceptance checks), records (the base
of the plain record classes) and cli.

The package namespace is lazy (PEP 562): `import folcurves` loads no
submodule.  Each public name below is imported from its submodule on first
access, as `folcurves.<name>` or `from folcurves import <name>`, and is the
submodule's own object; `__all__` and `dir(folcurves)` list exactly these
names (`__version__` is still an attribute, but not listed).  A submodule
is an attribute only once it has been imported, so import it explicitly
(`import folcurves.groebner`) rather than reaching it through a plain
`import folcurves`; `from folcurves import *` binds no submodule.
"""

__version__ = "0.1.0"

# Each public name of the package and the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys((
        "ClassificationReport", "DiscrepancyFlag", "FoliationInvariants",
        "ci_foliation_invariants", "classify_low_degree", "connected_components",
        "generic_invariants", "invariants_from_c2", "isolated_count",
        "legendrian_moduli_dim", "nc_curve_invariants", "nc_moduli_dim", "rao_bounds",
        "sections_of_singular_scheme", "split_criterion"), "classify"),
    **dict.fromkeys((
        "FoliationPresentation", "TwistedForm", "contract_with_field",
        "exterior_derivative", "is_contact_form", "is_decomposable", "is_projective",
        "legendrian_foliation", "legendrian_sample", "parse_form", "pencil_form",
        "radial_contraction", "random_projective_oneform", "singular_ideal",
        "standard_contact_form", "vector_field_to_twoform", "wedge"), "forms"),
    **dict.fromkeys((
        "GradedIdeal", "buchberger", "curve_invariants", "hilbert_polynomial",
        "normal_form"), "groebner"),
    "HilbertPolynomial": "hilbert",
    **dict.fromkeys((
        "MonadSpec", "instanton_monad", "mismatched_charge6_monads", "monad_chern",
        "monad_regularity_bound"), "monad"),
    **dict.fromkeys((
        "HomogeneousPolynomial", "graded_piece_dimension", "parse_polynomial"), "polyring"),
    **dict.fromkeys((
        "FreeResolution", "RaoProfile", "graded_syzygies", "minimal_free_resolution",
        "rao_module_dimensions"), "resolution"),
    **dict.fromkeys((
        "ChernTriple", "CohomologyTable", "SheafSymbol", "cotangent_cohomology",
        "euler_characteristic", "hom_lower_bound", "hrr_polynomial",
        "instanton_cohomology", "line_bundle_cohomology", "null_correlation_h0",
        "serre_dual_twist"), "sheafcoh"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    from importlib import import_module

    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return __all__
