"""Exact-arithmetic toolkit for invariant CR-structures on homogeneous spaces.

Structure-constant Lie algebras over Q and Q(i), invariant CR pairs and
their Levi theory, complexifications and orbit models, the anticanonical
fibration at the algebra level, globalization criteria, and a verified
catalog of the low-codimension classification instances.

The public names below are imported from their submodule on first use
(PEP 562), so a program that needs only some layers, like ``crkit
analyze`` of an algebra file, never loads the others.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": (
        "BilinearForm",
        "LieAlgebra",
        "Subspace",
        "abelian",
        "centralizer",
        "derived_series",
        "direct_sum",
        "heisenberg",
        "is_ideal",
        "killing_form",
        "lower_central_series",
        "normalizer_subalgebra",
        "quotient_algebra",
        "radical",
        "sl2",
        "span",
        "subalgebra_closure",
        "validate",
        "validate_tensor",
        "verify_levi_complement",
    ),
    "complexify": (
        "OrbitModel",
        "anticanonical_fibration",
        "cr_normalizer_algebra",
        "fiber_globalization_check",
        "induced_cr_pair",
        "product_model",
        "realify",
    ),
    "cr": (
        "CRPair",
        "CRType",
        "LeviReport",
        "check_cr_pair",
        "cr_type",
        "levi_form",
        "levi_signature",
    ),
    "catalog": (
        "build_sl_complex",
        "build_su",
        "catalog_entries",
        "get_entry",
        "quadric_orbit",
        "real_projective_orbit",
        "sp_quadric_orbit",
        "twisted_diagonal_orbit",
        "verify_entry",
    ),
    "entries": ("CatalogEntry", "classify_fiber"),
    "errors": ("CrkitError", "InputError", "InternalError", "StructureError"),
    "globalize": (
        "GlobalizationVerdict",
        "Pi1Descriptor",
        "condition_c_check",
        "fine_classification_checks",
        "radical_abelian_check",
        "verdict",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"

# the schema tag of every structured record and payload
SCHEMA = "crkit/1"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
