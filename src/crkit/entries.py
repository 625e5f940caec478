"""Catalog entry records and the taxonomy of fibration fibers.

A CatalogEntry packages an orbit model with the invariants the
classification asserts for it (an Expected record) and derives its CR
pair, fibration and fiber taxon on first use.  A FiberTaxon is the tag and
the context it was decided in; the fiber's and base's dimensions live on
the FibrationReport.  The CLI builds an entry for an orbit file without
loading the catalog's builders; crkit.catalog re-exports every name here.  Layer functions are looked up on their
modules at call time, where perfbench/tracer.py wraps them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from . import algebra, complexify
from .errors import InputError

TAXONOMY_TAGS = (
    "torus-principal",
    "linear-C*",
    "root-removed",
    "rank1-symmetric",
    "rank2-symmetric",
    "SL_m-series",
    "Sp-series",
    "SO9-Spin7",
)

TaxonContext = namedtuple(
    "TaxonContext",
    "unipotent_radical_acts series_tag sphere_base c_fiber_rule",
    defaults=(False, None, False, False),
)
FiberTaxon = namedtuple("FiberTaxon", "tag context")


def classify_fiber(fiber, context: TaxonContext) -> FiberTaxon:
    """Coarse-invariant match of a fibration fiber against the taxonomy rows.

    Computable rows are decided by exact invariants (dimension, abelian /
    nilpotent / perfect, radical dimension); the symmetric-space and series
    rows need a supplied series tag since the shipped instances never
    produce them and algebra isomorphism testing is out of scope.
    """
    if context.series_tag is not None:
        if context.series_tag not in TAXONOMY_TAGS:
            raise InputError(f"unknown taxonomy tag {context.series_tag!r}")
        return FiberTaxon(context.series_tag, context)
    if fiber.dim == 0:
        return FiberTaxon("point", context)
    if context.unipotent_radical_acts and algebra.is_nilpotent(fiber):
        return FiberTaxon("root-removed", context)
    if algebra.is_abelian(fiber):
        if fiber.dim == 2:
            return FiberTaxon("torus-principal", context)
        if fiber.dim == 1:
            return FiberTaxon("linear-C*", context)
        return FiberTaxon("outside-taxonomy", context)
    perfect = algebra.derived_subalgebra(fiber).dim == fiber.dim
    if perfect and fiber.dim == 3 and algebra.radical(fiber).dim == 0:
        return FiberTaxon("Sp-series", context)
    return FiberTaxon("outside-taxonomy", context)


# Classification-asserted invariants; None means "not asserted".
Expected = namedtuple(
    "Expected",
    "codim cr_type m_dim levi_signature_unordered levi_degenerate_domain fiber_dim "
    "fiber_tag degenerate_fibration orbit_dim",
    defaults=(None,) * 9,
)


class CatalogEntry:
    """An orbit model with the invariants the classification asserts for it.

    pi1 is ((rank, torsion), (rank, torsion), known_surjective) or None.
    """

    def __init__(self, name, family, params, model, expected, pi1=None, compact_group=False,
                 kahler=False, taxon_context=TaxonContext(), notes=()):
        self.name, self.family, self.params, self.model = name, family, params, model
        self.expected, self.pi1, self.notes = expected, pi1, notes
        self.compact_group, self.kahler, self.taxon_context = compact_group, kahler, taxon_context

    @cached_property
    def fibration(self):
        return complexify.anticanonical_fibration(self.model)

    @cached_property
    def cr_pair(self):
        return complexify.induced_cr_pair(self.model)

    @cached_property
    def taxon(self):
        return classify_fiber(self.fibration.fiber_algebra, self.taxon_context)
