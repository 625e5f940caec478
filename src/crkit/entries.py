"""Catalog entry records and the tag of a fibration fiber.

A CatalogEntry packages an orbit model with the invariants the
classification asserts for it (an Expected record) and derives its CR
pair, fibration and fiber taxon on first use.  The taxon is the tag
classify_fiber computes from the fiber algebra; the fiber's and base's
dimensions live on the FibrationReport.  fileio builds the entry of an
orbit file without loading the catalog's builders; crkit.catalog
re-exports every name here.  Layer functions are looked up on their
modules at call time, where perfbench/tracer.py wraps them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from . import algebra, complexify


def classify_fiber(fiber) -> str:
    """The taxonomy row of a fibration fiber, decided by exact invariants.

    The paper's other rows need algebra isomorphism testing, out of scope
    here; a fiber matching none of the computed rows is outside-taxonomy.
    """
    if fiber.dim == 0:
        return "point"
    if algebra.is_abelian(fiber):
        return {2: "torus-principal", 1: "linear-C*"}.get(fiber.dim, "outside-taxonomy")
    perfect = algebra.derived_subalgebra(fiber).dim == fiber.dim
    if perfect and fiber.dim == 3 and algebra.radical(fiber).dim == 0:
        return "Sp-series"
    return "outside-taxonomy"


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
    quadric_refibers records that the fiber refibers over a projective line
    with two-dimensional affine-quadric fibers, a fact the algebra does not
    show.
    """

    def __init__(self, name, family, params, model, expected, pi1=None, compact_group=False,
                 kahler=False, quadric_refibers=False, notes=()):
        self.name, self.family, self.params, self.model = name, family, params, model
        self.expected, self.pi1, self.notes = expected, pi1, notes
        self.compact_group, self.kahler = compact_group, kahler
        self.quadric_refibers = quadric_refibers

    @cached_property
    def fibration(self):
        return complexify.anticanonical_fibration(self.model)

    @cached_property
    def cr_pair(self):
        return complexify.induced_cr_pair(self.model)

    @cached_property
    def taxon(self):
        return classify_fiber(self.fibration.fiber_algebra)
