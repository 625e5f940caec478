"""Globalization criteria at the algebra level.

The computable side of deciding whether a homogeneous CR-manifold is a
real-group orbit in a complex homogeneous space: an abelian-radical test
on the fibration base, a table-driven fundamental-group comparison, the
affine-quadric obstruction bookkeeping, and the fine-classification
conclusion checks for Levi-nondegenerate and parallelizable instances.

Fundamental groups are supplied data: computing them needs global
topology an algebra-level toolkit does not carry.  The rank comparison
decides failure exactly; genuine surjectivity needs the per-instance
flag recorded on catalog entries.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (
    Subspace,
    is_abelian,
    is_solvable,
    product_space,
    radical,
    read_off_structure,
    sparse_span,
)
from .complexify import j_apply
from .errors import InputError
from .report import Check, Report


# ---------------------------------------------------------------------------
# fundamental groups
# ---------------------------------------------------------------------------

def condition_c_check(pi1_real, pi1_complex, known_surjective=False) -> str:
    """Three-way homotopy comparison: pass | weak-pass | fail.

    fail: the free rank on the real side is smaller, so no finite-index
    image can exist.  pass needs the recorded surjectivity flag on top of
    the rank inequality; without it only a finite cokernel is possible
    (weak-pass), which still globalizes after a finite quotient.
    """
    if pi1_real[0] < pi1_complex[0]:
        return "fail"
    if known_surjective:
        return "pass"
    return "weak-pass"


# ---------------------------------------------------------------------------
# radical action on the base
# ---------------------------------------------------------------------------

def radical_abelian_check(ambient, j_hat: Subspace) -> bool:
    """Does the ambient radical act abelianly on the fibration base?

    Infinitesimally: the derived algebra of radical(ambient) must sit
    inside the base-point stabilizer subalgebra j_hat.
    """
    if j_hat.parent != ambient:
        raise InputError("j_hat must be a subspace of the ambient algebra")
    r = radical(ambient)
    derived = product_space(ambient, r, r)
    return all(j_hat.contains(v) for v in derived.echelon.values())


def entry_j_hat(entry) -> Subspace:
    """Complex stabilizer subalgebra of the fibration base point: hat-h + C . j.

    Realified, as the J-stable subspace hat-h + j + J j of the realified ambient.
    """
    model = entry.model
    j = list(entry.fibration.normalizer.echelon.values())
    n = model.ambient.dim
    rows = [*model.isotropy_real.echelon.values(), *j, *(j_apply(v, n) for v in j)]
    return sparse_span(model.ambient_real, rows)


# ---------------------------------------------------------------------------
# affine quadric involvement
# ---------------------------------------------------------------------------

def affine_quadric_involvement(entry) -> bool:
    """Is the two-dimensional affine quadric involved in the entry's fiber?

    True for the symplectic series row, whose fiber is the quadric itself,
    and for a fiber that refibers over a projective line with quadric
    fibers, which the entry records (quadric_refibers).
    """
    return entry.taxon == "Sp-series" or entry.quadric_refibers


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------

GLOBALIZABLE = "globalizable-directly"
GLOBALIZABLE_FINITE = "globalizable-after-finite-quotient"
NOT_DECIDABLE = "not-decidable-at-algebra-level"


class GlobalizationVerdict(namedtuple(
    "GlobalizationVerdict",
    "radical_abelian_on_base condition_c quadric_involved overall notes",
)):
    # radical_abelian_on_base is pass | fail, condition_c pass | weak-pass | fail | unknown
    __slots__ = ()

    def rows(self):
        return [
            ("radical-abelian-on-base", self.radical_abelian_on_base),
            ("condition-c", self.condition_c),
            ("affine-quadric-involved", "yes" if self.quadric_involved else "no"),
            ("overall", self.overall),
        ]


def verdict(entry) -> GlobalizationVerdict:
    """Combine the criteria into the classification's globalization verdict.

    Precedence: the real-projective-plane base and affine-quadric
    involvement are the two announced exceptions; otherwise an abelian
    radical action plus the homotopy comparison decide, with a trivial
    fiber short-circuiting to the base's own projective globalization.
    """
    radical_ok = radical_abelian_check(entry.model.ambient_real, entry_j_hat(entry))
    cc = "unknown"
    if entry.pi1 is not None:
        real, cplx, flag = entry.pi1
        cc = condition_c_check(real, cplx, known_surjective=flag)
    involved = affine_quadric_involvement(entry)
    notes = []

    if entry.projective_plane_base:
        overall = NOT_DECIDABLE
        notes.append(
            "real projective plane base: the homotopy comparison fails for the "
            "full group, but passes for the preimage of SO3(R), which that "
            "criterion does globalize"
        )
    elif involved:
        overall = NOT_DECIDABLE
        notes.append(
            "the two-dimensional affine quadric is involved in the fiber; "
            "globalizability must be settled instance by instance"
        )
    elif radical_ok and cc == "pass":
        overall = GLOBALIZABLE
    elif radical_ok and cc == "weak-pass":
        overall = GLOBALIZABLE_FINITE
    elif radical_ok and entry.fibration.fiber_dim == 0:
        overall = GLOBALIZABLE_FINITE
        notes.append(
            "trivial fiber: the orbit inherits the base's projective "
            "globalization up to a finite covering"
        )
    else:
        overall = NOT_DECIDABLE
        if not radical_ok:
            notes.append("the ambient radical does not act abelianly on the base")
        if cc in ("fail", "unknown"):
            notes.append(f"homotopy comparison: {cc}")

    return GlobalizationVerdict(
        radical_abelian_on_base="pass" if radical_ok else "fail",
        condition_c=cc,
        quadric_involved=involved,
        overall=overall,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# fine classification conclusions
# ---------------------------------------------------------------------------

def fine_classification_checks(entry) -> Report:
    """Conclusion checks for the fine classification.

    Levi-nondegenerate instances must have an abelian fibration fiber of
    dimension at most the codimension; parallelizable instances carrying
    the Kahler tag must have solvable maximal complex ideal, and a
    solvable algebra outright when the codimension is at most two.
    """
    from .cr import levi_form

    checks = []
    model = entry.model
    levi = levi_form(entry.cr_pair)
    if not levi.degenerate_domain and levi.nondegenerate:
        fiber = entry.fibration.fiber_algebra
        checks.append(
            Check(
                "nondegenerate-fiber-abelian",
                is_abelian(fiber),
                f"fiber dim {fiber.dim}",
            )
        )
        checks.append(
            Check(
                "nondegenerate-fiber-dim-bound",
                entry.fibration.fiber_dim <= model.codim,
                f"fiber {entry.fibration.fiber_dim} <= codim {model.codim}",
            )
        )
    parallelizable = model.h.dim == 0 and entry.fibration.degenerate
    if parallelizable and entry.kahler:
        m_algebra, _ = read_off_structure(model.ambient_real, model.m.echelon.values())
        m_solv = is_solvable(m_algebra)
        checks.append(Check("kahler-m-solvable", m_solv, f"dim m = {model.m.dim}"))
        if model.codim <= 2:
            checks.append(
                Check(
                    "kahler-g-solvable",
                    is_solvable(model.real_algebra),
                    f"codim {model.codim}",
                )
            )
    return Report(tuple(checks))
