"""Complexified algebras, realifications, orbit models and their fibration data.

An orbit model packages a complex ambient algebra, a real subalgebra of
its realification and a complex isotropy subalgebra: the infinitesimal
data of a real-group orbit inside a complex homogeneous space.  All of
the derived geometry here (maximal complex ideal, CR-normalizer,
anticanonical fibration, globalization preconditions) and the product
transport product_model reduce to exact computations over Q in the
realified ambient, where a complex subspace is a J-stable real one.  The
tests' transports by complex matrices (tests/support.py) act the same
way, as [[Re, -Im], [Im, Re]] on realified rows.

Rows stay sparse from the caller to the records: an OrbitModel takes
sparse realified rows over Q, real rows and isotropy generators, and
reads its real algebra off the real rows.  Q(i) values are read at the
input edge (realified_rows splits a file's complex row into its real and
imaginary parts, realify does the same for constants) and made at the
output edge: real_rows and isotropy_rows (canonical_complex_rows) are
dense views built on first read, for orbit_payload.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .algebra import (
    Subspace,
    add_spaces,
    direct_sum,
    intersect,
    is_subalgebra,
    pivot_complement,
    radical,
    read_off_structure,
    realify,
    sparse_span,
)
from .cr import CRPair
from .errors import InputError, StructureError
from .linalg import (
    Solver,
    combine_rows,
    dense,
    echelon,
    kernel_rows,
    reduce_mod,
)
from .report import Check, Report
from .scalars import QI, GaussianRational, compact, imag_part, real_part


# ---------------------------------------------------------------------------
# realified rows
# ---------------------------------------------------------------------------

def j_apply(v, n):
    """Multiplication by i on a sparse realified vector of a complex dimension-n space."""
    return {(c + n if c < n else c - n): (x if c < n else -x) for c, x in v.items()}


def place_row(v, n, total, offset):
    """A sparse realified row of a dimension-n factor, placed at offset in a dimension-total sum.

    The factor's real block moves to offset, its imaginary block to total + offset.
    """
    return {(c + offset if c < n else c - n + total + offset): x for c, x in v.items()}


def realified_rows(rows, n):
    """The sparse realified row of each sparse complex row of a dimension-n space.

    It holds the row's real parts at k and its imaginary parts at n + k.
    """
    out = []
    for z in rows:
        v = {k: real_part(x) for k, x in z.items() if real_part(x)}
        v.update((n + k, imag_part(x)) for k, x in z.items() if imag_part(x))
        out.append(v)
    return out


def complex_generators(sub: Subspace):
    """Rows of a J-stable realified subspace that span it over C.

    They are its echelon rows with a pivot in the real block: a row u
    with its pivot in the imaginary block has no real part, so J u has no
    imaginary part, hence is a combination of those rows, and u = -J(J u).
    There are dim_C of them when the subspace
    has a basis of real vectors (every catalog isotropy does), at most
    twice that in general.  The bracket of a complex algebra is
    C-bilinear, [x, J y] = J [x, y], so a condition "[x, u] lies in a
    J-stable space" holds on all of sub once it holds on these rows.
    """
    n = sub.parent.dim // 2
    return [row for p, row in sub.echelon.items() if p < n]


def canonical_complex_rows(sub: Subspace):
    """The reduced echelon rows over Q(i) of a J-stable realified subspace.

    With the columns interleaved as (re_0, im_0, re_1, im_1, ...), the
    rational echelon form of the realified span consists of the complex
    echelon rows w (pivot 2p where w has its pivot p) and the rows i w
    (pivot 2p + 1), so one elimination over Q yields the complex rows.
    Values with a nonzero imaginary part come back as GaussianRational,
    for output only.
    """
    n = sub.parent.dim // 2
    # column k of the real block goes to 2k, column n + k to 2k + 1
    basis = echelon(
        {2 * c if c < n else 2 * (c - n) + 1: x for c, x in v.items()}
        for v in sub.echelon.values()
    )
    return tuple(
        tuple(GaussianRational(re, im) if im else re for re, im in zip(w[::2], w[1::2]))
        for w in (dense(row, 2 * n) for p, row in basis.items() if p % 2 == 0)
    )


# ---------------------------------------------------------------------------
# orbit models
# ---------------------------------------------------------------------------

class OrbitModel:
    """Infinitesimal model of a real orbit in a complex homogeneous space.

    ambient        complex algebra of the big group
    ambient_real   its realification, where all derived geometry lives
    real_vectors   sparse basis rows of the real subalgebra in realified
                   coordinates, in the order given
    real_algebra   the algebra the ambient bracket induces on real_vectors
                   (read_off_structure), so its basis is aligned with them
    real_rows      the same rows as dense tuples, built on first read
    isotropy_real  complex span (rows u and J u) of the isotropy rows given
    isotropy_generators
                   rows of isotropy_real spanning it over C
                   (complex_generators)
    isotropy_rows  their canonical complex basis as dense tuples, derived
                   from isotropy_real on first read (orbit_payload writes it)

    The constructor takes sparse rows over Q in realified coordinates:
    real rows, a basis of g over R, and isotropy rows, generators of the
    isotropy over C.  An index outside the realified coordinates raises
    InputError.

    Derived on construction, as subspaces of ambient_real over Q:
    h = g ∩ ĥ, the maximal complex ideal m = g ∩ Jg, the codimension, and
    the genericity property g + Jg = ambient (a structural requirement),
    read off dim(g + Jg) = 2 dim g - dim m.  real_sub, the span of g, is
    the echelon form of the Solver that reads off real_algebra.
    A complex subspace is represented by its J-stable realification, so
    closure under the complex bracket is checked as closure under the
    realified one, on the complex generators only.
    """

    def __init__(self, ambient, real_rows, isotropy_rows, name=""):
        if ambient.field != QI:
            raise InputError("ambient algebra must be complex (Q_i)")
        self.ambient = ambient
        self.ambient_real = realify(ambient)
        self.name = name
        n, n2 = ambient.dim, self.ambient_real.dim

        real_vectors = _rows_in(real_rows, n2, "real basis rows must use realified coordinates")
        try:
            self.real_algebra, self._solver = read_off_structure(self.ambient_real, real_vectors)
        except InputError:
            raise InputError("real basis rows are linearly dependent") from None
        except StructureError:
            raise StructureError("real rows are not a subalgebra") from None
        self.real_vectors = real_vectors
        self.real_sub = Subspace(self.ambient_real, self._solver.echelon)

        iso = _rows_in(isotropy_rows, n2, "isotropy rows must use realified coordinates")
        self.isotropy_real = sparse_span(self.ambient_real, iso + [j_apply(u, n) for u in iso])
        self.isotropy_generators = complex_generators(self.isotropy_real)
        if not is_subalgebra(self.ambient_real, self.isotropy_real, self.isotropy_generators):
            raise StructureError("isotropy rows are not a complex subalgebra")

        jg = sparse_span(self.ambient_real, [j_apply(v, n) for v in real_vectors])
        # J-stable as J(g ∩ Jg) = Jg ∩ g, an ideal as g is closed and the bracket C-bilinear
        self.m = intersect(self.real_sub, jg)
        # genericity: g + Jg, of dimension 2 dim g - dim m, must span the realified ambient
        if 2 * self.real_sub.dim - self.m.dim != n2:
            raise StructureError("real subalgebra is not generic: g + Jg is proper")

        self.h = intersect(self.real_sub, self.isotropy_real)
        # g/h embeds in ambient/ĥ, so the codimension is never negative
        self.codim = (n2 - self.isotropy_real.dim) - (self.real_sub.dim - self.h.dim)
        self.caveats = (
            "group components are invisible: discreteness is reported as dim = 0",
        )

    @cached_property
    def real_rows(self):
        return tuple(dense(v, self.ambient_real.dim) for v in self.real_vectors)

    @cached_property
    def isotropy_rows(self):
        return canonical_complex_rows(self.isotropy_real)


def _rows_in(rows, width, message):
    """Copies of sparse rows without their zero entries; an index outside range(width) raises."""
    rows = [{c: compact(x) for c, x in row.items() if x} for row in rows]
    if any(c not in range(width) for row in rows for c in row):
        raise InputError(message)
    return rows


def cr_normalizer_algebra(model: OrbitModel) -> Subspace:
    """{xi in g : [xi, isotropy] <= isotropy}, as a subspace of the realification.

    This is the infinitesimal stabilizer of the complex isotropy algebra,
    the identity-component data of the fibration base group.  It sits
    inside the normalizer of h: an x in g that normalizes ĥ maps
    h = g ∩ ĥ into g ∩ ĥ.  h lies in the subalgebra ĥ, so it normalizes ĥ:
    the kernel is solved on the complement rows of h in g only, and h's
    rows are added.
    The isotropy condition is imposed on its complex generators only:
    [xi, J u] = J [xi, u] and the isotropy is J-stable.
    """
    L, h, iso = model.ambient_real, model.h, model.isotropy_real
    comp = list(pivot_complement(model.real_sub, h).values())
    images = [[iso.reduce(L.bracket(v, u)) for u in model.isotropy_generators] for v in comp]
    return sparse_span(L, [*h.echelon.values(), *kernel_rows(comp, images).values()])


class FibrationReport(namedtuple(
    "FibrationReport",
    "normalizer fiber_algebra fiber_dim base_dim h_dim degenerate isotropy_discrete_proxy caveats",
)):
    """Lie-algebra level data of the anticanonical fibration of an orbit model."""

    __slots__ = ()

    def as_record(self):
        return {
            "degenerate": self.degenerate,
            "dim_fiber": self.fiber_dim,
            "dim_base": self.base_dim,
            "h_dim": self.h_dim,
            "caveats": list(self.caveats),
        }


def anticanonical_fibration(model: OrbitModel) -> FibrationReport:
    """Fibration data: normalizer j, fiber algebra j/h, base dimension.

    Degenerate means j = g: every direction normalizes the isotropy, the
    base is a point, and (for an almost effective action) the isotropy
    must be discrete; the algebra-level proxy for that is h = 0.
    """
    j = cr_normalizer_algebra(model)
    degenerate = j.dim == model.real_sub.dim
    h = model.h
    # j/h on the cosets of the complement rows of h in j
    fiber, _ = read_off_structure(model.ambient_real, pivot_complement(j, h).values(), h)
    proxy = (h.dim == 0) if degenerate else None
    return FibrationReport(
        normalizer=j,
        fiber_algebra=fiber,
        fiber_dim=fiber.dim,
        base_dim=model.real_sub.dim - j.dim,
        h_dim=h.dim,
        degenerate=degenerate,
        isotropy_discrete_proxy=proxy,
        caveats=model.caveats,
    )


def fiber_globalization_check(model: OrbitModel) -> Report:
    """Check the algebra facts behind globalizing a parallelizable orbit.

    Requires a degenerate fibration with h = 0.  Facts checked:
      codim-at-most-2          the CR codimension is at most two
      ambient-dim-bound        dim_C ambient <= dim_C m + 2
      semisimple-part-in-m     radical(ambient) + m spans the ambient over C
                               (equivalently every maximal semisimple part
                               sits inside m, hence inside g)
      radical-alignment        radical(g) = radical(ambient) ∩ g
    """
    fib = anticanonical_fibration(model)
    if not fib.degenerate or model.h.dim != 0:
        raise StructureError(
            "fiber globalization facts apply to degenerate fibrations with h = 0"
        )
    checks = [Check("codim-at-most-2", model.codim <= 2, f"codim = {model.codim}")]

    dim_m = model.m.dim // 2  # m = g ∩ Jg is J-stable
    bound_ok = model.ambient.dim <= dim_m + 2
    checks.append(
        Check(
            "ambient-dim-bound",
            bound_ok,
            f"dim_C ambient = {model.ambient.dim}, dim_C m = {dim_m}",
        )
    )

    # the realification of a complex semisimple algebra is semisimple, so
    # the realified radical is the radical of the realification
    r_hat = radical(model.ambient_real)
    spans = add_spaces(r_hat, model.m).dim == model.ambient_real.dim
    checks.append(
        Check(
            "semisimple-part-in-m",
            spans,
            "radical(ambient) + m spans the ambient" if spans else "proper span",
        )
    )

    r_from_ambient = intersect(r_hat, model.real_sub)
    r_abstract = radical(model.real_algebra)
    r_mapped = sparse_span(
        model.ambient_real, combine_rows(r_abstract.echelon.values(), model.real_vectors)
    )
    checks.append(
        Check(
            "radical-alignment",
            r_from_ambient == r_mapped,
            f"dim radical = {r_abstract.dim}",
        )
    )
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# induced CR pair
# ---------------------------------------------------------------------------

def induced_cr_pair(model: OrbitModel) -> CRPair:
    """The invariant CR pair the embedding induces on the real subalgebra.

    R is the preimage of the complex part of the tangent space:
    {xi in g : J xi in g + isotropy}; J lifts multiplication by i modulo
    the isotropy algebra.
    """
    g, nc = model.real_algebra, model.ambient.dim
    # a basis of g + ĥ: a combination of ĥ's rows off h's pivots in g is in h, yet 0 on them
    solver = Solver([*model.real_vectors, *pivot_complement(model.isotropy_real, model.h).values()])
    images = [(reduce_mod(j_apply(v, nc), solver.echelon),) for v in model.real_vectors]
    r_sub = Subspace(g, kernel_rows([{a: 1} for a in range(g.dim)], images))
    h_sub = sparse_span(g, [model._solver.solve(v) for v in model.h.echelon.values()])
    j_columns = {}
    # J of R's row at a, the projection of e_a; R is where J lands in g + ĥ, so it solves
    for a, row in r_sub.echelon.items():
        img = solver.solve(j_apply(combine_rows([row], model.real_vectors)[0], nc))
        # the coefficients past dim g belong to ĥ's rows: J is taken mod isotropy
        col = {k: x for k, x in img.items() if k < g.dim}
        if col:
            j_columns[a] = col
    return CRPair(g, h_sub, r_sub, j_columns)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def product_model(a: OrbitModel, b: OrbitModel, name="") -> OrbitModel:
    """Direct product of two orbit models."""
    ambient = direct_sum(a.ambient, b.ambient)
    na, nb = a.ambient.dim, b.ambient.dim
    real_rows = [place_row(v, na, na + nb, 0) for v in a.real_vectors]
    real_rows += [place_row(v, nb, na + nb, na) for v in b.real_vectors]
    iso = [place_row(u, na, na + nb, 0) for u in a.isotropy_generators]
    iso += [place_row(u, nb, na + nb, na) for u in b.isotropy_generators]
    return OrbitModel(ambient, real_rows, iso, name=name)
