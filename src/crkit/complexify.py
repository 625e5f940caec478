"""Complexified algebras, realifications, orbit models and their fibration data.

An orbit model packages a complex ambient algebra, a real subalgebra of
its realification and a complex isotropy subalgebra: the infinitesimal
data of a real-group orbit inside a complex homogeneous space.  All of
the derived geometry here (maximal complex ideal, CR-normalizer,
anticanonical fibration, globalization preconditions) and the
transports product_model and apply_complex_matrix_to_model reduce to
exact computations over Q in the realified ambient, where a complex
subspace is a J-stable real one and a complex matrix acts as
[[Re, -Im], [Im, Re]].  Q(i) values are only read at the input edge
(complex_rows_realified splits isotropy rows into real and imaginary
parts, realify does the same for constants) and made at the output edge
(canonical_complex_rows, for the isotropy rows orbit_payload writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    LieAlgebra,
    Subspace,
    add_spaces,
    direct_sum,
    intersect,
    is_subalgebra,
    quotient_algebra,
    radical,
    realify,
    span,
    sparse_span,
    subalgebra_structure,
)
from .cr import CRPair
from .errors import InputError, InternalError, StructureError
from .linalg import (
    Solver,
    combine_rows,
    independent_rows,
    kernel_rows,
    matvec,
    rref,
    sparse,
    vec_sub,
)
from .report import Check, Report
from .scalars import QI, QQ, GaussianRational, compact, imag_part, real_part

F = Fraction


# ---------------------------------------------------------------------------
# scalar extension and realification
# ---------------------------------------------------------------------------

def complexify_algebra(L: LieAlgebra) -> LieAlgebra:
    """Scalar extension Q -> Q(i) with the same (rational) structure constants."""
    if L.field != QQ:
        raise InputError("complexify_algebra expects a real (Q) algebra")
    return LieAlgebra(L.dim, QI, L.names, L.brackets)


def j_apply(v, n):
    """Multiplication by i on a sparse realified vector of a complex dimension-n space."""
    return {(c + n if c < n else c - n): (x if c < n else -x) for c, x in v.items()}


def complex_to_real(z):
    """Realified coordinates (real parts, then imaginary parts) of a complex vector."""
    return tuple(real_part(c) for c in z) + tuple(imag_part(c) for c in z)


def complex_rows_realified(rows):
    """Realified spanning rows (dense) of a complex row space: v and iv per row."""
    out = []
    for z in rows:
        v = complex_to_real(z)
        n = len(z)
        out += [v, tuple(-x for x in v[n:]) + v[:n]]
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
    order = [k + half * n for k in range(n) for half in (0, 1)]
    rows, pivots = rref([tuple(v[c] for c in order) for v in sub.rows])
    return tuple(
        tuple(GaussianRational(re, im) if im else re for re, im in zip(w[::2], w[1::2]))
        for w, p in zip(rows, pivots)
        if p % 2 == 0
    )


# ---------------------------------------------------------------------------
# orbit models
# ---------------------------------------------------------------------------

class OrbitModel:
    """Infinitesimal model of a real orbit in a complex homogeneous space.

    ambient        complex algebra of the big group
    ambient_real   its realification, where all derived geometry lives
    real_rows      basis of the real subalgebra in realified coordinates,
                   aligned with real_algebra's basis when one is supplied
    real_vectors   the same rows as sparse vectors
    isotropy_real  realified span of the complex isotropy rows given
    isotropy_generators
                   rows of isotropy_real spanning it over C
                   (complex_generators)
    isotropy_rows  their canonical complex basis, derived from
                   isotropy_real on first use (orbit_payload writes it)

    Derived on construction, as subspaces of ambient_real over Q:
    h = g ∩ ĥ, the maximal complex ideal m = g ∩ Jg (verified to be a
    J-stable ideal), the codimension, and the genericity property
    g + Jg = ambient (a structural requirement).  A complex subspace is
    represented by its J-stable realification, so closure under the
    complex bracket is checked as closure under the realified one, on the
    complex generators only.
    """

    def __init__(self, ambient, real_rows, isotropy_rows, real_algebra=None, name=""):
        if ambient.field != QI:
            raise InputError("ambient algebra must be complex (Q_i)")
        self.ambient = ambient
        self.ambient_real = realify(ambient)
        self.name = name
        n2 = self.ambient_real.dim

        real_rows = tuple(tuple(compact(Fraction(x)) for x in row) for row in real_rows)
        for row in real_rows:
            if len(row) != n2:
                raise InputError("real basis rows must use realified coordinates")
        self.real_rows = real_rows
        self.real_sub = span(self.ambient_real, real_rows)
        if self.real_sub.dim != len(real_rows):
            raise InputError("real basis rows are linearly dependent")

        self.isotropy_real = span(self.ambient_real, complex_rows_realified(isotropy_rows))
        self.isotropy_generators = complex_generators(self.isotropy_real)
        if not is_subalgebra(self.ambient_real, self.isotropy_real, self.isotropy_generators):
            raise StructureError("isotropy rows are not a complex subalgebra")
        if not is_subalgebra(self.ambient_real, self.real_sub):
            raise StructureError("real rows are not a subalgebra")

        if real_algebra is None:
            real_algebra, self._solver = subalgebra_structure(self.ambient_real, self.real_sub)
            self.real_rows = self.real_sub.rows
            self.real_vectors = list(self.real_sub.echelon.values())
        else:
            if real_algebra.dim != len(self.real_rows):
                raise InputError("real_algebra dimension does not match basis rows")
            self.real_vectors = [sparse(r) for r in self.real_rows]
            self._solver = Solver(self.real_vectors)
            self._validate_alignment(real_algebra)
        self.real_algebra = real_algebra

        # genericity: g + Jg must span the realified ambient
        n = ambient.dim
        jg = sparse_span(self.ambient_real, [j_apply(v, n) for v in self.real_vectors])
        if add_spaces(self.real_sub, jg).dim != n2:
            raise StructureError("real subalgebra is not generic: g + Jg is proper")

        self.h = intersect(self.real_sub, self.isotropy_real)
        self.m = self._maximal_complex_ideal(jg)
        self.codim = (n2 - self.isotropy_real.dim) - (self.real_sub.dim - self.h.dim)
        if self.codim < 0:
            raise InternalError("negative codimension from orbit data")
        self.caveats = (
            "group components are invisible: discreteness is reported as dim = 0",
        )

    # -- validation ---------------------------------------------------------

    def _validate_alignment(self, real_algebra):
        # brackets of the aligned rows must reproduce real_algebra's constants,
        # checked on every pair
        solver = self._solver
        rows = self.real_vectors
        for i in range(real_algebra.dim):
            for j in range(i + 1, real_algebra.dim):
                coeffs = solver.solve(self.ambient_real.bracket(rows[i], rows[j]))
                if coeffs is None:
                    raise InternalError("aligned rows do not close under the bracket")
                if coeffs != real_algebra.basis_bracket(i, j):
                    raise InternalError("real_algebra is not aligned with its rows")

    def _maximal_complex_ideal(self, jg):
        m = intersect(self.real_sub, jg)
        n = self.ambient.dim
        for v in m.echelon.values():
            if not m.contains(j_apply(v, n)):
                raise InternalError("g ∩ Jg is not J-stable")
        # m is J-stable, so [x, J v] = J [x, v] needs no separate check
        for x in self.real_sub.echelon.values():
            for v in complex_generators(m):
                if not m.contains(self.ambient_real.bracket(x, v)):
                    raise InternalError("g ∩ Jg is not an ideal of g")
        return m

    @cached_property
    def isotropy_rows(self):
        return canonical_complex_rows(self.isotropy_real)


def max_complex_ideal(model: OrbitModel) -> Subspace:
    """m = g ∩ Jg, the largest complex (J-stable) ideal of the real subalgebra."""
    return model.m


def cr_normalizer_algebra(model: OrbitModel) -> Subspace:
    """{xi in g : [xi, isotropy] <= isotropy}, as a subspace of the realification.

    This is the infinitesimal stabilizer of the complex isotropy algebra,
    the identity-component data of the fibration base group.  It contains
    h and sits inside the infinitesimal normalizer of h; both containments
    are rechecked here.  The isotropy condition is imposed on its complex
    generators only: [xi, J u] = J [xi, u] and the isotropy is J-stable.
    """
    L, g, h = model.ambient_real, model.real_vectors, model.h

    def normalizer_in_g(s, rows):
        images = [[s.reduce(L.bracket(v, u)) for u in rows] for v in g]
        return Subspace.from_echelon(L, kernel_rows(g, images))

    ncr = normalizer_in_g(model.isotropy_real, model.isotropy_generators)
    if not ncr.contains_space(h):
        raise InternalError("CR-normalizer does not contain h")
    if not normalizer_in_g(h, h.echelon.values()).contains_space(ncr):
        raise InternalError("CR-normalizer exceeds the normalizer of h")
    return ncr


@dataclass
class FibrationReport:
    """Lie-algebra level data of the anticanonical fibration of an orbit model."""

    normalizer: Subspace
    fiber_algebra: LieAlgebra
    fiber_dim: int
    base_dim: int
    h_dim: int
    degenerate: bool
    isotropy_discrete_proxy: bool | None
    caveats: tuple

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
    j_sub, j_solver = subalgebra_structure(model.ambient_real, j)
    if j.dim:
        h_in_j = sparse_span(j_sub, [j_solver.solve(v) for v in model.h.echelon.values()])
        fiber, _ = quotient_algebra(j_sub, h_in_j)
    else:
        fiber = j_sub
    proxy = (model.h.dim == 0) if degenerate else None
    return FibrationReport(
        normalizer=j,
        fiber_algebra=fiber,
        fiber_dim=fiber.dim,
        base_dim=model.real_sub.dim - j.dim,
        h_dim=model.h.dim,
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

    dim_m = model.m.dim // 2  # m is J-stable: checked on construction
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

def _extended_real_basis(model: OrbitModel):
    """The aligned real basis, then each isotropy row outside the span of the rows before it."""
    rows = [*model.real_vectors, *model.isotropy_real.echelon.values()]
    return [rows[k] for k in independent_rows(rows)]


def induced_cr_pair(model: OrbitModel) -> CRPair:
    """The invariant CR pair the embedding induces on the real subalgebra.

    R is the preimage of the complex part of the tangent space:
    {xi in g : J xi in g + isotropy}; J lifts multiplication by i modulo
    the isotropy algebra.
    """
    g = model.real_algebra
    nc = model.ambient.dim
    extended = _extended_real_basis(model)
    big = sparse_span(model.ambient_real, extended)
    images = [(big.reduce(j_apply(v, nc)),) for v in model.real_vectors]
    units = [{a: 1} for a in range(g.dim)]
    r_sub = Subspace.from_echelon(g, kernel_rows(units, images))
    h_sub = sparse_span(g, [model._solver.solve(v) for v in model.h.echelon.values()])

    solver = Solver(extended)

    n = g.dim
    j_columns = {}
    for a, e in enumerate(units):
        # project e_a onto R along the pivot-free complement
        proj = vec_sub(e, r_sub.reduce(e))
        if not proj:
            continue
        (v,) = combine_rows([proj], model.real_vectors)
        img = solver.solve(j_apply(v, nc))
        if img is None:
            raise InternalError("J image escaped g + isotropy on R")
        # the coefficients past n belong to isotropy rows: J is taken mod isotropy
        col = {k: x for k, x in img.items() if k < n}
        if col:
            j_columns[a] = col
    return CRPair(g, h_sub, r_sub, j_columns)


# ---------------------------------------------------------------------------
# products and perturbations
# ---------------------------------------------------------------------------

def _pad_real_row(row, n_left, n_right, placement):
    """Re-place a realified row of one factor into product realified coords."""
    n = len(row) // 2
    total = n_left + n_right
    out = [F(0)] * (2 * total)
    off = 0 if placement == "left" else n_left
    for k in range(n):
        out[off + k] = row[k]
        out[total + off + k] = row[n + k]
    return tuple(out)


def product_model(a: OrbitModel, b: OrbitModel, name="") -> OrbitModel:
    """Direct product of two orbit models."""
    ambient = direct_sum(a.ambient, b.ambient)
    na, nb = a.ambient.dim, b.ambient.dim
    real_rows = [_pad_real_row(r, na, nb, "left") for r in a.real_rows]
    real_rows += [_pad_real_row(r, na, nb, "right") for r in b.real_rows]
    iso = [_pad_real_row(r, na, nb, "left") for r in a.isotropy_real.rows]
    iso += [_pad_real_row(r, na, nb, "right") for r in b.isotropy_real.rows]
    iso = canonical_complex_rows(span(realify(ambient), iso))
    real_algebra = direct_sum(a.real_algebra, b.real_algebra)
    return OrbitModel(ambient, real_rows, iso, real_algebra=real_algebra, name=name)


def nilpotent_automorphism(L: LieAlgebra, x):
    """exp(ad x) as a dim x dim matrix, for ad-nilpotent x; exact over the field."""
    n = L.dim
    one = L.one
    zero = L.zero
    mat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    x = sparse(x)
    term = [{j: one} for j in range(n)]  # columns (ad x)^k e_j, sparse
    k = 0
    factorial = 1
    while True:
        k += 1
        factorial *= k
        term = [L.bracket(x, col) for col in term]
        if not any(term):
            break
        if k > n:
            raise InputError("exp(ad x) requires an ad-nilpotent element")
        inv = F(1, factorial)
        for j, col in enumerate(term):
            for i, c in col.items():
                mat[i][j] = mat[i][j] + c * inv
    return tuple(tuple(r) for r in mat)


def apply_complex_matrix_to_model(model: OrbitModel, matrix, name="") -> OrbitModel:
    """Transport an orbit model by a complex-linear ambient automorphism.

    The matrix acts on realified rows as [[Re, -Im], [Im, Re]], over Q.
    """
    re = [[real_part(x) for x in row] for row in matrix]
    im = [[imag_part(x) for x in row] for row in matrix]
    act = [a + [-x for x in b] for a, b in zip(re, im)] + [b + a for a, b in zip(re, im)]
    real_rows = [matvec(act, v) for v in model.real_rows]
    iso = span(model.ambient_real, [matvec(act, v) for v in model.isotropy_real.rows])
    return OrbitModel(
        model.ambient,
        real_rows,
        canonical_complex_rows(iso),
        real_algebra=model.real_algebra,
        name=name or model.name,
    )
