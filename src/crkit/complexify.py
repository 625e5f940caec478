"""Complexified algebras, realifications, orbit models and their fibration data.

An orbit model packages a complex ambient algebra, a real subalgebra of
its realification and a complex isotropy subalgebra: the infinitesimal
data of a real-group orbit inside a complex homogeneous space.  All of
the derived geometry here (maximal complex ideal, CR-normalizer,
anticanonical fibration, globalization preconditions) reduces to exact
subspace computations over Q in the realified ambient, where a complex
subspace is a J-stable real one.  Q(i) appears only where complex data
enters or leaves: the ambient's structure constants and the canonical
complex isotropy rows (as files and the catalog supply them and
orbit_payload writes them), and the transports product_model and
apply_complex_matrix_to_model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    LieAlgebra,
    Subspace,
    add_spaces,
    direct_sum,
    intersect,
    is_subalgebra,
    quotient_algebra,
    radical,
    span,
    subalgebra_structure,
)
from .cr import CRPair
from .errors import InputError, InternalError, StructureError
from .linalg import (
    Solver,
    combine_rows,
    independent_rows,
    rref,
    solve_condition_coefficients,
)
from .report import Check, Report
from .scalars import QI, QQ, GaussianRational, compact, is_zero, to_gaussian

F = Fraction


# ---------------------------------------------------------------------------
# scalar extension and realification
# ---------------------------------------------------------------------------

def complexify_algebra(L: LieAlgebra) -> LieAlgebra:
    """Scalar extension Q -> Q(i) with the same structure constants."""
    if L.field != QQ:
        raise InputError("complexify_algebra expects a real (Q) algebra")
    brackets = {
        key: {k: to_gaussian(v) for k, v in row.items()}
        for key, row in L.brackets.items()
    }
    return LieAlgebra(L.dim, QI, L.names, brackets)


def realify(L: LieAlgebra) -> LieAlgebra:
    """Realification of a complex algebra on the basis (e_1..e_N, i e_1..i e_N).

    Kept on L once built, so it lives exactly as long as L does.
    """
    if L.field != QI:
        raise InputError("realify expects a complex (Q_i) algebra")
    cached = getattr(L, "_realified", None)
    if cached is not None:
        return cached
    n = L.dim
    brackets = {}

    def put(i, j, row):
        if i == j:
            return
        if i > j:
            i, j = j, i
            row = {k: -v for k, v in row.items()}
        if row:
            merged = brackets.setdefault((i, j), {})
            merged.update(row)

    for (a, b), row in L.brackets.items():
        re_row, im_row = {}, {}
        for k, c in row.items():
            g = to_gaussian(c)
            if g.re:
                re_row[k] = g.re
                im_row[n + k] = g.re
            if g.im:
                re_row[n + k] = g.im
                im_row[k] = -g.im
        # [e_a, e_b]
        put(a, b, dict(re_row))
        # [f_a, f_b] = -[e_a, e_b]
        put(n + a, n + b, {k: -v for k, v in re_row.items()})
        # [e_a, f_b] = i [e_a, e_b] and [e_b, f_a] = -i [e_a, e_b]
        put(a, n + b, dict(im_row))
        put(b, n + a, {k: -v for k, v in im_row.items()})
    names = list(L.names) + [f"i*{x}" for x in L.names]
    out = LieAlgebra(2 * n, QQ, names, brackets)
    L._realified = out
    return out


def j_apply(v):
    """Multiplication by i in realified coordinates."""
    n = len(v) // 2
    return tuple(-v[n + k] for k in range(n)) + tuple(v[k] for k in range(n))


def real_to_complex(v):
    n = len(v) // 2
    return tuple(GaussianRational(v[k], v[n + k]) for k in range(n))


def complex_to_real(z):
    re = tuple(to_gaussian(c).re for c in z)
    im = tuple(to_gaussian(c).im for c in z)
    return re + im


def complex_rows_realified(rows):
    """Realified spanning rows of a complex row space: v and iv per row."""
    out = []
    for z in rows:
        v = complex_to_real(z)
        out.append(v)
        out.append(j_apply(v))
    return out


@dataclass(frozen=True)
class Complexification:
    """A real algebra together with its scalar extension and realified model."""

    g_real: LieAlgebra
    g_hat: LieAlgebra
    realified: LieAlgebra


def complexify(L: LieAlgebra) -> Complexification:
    g_hat = complexify_algebra(L)
    return Complexification(L, g_hat, realify(g_hat))


# ---------------------------------------------------------------------------
# orbit models
# ---------------------------------------------------------------------------

class OrbitModel:
    """Infinitesimal model of a real orbit in a complex homogeneous space.

    ambient        complex algebra of the big group
    ambient_real   its realification, where all derived geometry lives
    real_rows      basis of the real subalgebra in realified coordinates,
                   aligned with real_algebra's basis when one is supplied
    isotropy_rows  complex basis of the isotropy subalgebra (canonical),
                   kept for output; isotropy_real is its realified span

    Derived on construction, as subspaces of ambient_real over Q:
    h = g ∩ ĥ, the maximal complex ideal m = g ∩ Jg (verified to be a
    J-stable ideal), the codimension, and the genericity property
    g + Jg = ambient (a structural requirement).  A complex subspace is
    represented by its J-stable realification, so closure under the
    complex bracket is checked as closure under the realified one.
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

        self.isotropy_rows = rref(isotropy_rows)[0]
        self.isotropy_real = span(
            self.ambient_real, complex_rows_realified(self.isotropy_rows)
        )
        if not is_subalgebra(self.ambient_real, self.isotropy_real):
            raise StructureError("isotropy rows are not a complex subalgebra")
        if not is_subalgebra(self.ambient_real, self.real_sub):
            raise StructureError("real rows are not a subalgebra")

        if real_algebra is None:
            real_algebra, self._solver = subalgebra_structure(self.ambient_real, self.real_sub)
            self.real_rows = self.real_sub.rows
        else:
            if real_algebra.dim != len(self.real_rows):
                raise InputError("real_algebra dimension does not match basis rows")
            self._solver = Solver(self.real_rows)
            self._validate_alignment(real_algebra)
        self.real_algebra = real_algebra

        # genericity: g + Jg must span the realified ambient
        jg = span(self.ambient_real, [j_apply(v) for v in self.real_rows])
        if add_spaces(self.real_sub, jg).dim != n2:
            raise StructureError("real subalgebra is not generic: g + Jg is proper")

        self.h = intersect(self.real_sub, self.isotropy_real)
        self.m = self._maximal_complex_ideal(jg)
        self.codim = (
            2 * (self.ambient.dim - len(self.isotropy_rows))
            - (self.real_sub.dim - self.h.dim)
        )
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
        n = real_algebra.dim
        for i in range(n):
            for j in range(i + 1, n):
                v = self.ambient_real.bracket(self.real_rows[i], self.real_rows[j])
                coeffs = solver.solve(v)
                if coeffs is None:
                    raise InternalError("aligned rows do not close under the bracket")
                expect = {k: c for k, c in enumerate(coeffs) if not is_zero(c)}
                if expect != real_algebra.basis_bracket(i, j):
                    raise InternalError("real_algebra is not aligned with its rows")

    def _maximal_complex_ideal(self, jg):
        m = intersect(self.real_sub, jg)
        for v in m.rows:
            if not m.contains(j_apply(v)):
                raise InternalError("g ∩ Jg is not J-stable")
        for x in self.real_sub.rows:
            for v in m.rows:
                if not m.contains(self.ambient_real.bracket(x, v)):
                    raise InternalError("g ∩ Jg is not an ideal of g")
        return m

    # -- conversions --------------------------------------------------------

    def to_algebra_coords(self, ambient_vector):
        coeffs = self._solver.solve(ambient_vector)
        if coeffs is None:
            raise InternalError("vector is not in the real subalgebra")
        return coeffs

    def subspace_in_algebra_coords(self, sub: Subspace):
        rows = [self.to_algebra_coords(v) for v in sub.rows]
        return span(self.real_algebra, rows)

    def algebra_to_ambient(self, coeffs):
        v = [F(0)] * self.ambient_real.dim
        for c, row in zip(coeffs, self.real_rows):
            if not is_zero(c):
                for t, x in enumerate(row):
                    if not is_zero(x):
                        v[t] += c * x
        return tuple(v)


def max_complex_ideal(model: OrbitModel) -> Subspace:
    """m = g ∩ Jg, the largest complex (J-stable) ideal of the real subalgebra."""
    return model.m


def cr_normalizer_algebra(model: OrbitModel) -> Subspace:
    """{xi in g : [xi, isotropy] <= isotropy}, as a subspace of the realification.

    This is the infinitesimal stabilizer of the complex isotropy algebra,
    the identity-component data of the fibration base group.  It contains
    h and sits inside the infinitesimal normalizer of h; both containments
    are rechecked here.
    """
    iso = model.isotropy_real

    def residual(v):
        return [iso.reduce(model.ambient_real.bracket(v, u)) for u in iso.rows]

    coeffs = solve_condition_coefficients(list(model.real_rows), residual)
    ncr = span(model.ambient_real, combine_rows(coeffs, list(model.real_rows)))

    if not ncr.contains_space(model.h):
        raise InternalError("CR-normalizer does not contain h")
    h = model.h

    def h_residual(v):
        return [h.reduce(model.ambient_real.bracket(v, u)) for u in h.rows]

    ncoeffs = solve_condition_coefficients(list(model.real_rows), h_residual)
    nh = span(model.ambient_real, combine_rows(ncoeffs, list(model.real_rows)))
    if not nh.contains_space(ncr):
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
        h_in_j = span(j_sub, [j_solver.solve(v) for v in model.h.rows])
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
    r_mapped = span(
        model.ambient_real,
        [model.algebra_to_ambient(c) for c in r_abstract.rows],
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
    rows = list(model.real_rows) + list(model.isotropy_real.rows)
    return [rows[k] for k in independent_rows(rows)]


def induced_cr_pair(model: OrbitModel) -> CRPair:
    """The invariant CR pair the embedding induces on the real subalgebra.

    R is the preimage of the complex part of the tangent space:
    {xi in g : J xi in g + isotropy}; J lifts multiplication by i modulo
    the isotropy algebra.
    """
    g = model.real_algebra
    big = span(
        model.ambient_real, list(model.real_rows) + list(model.isotropy_real.rows)
    )

    def residual(v):
        return [big.reduce(j_apply(v))]

    r_coeffs = solve_condition_coefficients(list(model.real_rows), residual)
    r_rows = rref(r_coeffs)[0]
    r_sub = span(g, r_rows)
    h_sub = model.subspace_in_algebra_coords(model.h)

    solver = Solver(_extended_real_basis(model))
    ng = len(model.real_rows)

    def j_image(coeffs_in_g):
        v = model.algebra_to_ambient(coeffs_in_g)
        sol = solver.solve(j_apply(v))
        if sol is None:
            raise InternalError("J image escaped g + isotropy on R")
        return sol[:ng]

    n = g.dim
    jmat = [[F(0)] * n for _ in range(n)]
    for a in range(n):
        e = g.basis_vector(a)
        residual_e = r_sub.reduce(e)
        proj = tuple(p - q for p, q in zip(e, residual_e))
        if all(is_zero(x) for x in proj):
            continue
        img = j_image(proj)
        for k in range(n):
            jmat[k][a] = img[k]
    return CRPair(g, h_sub, r_sub, tuple(tuple(r) for r in jmat))


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
    zero_b = (GaussianRational(0),) * nb
    zero_a = (GaussianRational(0),) * na
    iso = [tuple(z) + zero_b for z in a.isotropy_rows]
    iso += [zero_a + tuple(z) for z in b.isotropy_rows]
    real_algebra = direct_sum(a.real_algebra, b.real_algebra)
    return OrbitModel(ambient, real_rows, iso, real_algebra=real_algebra, name=name)


def nilpotent_automorphism(L: LieAlgebra, x):
    """exp(ad x) as a dim x dim matrix, for ad-nilpotent x; exact over the field."""
    n = L.dim
    one = L.one
    zero = L.zero
    mat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    term = [list(L.basis_vector(j)) for j in range(n)]  # columns as vectors
    k = 0
    factorial = 1
    while True:
        k += 1
        factorial *= k
        term = [list(L.bracket(x, tuple(col))) for col in term]
        if all(all(is_zero(c) for c in col) for col in term):
            break
        if k > n:
            raise InputError("exp(ad x) requires an ad-nilpotent element")
        inv = F(1, factorial)
        for j in range(n):
            for i in range(n):
                mat[i][j] = mat[i][j] + term[j][i] * inv
    return tuple(tuple(r) for r in mat)


def apply_complex_matrix_to_model(model: OrbitModel, matrix, name="") -> OrbitModel:
    """Transport an orbit model by a complex-linear ambient automorphism."""
    n = model.ambient.dim

    def act_complex(z):
        return tuple(
            sum((matrix[i][j] * z[j] for j in range(n)), GaussianRational(0))
            for i in range(n)
        )

    iso = [act_complex(z) for z in model.isotropy_rows]
    real_rows = [
        complex_to_real(act_complex(real_to_complex(v))) for v in model.real_rows
    ]
    return OrbitModel(
        model.ambient,
        real_rows,
        iso,
        real_algebra=model.real_algebra,
        name=name or model.name,
    )
