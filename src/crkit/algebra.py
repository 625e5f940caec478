"""Structure-constant Lie algebras over Q and Q(i) and their standard anatomy.

An algebra is a sparse rank-3 tensor: brackets[(i, j)][k] holds the
coefficient of e_k in [e_i, e_j] for i < j; antisymmetry supplies the
rest.  Derived objects (series, radical, normalizers, quotients) all come
back as canonical echelon subspaces so results compare syntactically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, StructureError
from .linalg import (
    Solver,
    coefficients_in_span,
    in_span,
    intersect_spaces,
    is_zero_vec,
    rank,
    reduce_mod,
    rref,
    signature_of_symmetric,
    solve_linear_conditions,
    sparse_echelon,
)
from .scalars import QI, QQ, compact, field_one, field_zero, is_zero


class LieAlgebra:
    """A finite-dimensional Lie algebra given by structure constants.

    Immutable after construction; all operations are pure functions of the
    stored tensor, so instances are safe to share across threads.
    """

    def __init__(self, dim, field, names, brackets, check=False):
        if field not in (QQ, QI):
            raise InputError(f"unknown scalar field {field!r}")
        if len(names) != dim:
            raise InputError("basis name count does not match dimension")
        self.dim = dim
        self.field = field
        self.names = tuple(names)
        table = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < j < dim):
                raise InputError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            cleaned = {k: compact(v) for k, v in row.items() if not is_zero(v)}
            for k in cleaned:
                if not 0 <= k < dim:
                    raise InputError(f"bracket target index {k} out of range")
            if cleaned:
                table[(i, j)] = cleaned
        self.brackets = table
        # plain ints are exact and fast over Q; Q(i) keeps boxed scalars
        self.zero = 0 if field == QQ else field_zero(field)
        self.one = 1 if field == QQ else field_one(field)
        if check:
            rep = validate(self)
            if not rep.ok:
                raise StructureError(f"structure constants invalid: {rep.summary()}")

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, field={self.field!r})"

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.field == other.field
            and self.brackets == other.brackets
        )

    def __hash__(self):
        return hash((self.dim, self.field, len(self.brackets)))

    def structure_constant(self, i, j, k):
        if i == j:
            return self.zero
        if i < j:
            return self.brackets.get((i, j), {}).get(k, self.zero)
        return -self.brackets.get((j, i), {}).get(k, self.zero)

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a sparse dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    @property
    def _adjacency(self):
        # per-index view of the tensor: adj[i] lists (j, sign, row) with
        # [e_i, e_j] = sign * row; built lazily, never mutated afterwards
        adj = getattr(self, "_adj_cache", None)
        if adj is None:
            adj = {}
            for (i, j), row in self.brackets.items():
                adj.setdefault(i, []).append((j, 1, row))
                adj.setdefault(j, []).append((i, -1, row))
            self._adj_cache = adj
        return adj

    def bracket(self, x, y):
        """[x, y] for dense coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("bracket: vector length does not match dimension")
        adj = self._adjacency
        acc = {}
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, sign, row in adj.get(i, ()):
                yj = y[j]
                if not yj:
                    continue
                c = xi * yj if sign > 0 else -(xi * yj)
                for k, v in row.items():
                    acc[k] = acc.get(k, self.zero) + c * v
        out = [self.zero] * self.dim
        for k, v in acc.items():
            out[k] = v
        return tuple(out)

    def ad(self, x):
        """ad_x as a sparse column map {j: {k: coeff}} with ad_x(e_j) = sum coeff e_k."""
        cols = {}
        for (i, j), row in self.brackets.items():
            if x[i]:
                col = cols.setdefault(j, {})
                for k, v in row.items():
                    col[k] = col.get(k, self.zero) + x[i] * v
            if x[j]:
                col = cols.setdefault(i, {})
                for k, v in row.items():
                    col[k] = col.get(k, self.zero) - x[j] * v
        return cols

    def basis_vector(self, i):
        v = [self.zero] * self.dim
        v[i] = self.one
        return tuple(v)

    def basis_vectors(self):
        return tuple(self.basis_vector(i) for i in range(self.dim))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of a LieAlgebra, canonically in reduced echelon form."""

    parent: LieAlgebra
    rows: tuple
    pivots: tuple

    @staticmethod
    def from_rows(parent, rows):
        for r in rows:
            if len(r) != parent.dim:
                raise InputError("subspace row length does not match algebra dimension")
        reduced, pivots = rref(rows)
        return Subspace(parent, reduced, pivots)

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def _echelon(self):
        # sparse view of the rows, built on the first reduction against them
        return sparse_echelon(self.rows, self.pivots)

    def contains(self, v):
        return in_span(v, self._echelon, self.pivots)

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def reduce(self, v):
        return reduce_mod(v, self._echelon, self.pivots)

    def coefficients(self, v):
        return coefficients_in_span(v, self._echelon, self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.parent == other.parent and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


def full_space(L):
    return Subspace(L, L.basis_vectors(), tuple(range(L.dim)))


def zero_space(L):
    return Subspace(L, (), ())


def span(L, vectors):
    return Subspace.from_rows(L, vectors)


def intersect(a, b):
    _same_parent(a, b)
    rows = intersect_spaces(a.rows, b.rows)
    return Subspace(a.parent, rows, rref(rows)[1])


def add_spaces(a, b):
    _same_parent(a, b)
    rows, pivots = rref(list(a.rows) + list(b.rows))
    return Subspace(a.parent, rows, pivots)


def _same_parent(a, b):
    if a.parent != b.parent:
        raise InputError("subspaces belong to different algebras")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    antisymmetry_ok: bool
    jacobi_ok: bool
    antisymmetry_witness: tuple | None = None
    jacobi_witness: tuple | None = None

    @property
    def ok(self):
        return self.antisymmetry_ok and self.jacobi_ok

    def summary(self):
        if self.ok:
            return "antisymmetry ok, jacobi ok"
        parts = []
        if not self.antisymmetry_ok:
            parts.append(f"antisymmetry fails at {self.antisymmetry_witness}")
        if not self.jacobi_ok:
            parts.append(f"jacobi fails at triple {self.jacobi_witness}")
        return "; ".join(parts)


def validate(L, jacobi_triples=None):
    """Check antisymmetry and the Jacobi identity.

    The stored i < j representation is antisymmetric by construction, so
    antisymmetry can only fail for tensors supplied as fully explicit
    c[i][j][k] data; validate_tensor covers that path.  Jacobi is checked
    on all i < j < k triples, or on the supplied triples.
    """
    if jacobi_triples is None:
        jacobi_triples = (
            (i, j, k)
            for i in range(L.dim)
            for j in range(i + 1, L.dim)
            for k in range(j + 1, L.dim)
        )
    witness = None
    for (i, j, k) in jacobi_triples:
        if not _jacobi_holds(L, i, j, k):
            witness = (i, j, k)
            break
    return ValidationReport(True, witness is None, None, witness)


def _jacobi_holds(L, i, j, k):
    # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0
    acc = {}
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for l, coeff in L.basis_bracket(a, b).items():
            for m, d in L.basis_bracket(l, c).items():
                acc[m] = acc.get(m, L.zero) + coeff * d
    return all(is_zero(v) for v in acc.values())


def validate_tensor(dim, field, tensor):
    """Validate a dense c[i][j][k] tensor: antisymmetry first, then Jacobi.

    Returns a ValidationReport; the first violating index triple is the
    witness.  Use this for raw external data, before building a LieAlgebra.
    """
    zero = field_zero(field)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if tensor[i][j][k] != -tensor[j][i][k]:
                    return ValidationReport(False, True, (i, j, k), None)
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            row = {k: tensor[i][j][k] for k in range(dim) if not is_zero(tensor[i][j][k])}
            if row:
                brackets[(i, j)] = row
    L = LieAlgebra(dim, field, [f"e{t}" for t in range(dim)], brackets)
    rep = validate(L)
    return ValidationReport(True, rep.jacobi_ok, None, rep.jacobi_witness)


# ---------------------------------------------------------------------------
# series, killing form, radical
# ---------------------------------------------------------------------------

def product_space(L, a, b):
    """Span of [A, B] for subspaces A, B."""
    vecs = []
    for x in a.rows:
        for y in b.rows:
            v = L.bracket(x, y)
            if not is_zero_vec(v):
                vecs.append(v)
    return Subspace.from_rows(L, vecs)


def derived_subalgebra(L):
    rows = []
    for (i, j), row in L.brackets.items():
        v = [L.zero] * L.dim
        for k, c in row.items():
            v[k] = c
        rows.append(tuple(v))
    return Subspace.from_rows(L, rows)


def derived_series(L):
    """[g, g^(k)] chain with g^(k+1) = [g^(k), g^(k)], until it stabilizes."""
    series = [full_space(L)]
    current = derived_subalgebra(L)
    while current.rows != series[-1].rows:
        series.append(current)
        current = product_space(L, current, current)
    return series


def lower_central_series(L):
    """g^{k+1} = [g, g^k], until it stabilizes."""
    g = full_space(L)
    series = [g]
    current = derived_subalgebra(L)
    while current.rows != series[-1].rows:
        series.append(current)
        current = product_space(L, g, current)
    return series


def is_solvable(L):
    return derived_series(L)[-1].dim == 0


def is_nilpotent(L):
    return lower_central_series(L)[-1].dim == 0


def is_abelian(L):
    return not L.brackets


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear (or sesquilinear) form on an algebra, stored densely."""

    parent: LieAlgebra
    matrix: tuple
    symmetry: str  # symmetric | antisymmetric | hermitian

    def __post_init__(self):
        n = self.parent.dim
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("form matrix shape does not match algebra dimension")
        for i in range(n):
            for j in range(n):
                a, b = self.matrix[i][j], self.matrix[j][i]
                if self.symmetry == "symmetric" and a != b:
                    raise InputError(f"form not symmetric at ({i}, {j})")
                if self.symmetry == "antisymmetric" and a != -b:
                    raise InputError(f"form not antisymmetric at ({i}, {j})")
                if self.symmetry == "hermitian":
                    from .scalars import conj

                    if a != conj(b):
                        raise InputError(f"form not hermitian at ({i}, {j})")

    def evaluate(self, x, y):
        acc = self.parent.zero
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            row = self.matrix[i]
            for j, yj in enumerate(y):
                if not is_zero(yj):
                    acc = acc + xi * row[j] * yj
        return acc


def killing_form(L):
    """kappa(x, y) = trace(ad x . ad y) on basis pairs."""
    ads = [L.ad(L.basis_vector(i)) for i in range(L.dim)]
    n = L.dim
    mat = [[L.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = L.zero
            adj = ads[j]
            adi = ads[i]
            for a, col in adj.items():
                for b, c in col.items():
                    back = adi.get(b)
                    if back:
                        d = back.get(a)
                        if d is not None:
                            acc = acc + c * d
            mat[i][j] = acc
            mat[j][i] = acc
    return BilinearForm(L, tuple(tuple(r) for r in mat), "symmetric")


def radical(L):
    """Maximal solvable ideal, by the Cartan criterion.

    r = {x : kappa(x, y) = 0 for every y in [g, g]} over a field of
    characteristic zero.
    """
    kappa = killing_form(L)
    derived = derived_subalgebra(L)
    if derived.dim == 0:
        return full_space(L)

    def residual(v):
        out = []
        for d in derived.rows:
            out.append((kappa.evaluate(v, d),))
        return out

    rows = solve_linear_conditions(list(full_space(L).rows), residual)
    return Subspace.from_rows(L, rows)


# ---------------------------------------------------------------------------
# subalgebra / ideal machinery
# ---------------------------------------------------------------------------

def is_subalgebra(L, s):
    for a in range(s.dim):
        for b in range(a + 1, s.dim):
            if not s.contains(L.bracket(s.rows[a], s.rows[b])):
                return False
    return True


def is_ideal(L, s):
    """[g, S] inside S."""
    for e in L.basis_vectors():
        for v in s.rows:
            if not s.contains(L.bracket(e, v)):
                return False
    return True


def subalgebra_closure(L, s):
    """Smallest subalgebra containing s: iterate span-and-bracket to a fixed point."""
    current = Subspace.from_rows(L, s.rows)
    while True:
        new_rows = list(current.rows)
        for a in range(current.dim):
            for b in range(a + 1, current.dim):
                v = L.bracket(current.rows[a], current.rows[b])
                if not current.contains(v):
                    new_rows.append(v)
        nxt = Subspace.from_rows(L, new_rows)
        if nxt.dim == current.dim:
            return current
        current = nxt


def centralizer(L, s):
    """{x : [x, s] = 0 for all s in S}."""

    def residual(v):
        return [L.bracket(v, w) for w in s.rows]

    rows = solve_linear_conditions(list(full_space(L).rows), residual)
    return Subspace.from_rows(L, rows)


def normalizer_subalgebra(L, s):
    """{x : [x, S] inside S}; the infinitesimal stabilizer of the subspace."""

    def residual(v):
        return [s.reduce(L.bracket(v, w)) for w in s.rows]

    rows = solve_linear_conditions(list(full_space(L).rows), residual)
    return Subspace.from_rows(L, rows)


def subalgebra_structure(L, s, names=None):
    """Abstract algebra on the basis rows of a subalgebra s, plus its Solver.

    Raises StructureError if s is not closed under the bracket.
    """
    if s.dim == 0:
        return LieAlgebra(0, L.field, (), {}), None
    solver = Solver(s.rows)
    brackets = {}
    for a in range(s.dim):
        for b in range(a + 1, s.dim):
            v = L.bracket(s.rows[a], s.rows[b])
            coeffs = solver.solve(v)
            if coeffs is None:
                raise StructureError("subspace is not closed under the bracket")
            row = {k: c for k, c in enumerate(coeffs) if not is_zero(c)}
            if row:
                brackets[(a, b)] = row
    if names is None:
        names = tuple(f"s{k}" for k in range(s.dim))
    return LieAlgebra(s.dim, L.field, names, brackets), solver


def quotient_algebra(L, ideal, names=None):
    """Quotient by an ideal, on the explicit pivot-free complement basis.

    Returns (algebra, complement_indices).  Coordinates of the quotient are
    the non-pivot coordinates of the ideal's echelon form, so the quotient
    map is literally "reduce and read off the complement entries".
    """
    if not is_ideal(L, ideal):
        raise StructureError("quotient requires an ideal")
    pivots = set(ideal.pivots)
    comp = [i for i in range(L.dim) if i not in pivots]
    k = len(comp)

    def project(v):
        red = ideal.reduce(v)
        return tuple(red[i] for i in comp)

    brackets = {}
    for a in range(k):
        for b in range(a + 1, k):
            v = L.bracket(L.basis_vector(comp[a]), L.basis_vector(comp[b]))
            red = project(v)
            row = {t: c for t, c in enumerate(red) if not is_zero(c)}
            if row:
                brackets[(a, b)] = row
    if names is None:
        names = tuple(L.names[i] for i in comp)
    return LieAlgebra(k, L.field, names, brackets), tuple(comp)


def verify_levi_complement(L, s):
    """True iff s is a semisimple complement to the radical.

    Checks: subalgebra, trivial intersection with the radical, spanning
    together with the radical, and nondegenerate restricted Killing form.
    """
    if not is_subalgebra(L, s):
        return False
    r = radical(L)
    if intersect(s, r).dim != 0:
        return False
    if add_spaces(s, r).dim != L.dim:
        return False
    if s.dim == 0:
        return True
    sub, _ = subalgebra_structure(L, s)
    kappa = killing_form(sub)
    return rank(kappa.matrix) == sub.dim


def killing_signature(L):
    """Inertia of the Killing form; only defined over Q."""
    if L.field != QQ:
        raise InputError("killing_signature needs a real (Q) algebra")
    return signature_of_symmetric(killing_form(L).matrix)


def is_compact_type(L):
    """Reductive with negative-definite Killing form on the derived algebra.

    This is the structure-constant shadow of "compact group": centre plus
    a compact semisimple part.
    """
    if L.field != QQ:
        raise InputError("is_compact_type needs a real (Q) algebra")
    r = radical(L)
    if product_space(L, full_space(L), r).dim != 0:
        return False
    d = derived_subalgebra(L)
    if d.dim == 0:
        return True
    sub, _ = subalgebra_structure(L, d)
    pos, neg, zero = killing_signature(sub)
    return pos == 0 and zero == 0


# ---------------------------------------------------------------------------
# stock constructors
# ---------------------------------------------------------------------------

def abelian(n, field=QQ):
    return LieAlgebra(n, field, tuple(f"a{i}" for i in range(n)), {})


def heisenberg(field=QQ):
    """3-dimensional Heisenberg algebra: [x, y] = z."""
    one = field_one(field)
    return LieAlgebra(3, field, ("x", "y", "z"), {(0, 1): {2: one}})


def sl2(field=QQ):
    """sl_2 with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    one = field_one(field)
    two = one + one
    return LieAlgebra(
        3,
        field,
        ("h", "e", "f"),
        {(0, 1): {1: two}, (0, 2): {2: -two}, (1, 2): {0: one}},
    )


def direct_sum(*algebras, names=None):
    """Direct sum with block-shifted indices; fields must agree."""
    if not algebras:
        raise InputError("direct_sum needs at least one algebra")
    field = algebras[0].field
    if any(a.field != field for a in algebras):
        raise InputError("direct_sum requires a single scalar field")
    dim = sum(a.dim for a in algebras)
    brackets = {}
    all_names = []
    offset = 0
    for idx, a in enumerate(algebras):
        for (i, j), row in a.brackets.items():
            brackets[(i + offset, j + offset)] = {k + offset: v for k, v in row.items()}
        all_names.extend(f"{n}.{idx}" for n in a.names)
        offset += a.dim
    if names is None:
        names = tuple(all_names)
    return LieAlgebra(dim, field, names, brackets)
