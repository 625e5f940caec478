"""Structure-constant Lie algebras over Q and Q(i) and their standard anatomy.

An algebra is a sparse rank-3 tensor: brackets[(i, j)][k] holds the
coefficient of e_k in [e_i, e_j] for i < j; antisymmetry supplies the
rest.  Derived objects (series, radical, normalizers, quotients) all come
back as canonical echelon subspaces so results compare syntactically.

Vectors are sparse {index: coefficient} dicts: bracket takes and returns
them, and a Subspace is its sparse reduced echelon form {pivot: row}.
Dense tuples are the edge form only: basis_vector, span's input rows
(files, user data) and Subspace.rows, a view built on first read for the
records and payloads that show it; no routine here reads that view.

A complex (Q_i) algebra only stores its constants, GaussianRational where
a file gave a nonreal one: realify splits them into a real algebra of
twice the dimension, and validate, the CLI's structure analysis and the
orbit models work on that realification over Q.  The generic routines
here still accept a complex algebra directly.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm

from .errors import InputError, StructureError, excerpt
from .linalg import (
    Solver,
    echelon,
    echelon_rows,
    in_span,
    intersect_spaces,
    kernel_rows,
    reduce_mod,
    signature_of_symmetric,
    sparse,
)
from .report import Check, Report, witness_check
from .scalars import QI, QQ, compact, imag_part, real_part


class LieAlgebra:
    """A finite-dimensional Lie algebra given by structure constants.

    Immutable after construction; all operations are pure functions of the
    stored tensor, so instances are safe to share across threads.
    """

    def __init__(self, dim, field, names, brackets):
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
                key = excerpt(f"({i}, {j})")
                raise InputError(f"bracket key {key} must satisfy 0 <= i < j < dim")
            cleaned = {k: compact(v) for k, v in row.items() if v}
            for k in cleaned:
                if not 0 <= k < dim:
                    raise InputError(f"bracket target index {excerpt(str(k))} out of range")
            if cleaned:
                table[(i, j)] = cleaned
        self.brackets = table

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
            return 0
        if i < j:
            return self.brackets.get((i, j), {}).get(k, 0)
        return -self.brackets.get((j, i), {}).get(k, 0)

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a sparse dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    @cached_property
    def _adjacency(self):
        # per-index view of the tensor: adj[i] maps j to the sparse row of
        # [e_i, e_j], for both orders of every stored pair; built on first
        # use, never mutated afterwards
        adj = {i: {} for i in range(self.dim)}
        for (i, j), row in self.brackets.items():
            adj[i][j] = row
            adj[j][i] = {k: -v for k, v in row.items()}
        return adj

    # [g, g] and the Killing form are each read by several structure
    # analyses (both series and the radical; the radical and the
    # signature), so like _adjacency they are built once, on first use

    @cached_property
    def _derived(self):
        return sparse_span(self, self.brackets.values())

    @cached_property
    def _killing(self):
        return _killing_form(self)

    def bracket(self, x, y):
        """[x, y] of sparse vectors {index: coefficient}, as a sparse vector.

        An index of x or y outside the basis raises InputError.
        """
        adj = self._adjacency
        if not adj.keys() >= y.keys():
            raise InputError("bracket: vector index outside the basis")
        acc = {}
        try:
            for i, xi in x.items():
                nbrs = adj[i]
                # walk whichever of e_i's bracket partners and y's support is shorter
                if len(nbrs) <= len(y):
                    for j, row in nbrs.items():
                        yj = y.get(j)
                        if yj is not None:
                            c = xi * yj
                            for k, v in row.items():
                                acc[k] = acc.get(k, 0) + c * v
                else:
                    for j, yj in y.items():
                        row = nbrs.get(j)
                        if row is not None:
                            c = xi * yj
                            for k, v in row.items():
                                acc[k] = acc.get(k, 0) + c * v
        except KeyError:
            raise InputError("bracket: vector index outside the basis") from None
        return {k: v for k, v in acc.items() if v}

    def ad(self, x):
        """ad_x of a sparse x as a column map {j: {k: coeff}} with ad_x(e_j) = sum coeff e_k."""
        cols = {}
        adj = self._adjacency
        for i, xi in x.items():
            for j, row in adj[i].items():
                col = cols.setdefault(j, {})
                for k, v in row.items():
                    col[k] = col.get(k, 0) + xi * v
        return cols

    def basis_vector(self, i):
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    def basis_vectors(self):
        return tuple(self.basis_vector(i) for i in range(self.dim))


class Subspace:
    """A linear subspace of a LieAlgebra, as its reduced echelon form.

    echelon is the sparse form {pivot: row}, in ascending pivot order with
    row[pivot] == 1, and the only state: every computation on the
    subspace uses its rows, and two subspaces are equal iff these forms
    are.  span and sparse_span build one from arbitrary rows.
    """

    def __init__(self, parent, echelon):
        self.parent, self.echelon = parent, echelon

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.parent!r})"

    @property
    def dim(self):
        return len(self.echelon)

    @property
    def pivots(self):
        return tuple(self.echelon)

    @cached_property
    def rows(self):
        """The echelon rows as dense tuples, the form records and payloads show."""
        return echelon_rows(self.echelon, self.parent.dim)[0]

    def contains(self, v):
        """Is the sparse vector v in the subspace?"""
        return in_span(v, self.echelon)

    def contains_space(self, other):
        return all(self.contains(r) for r in other.echelon.values())

    def reduce(self, v):
        """Sparse residual of the sparse vector v; empty iff v is inside."""
        return reduce_mod(v, self.echelon)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.parent == other.parent and self.echelon == other.echelon

    def __hash__(self):
        return hash(self.pivots)


def pivot_complement(big, small):
    """big's echelon rows {pivot: row} at the pivots that are not small's, for small inside big.

    small's pivots are big's (a vector of big starts at a pivot of big), so
    these rows vanish on them: they are the reduced echelon form of the
    pivot-free complement of small in big.
    """
    return {p: row for p, row in big.echelon.items() if p not in small.echelon}


def full_space(L):
    return Subspace(L, {i: {i: 1} for i in range(L.dim)})


def span(L, vectors):
    """The subspace spanned by arbitrary dense rows, by one elimination."""
    if any(len(r) != L.dim for r in vectors):
        raise InputError("subspace row length does not match algebra dimension")
    return sparse_span(L, [sparse(r) for r in vectors])


def sparse_span(L, vectors):
    """The subspace spanned by arbitrary sparse rows, by one elimination.

    The elimination stops once the rows span L, whose form is the identity:
    [g, g] of a perfect algebra reads only as many brackets as it takes.
    """
    return Subspace(L, echelon(vectors, L.dim))


def intersect(a, b):
    _same_parent(a, b)
    return Subspace(a.parent, intersect_spaces(a.echelon.values(), b.echelon.values()))


def add_spaces(a, b):
    _same_parent(a, b)
    return sparse_span(a.parent, [*a.echelon.values(), *b.echelon.values()])


def _units(L):
    """The basis vectors e_0 .. e_{dim-1}, sparse."""
    return [{i: 1} for i in range(L.dim)]


def _same_parent(a, b):
    if a.parent != b.parent:
        raise InputError("subspaces belong to different algebras")


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------

def realify(L: LieAlgebra) -> LieAlgebra:
    """Realification of a complex algebra on the basis (e_1..e_N, i e_1..i e_N).

    The rational real and imaginary parts of the constants are the only
    thing read from Q(i).  Kept on L once built, so it lives exactly as
    long as L does.
    """
    if L.field != QI:
        raise InputError("realify expects a complex (Q_i) algebra")
    cached = getattr(L, "_realification", None)
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
            re, im = real_part(c), imag_part(c)
            if re:
                re_row[k] = re
                im_row[n + k] = re
            if im:
                re_row[n + k] = im
                im_row[k] = -im
        # [e_a, e_b]
        put(a, b, dict(re_row))
        # [f_a, f_b] = -[e_a, e_b]
        put(n + a, n + b, {k: -v for k, v in re_row.items()})
        # [e_a, f_b] = i [e_a, e_b] and [e_b, f_a] = -i [e_a, e_b]
        put(a, n + b, dict(im_row))
        put(b, n + a, {k: -v for k, v in im_row.items()})
    names = list(L.names) + [f"i*{x}" for x in L.names]
    out = LieAlgebra(2 * n, QQ, names, brackets)
    L._realification = out
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(L):
    """Check antisymmetry and the Jacobi identity on all i < j < k triples.

    A complex algebra is checked on its realification, on the triples of
    its first L.dim basis vectors: those are its complex basis, and the
    realification is the same algebra over Q, so every triple holds or
    fails as it does over Q(i) and the first witness is the same.

    The stored i < j table is antisymmetric by construction, so the
    antisymmetry row always passes here; only validate_tensor, which reads
    fully explicit c[i][j][k] data, can report an antisymmetry witness.
    """
    R = realify(L) if L.field == QI else L
    witness = _jacobi_witness(R, L.dim)
    return Report((Check("antisymmetry", True), witness_check("jacobi", witness)))


def _jacobi_witness(L, n):
    """First i < j < k < n with [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] != 0.

    The constants are scaled to integers by the lcm D of their
    denominators, which scales every Jacobi sum by D^2.  Each bracket
    [e_l, e_c] is then packed into one integer, coordinate m as the digit
    of 2^(w m), so a triple's sum is a handful of integer products.  No
    coordinate of a sum exceeds 3 dim C^2 < 2^(w - 1) in absolute value
    (C the largest scaled constant), and an expansion in base 2^w with
    digits that small is unique: the packed sum is 0 iff the Jacobi sum is.
    """
    den = lcm(*(v.denominator for row in L.brackets.values() for v in row.values()))
    scaled = {
        key: {k: v.numerator * (den // v.denominator) for k, v in row.items()}
        for key, row in L.brackets.items()
    }
    big = max((abs(v) for row in scaled.values() for v in row.values()), default=0)
    w = (3 * L.dim * big * big).bit_length() + 2
    # terms[a][b]: the (index, constant) pairs of [e_a, e_b] for a, b < n;
    # packed[l][c]: [e_l, e_c] as one integer, for c < n
    terms = [[()] * n for _ in range(n)]
    packed = [[0] * n for _ in range(L.dim)]
    for (a, b), row in scaled.items():
        digits = sum(v << (w * k) for k, v in row.items())
        if b < n:
            terms[a][b] = tuple(row.items())
            terms[b][a] = tuple((k, -v) for k, v in row.items())
            packed[a][b] = digits
        if a < n:
            packed[b][a] = -digits
    for i in range(n):
        for j in range(i + 1, n):
            ij = terms[i][j]
            for k in range(j + 1, n):
                acc = 0
                for l, c in ij:
                    acc += c * packed[l][k]
                for l, c in terms[j][k]:
                    acc += c * packed[l][i]
                for l, c in terms[k][i]:
                    acc += c * packed[l][j]
                if acc:
                    return (i, j, k)
    return None


def validate_tensor(dim, field, tensor):
    """Validate a dense c[i][j][k] tensor: antisymmetry first, then Jacobi.

    Returns a Report; the first violating index triple is the witness.
    When antisymmetry fails, Jacobi is reported as not checkable.  Use
    this for raw external data, before building a LieAlgebra.
    """
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if tensor[i][j][k] != -tensor[j][i][k]:
                    return Report(
                        (witness_check("antisymmetry", (i, j, k)), Check("jacobi", None))
                    )
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            row = {k: tensor[i][j][k] for k in range(dim) if tensor[i][j][k]}
            if row:
                brackets[(i, j)] = row
    return validate(LieAlgebra(dim, field, [f"e{t}" for t in range(dim)], brackets))


# ---------------------------------------------------------------------------
# series, killing form, radical
# ---------------------------------------------------------------------------

def product_space(L, a, b):
    """Span of [A, B] for subspaces A, B."""
    return sparse_span(
        L, [L.bracket(x, y) for x in a.echelon.values() for y in b.echelon.values()]
    )


def derived_subalgebra(L):
    """[g, g]: the span of the stored brackets of basis pairs, built once per algebra."""
    return L._derived


def derived_series(L):
    """[g, g^(k)] chain with g^(k+1) = [g^(k), g^(k)], until it stabilizes."""
    series = [full_space(L)]
    current = derived_subalgebra(L)
    while current != series[-1]:
        series.append(current)
        current = product_space(L, current, current)
    return series


def lower_central_series(L):
    """g^{k+1} = [g, g^k], until it stabilizes."""
    g = full_space(L)
    series = [g]
    current = derived_subalgebra(L)
    while current != series[-1]:
        series.append(current)
        current = product_space(L, g, current)
    return series


def is_solvable(L):
    return derived_series(L)[-1].dim == 0


def is_abelian(L):
    return not L.brackets


class BilinearForm(namedtuple("BilinearForm", "parent matrix symmetry")):
    """A bilinear form on an algebra, stored densely; symmetry is symmetric | antisymmetric."""

    __slots__ = ()

    def __init__(self, parent, matrix, symmetry):
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


def killing_form(L):
    """kappa(x, y) = trace(ad x . ad y) on basis pairs, built once per algebra."""
    return L._killing


def _killing_form(L):
    ads = [L.ad(e) for e in _units(L)]
    n = L.dim
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = 0
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
    characteristic zero; with [g, g] = 0 there is no condition and r = g.
    """
    derived = list(derived_subalgebra(L).echelon.values())
    images = []
    for row in killing_form(L).matrix:
        img = {}
        for t, d in enumerate(derived):
            x = sum(row[c] * v for c, v in d.items())
            if x:
                img[t] = x
        images.append((img,))
    return Subspace(L, kernel_rows(_units(L), images))


# ---------------------------------------------------------------------------
# subalgebra / ideal machinery
# ---------------------------------------------------------------------------

def is_subalgebra(L, s, generators=None):
    """[S, S] inside S, checked on the brackets of pairs of generators.

    generators default to s's rows.  A caller may pass fewer rows whose
    pairwise brackets already decide closure: complexify passes the
    complex generators of a J-stable span, since [Jx, y] = J[x, y].
    """
    rows = list(s.echelon.values() if generators is None else generators)
    return all(
        s.contains(L.bracket(rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


def is_ideal(L, s):
    """[g, S] inside S."""
    return all(
        s.contains(L.bracket({i: 1}, v))
        for i in range(L.dim)
        for v in s.echelon.values()
    )


def subalgebra_closure(L, s):
    """Smallest subalgebra containing s: iterate span-and-bracket to a fixed point."""
    current = sparse_span(L, s.echelon.values())
    while True:
        rows = list(current.echelon.values())
        new_rows = list(rows)
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                v = L.bracket(rows[a], rows[b])
                if not current.contains(v):
                    new_rows.append(v)
        nxt = sparse_span(L, new_rows)
        if nxt.dim == current.dim:
            return current
        current = nxt


def centralizer(L, s):
    """{x : [x, s] = 0 for all s in S}."""
    basis = _units(L)
    images = [[L.bracket(v, w) for w in s.echelon.values()] for v in basis]
    return Subspace(L, kernel_rows(basis, images))


def normalizer_subalgebra(L, s):
    """{x : [x, S] inside S}; the infinitesimal stabilizer of the subspace."""
    basis = _units(L)
    images = [[s.reduce(L.bracket(v, w)) for w in s.echelon.values()] for v in basis]
    return Subspace(L, kernel_rows(basis, images))


def read_off_structure(L, rows, modulo=None, names=None):
    """The algebra L's bracket induces on independent sparse rows, and its Solver.

    Each pair of rows is bracketed once and the bracket is solved in the
    rows.  With modulo, a subspace, rows and brackets are first reduced
    against it, so the constants are those of (span(rows) + modulo) /
    modulo on the rows' cosets.  The Solver's echelon is the span of the
    (reduced) rows.  Raises InputError when the rows are dependent and
    StructureError when a bracket leaves the span; no rows give the zero
    algebra.
    """
    rows = list(rows)
    k = len(rows)
    names = tuple(f"s{t}" for t in range(k)) if names is None else tuple(names)
    reduce = (lambda v: v) if modulo is None else modulo.reduce
    solver = Solver([reduce(r) for r in rows])
    brackets = {}
    for a in range(k):
        for b in range(a + 1, k):
            coeffs = solver.solve(reduce(L.bracket(rows[a], rows[b])))
            if coeffs is None:
                raise StructureError("subspace is not closed under the bracket")
            if coeffs:
                brackets[(a, b)] = coeffs
    return LieAlgebra(k, L.field, names, brackets), solver


def subalgebra_structure(L, s):
    """Abstract algebra on the basis rows of a subalgebra s, plus its Solver.

    Raises StructureError if s is not closed under the bracket.
    """
    return read_off_structure(L, s.echelon.values())


def quotient_algebra(L, ideal):
    """Quotient by an ideal, on the explicit pivot-free complement basis.

    Returns (algebra, complement_indices).  Coordinates of the quotient are
    the non-pivot coordinates of the ideal's echelon form, so the quotient
    map is literally "reduce and read off the complement entries".
    """
    if not is_ideal(L, ideal):
        raise StructureError("quotient requires an ideal")
    comp = pivot_complement(full_space(L), ideal)
    q, _ = read_off_structure(L, comp.values(), ideal, (L.names[i] for i in comp))
    return q, tuple(comp)


def verify_levi_complement(L, s):
    """True iff s is a semisimple complement to the radical.

    Checks: subalgebra, trivial intersection with the radical, spanning
    together with the radical, and nondegenerate restricted Killing form
    (no zero in its inertia; over Q(i), that of the realification, 2 Re kappa).
    """
    try:
        sub, _ = subalgebra_structure(L, s)
    except StructureError:
        return False
    r = radical(L)
    # with a trivial intersection, s + r spans L iff the dimensions add up
    if intersect(s, r).dim != 0 or s.dim + r.dim != L.dim:
        return False
    if sub.field == QI:
        sub = realify(sub)
    return signature_of_symmetric(killing_form(sub).matrix)[2] == 0


def killing_signature(L):
    """Inertia of the Killing form; only defined over Q."""
    if L.field != QQ:
        raise InputError("killing_signature needs a real (Q) algebra")
    return signature_of_symmetric(killing_form(L).matrix)


# ---------------------------------------------------------------------------
# stock constructors
# ---------------------------------------------------------------------------

def abelian(n, field=QQ):
    return LieAlgebra(n, field, tuple(f"a{i}" for i in range(n)), {})


def heisenberg(field=QQ):
    """3-dimensional Heisenberg algebra: [x, y] = z."""
    return LieAlgebra(3, field, ("x", "y", "z"), {(0, 1): {2: 1}})


def sl2(field=QQ):
    """sl_2 with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(
        3,
        field,
        ("h", "e", "f"),
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
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
