"""Classical matrix algebras and the shipped classification instances.

Builders produce structure constants over Q or Q(i) from sparse matrix
models.  The matrix models are sparse with Gaussian-integer entries held
as (re, im) pairs of Python ints, so commutators run in integer
arithmetic.  Coordinates are read off by one exact solve against the
family's basis matrices (coordinate_read_off), which rejects any matrix
outside their span; it returns {coordinate: value} in ascending
coordinate order, over Q(i) the realified row.  Every constant and
isotropy entry the catalog produces is real, even for a complex algebra,
and is stored as an int: no catalog value is a GaussianRational, and a
nonreal constant or line stabilizer of a complex algebra is an internal
error.  The orbit models' rows are built sparse, {index: int}, in
realified coordinates: real rows in the matrix basis's order, so the
real algebra the model reads off them has the matrix model's constants,
and isotropy rows (real, so a complex row is its own realification),
placed in a product ambient by index shifts.  No entry is built from a
matrix-model real algebra: build_su, and the others in tests/support.py,
are the tests' reference for those constants.
Each catalog entry packages an orbit model with the invariants the
classification asserts for it; verify_entry recomputes everything
derivable and diffs it against that record.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (
    LieAlgebra,
    direct_sum,
    full_space,
    heisenberg,
    product_space,
    radical,
)
from .complexify import OrbitModel, j_apply, place_row
from .cr import check_cr_pair, cr_type, levi_form, levi_signature
from .entries import (  # the entry types, re-exported
    TAXONOMY_TAGS,
    CatalogEntry,
    Expected,
    FiberTaxon,
    TaxonContext,
    classify_fiber,
)
from .errors import InputError, InternalError, excerpt
from .linalg import Solver, kernel_rows, sparse
from .report import Check, Report
from .scalars import QI, QQ, format_rational

_CACHE_SIZE = 16  # per parametrized builder; names reach them from user input


# ---------------------------------------------------------------------------
# sparse Gaussian-integer matrices: {(row, col): (re, im)} with int parts
# ---------------------------------------------------------------------------

def _real(value):
    """The real part of a Gaussian-integer pair whose imaginary part must vanish."""
    re, im = value
    if im:
        raise InternalError("complex catalog data must be real")
    return re


def mat_commutator(a, b):
    """ab - ba in Gaussian-integer arithmetic."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        y_rows = {}
        for (r, c), v in y.items():
            y_rows.setdefault(r, []).append((c, v))
        for (r, c), (xr, xi) in x.items():
            for c2, (yr, yi) in y_rows.get(c, ()):
                re, im = out.get((r, c2), (0, 0))
                out[(r, c2)] = (
                    re + sign * (xr * yr - xi * yi),
                    im + sign * (xr * yi + xi * yr),
                )
    return {k: v for k, v in out.items() if v != (0, 0)}


def mat_apply(mat, vec):
    """mat . vec for a vector of Gaussian-integer pairs."""
    out = [(0, 0)] * len(vec)
    for (r, c), (mr, mi) in mat.items():
        xr, xi = vec[c]
        if xr or xi:
            re, im = out[r]
            out[r] = (re + mr * xr - mi * xi, im + mr * xi + mi * xr)
    return tuple(out)


def _flatten(mat, n):
    """Sparse rational vector of an n x n Gaussian-integer matrix.

    The real and imaginary parts of entry (r, c) go to columns 2(r n + c)
    and 2(r n + c) + 1.
    """
    out = {}
    for (r, c), (re, im) in mat.items():
        if not (0 <= r < n and 0 <= c < n):
            raise InternalError("matrix lies outside the span of the basis matrices")
        k = 2 * (r * n + c)
        if re:
            out[k] = re
        if im:
            out[k + 1] = im
    return out


def coordinate_read_off(mats, field):
    """Exact coordinates of a matrix in the span of basis matrices, as a function.

    Over Q the coordinates are {k: x} with mat = sum x_k b_k.  Over Q(i)
    the solve runs against b_0 .. b_{N-1}, i b_0 .. i b_{N-1}, so its
    {k: x} is the realified row: real parts at k < N, imaginary parts at
    N + k.  Either way they come in ascending k, and a matrix outside the
    span raises InternalError.
    """
    n = 1 + max(max(key) for m in mats for key in m)
    rows = [_flatten(m, n) for m in mats]
    if field == QI:
        rows += [_flatten({k: (-im, re) for k, (re, im) in m.items()}, n) for m in mats]
    solver = Solver(rows)

    def coords(mat):
        x = solver.solve(_flatten(mat, n))
        if x is None:
            raise InternalError("matrix lies outside the span of the basis matrices")
        return x

    return coords


def _algebra_from_matrices(mats, names, field):
    """Structure constants from basis matrices, read off their commutators.

    Over Q(i) a coordinate at N or past it is an imaginary part, which
    must vanish.
    """
    dim = len(mats)
    coords = coordinate_read_off(mats, field)
    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            row = coords(mat_commutator(mats[a], mats[b]))
            if any(k >= dim for k in row):
                raise InternalError("complex catalog data must be real")
            if row:
                brackets[(a, b)] = row
    return LieAlgebra(dim, field, names, brackets)


# ---------------------------------------------------------------------------
# sl(n), su(p, q)
# ---------------------------------------------------------------------------

def sl_basis_names(n):
    names = [f"E{a}{b}" for a in range(n) for b in range(n) if a != b]
    names += [f"H{a}" for a in range(n - 1)]
    return tuple(names)


def sl_basis_matrices(n):
    mats = [
        {(a, b): (1, 0)}
        for a in range(n)
        for b in range(n)
        if a != b
    ]
    for a in range(n - 1):
        mats.append({(a, a): (1, 0), (a + 1, a + 1): (-1, 0)})
    return mats


@lru_cache(maxsize=_CACHE_SIZE)
def build_sl_complex(n):
    """sl(n, C) over Q(i), on the elementary/coroot basis."""
    if n < 2:
        raise InputError("sl needs n >= 2")
    return _algebra_from_matrices(sl_basis_matrices(n), sl_basis_names(n), QI)


def su_signs(p, q):
    return [1] * p + [-1] * q


def su_basis_matrices(p, q):
    """Anti-hermitian traceless matrices for the signature-(p, q) form.

    Basis: i H_a for the traceless diagonal, then for each a < b the pair
    A_ab = E_ba - s E_ab and B_ab = i (E_ba + s E_ab) with s the product of
    the signature signs at a and b.
    """
    n = p + q
    eps = su_signs(p, q)
    mats = []
    for a in range(n - 1):
        mats.append({(a, a): (0, 1), (a + 1, a + 1): (0, -1)})
    for a in range(n):
        for b in range(a + 1, n):
            s = eps[a] * eps[b]
            mats.append({(b, a): (1, 0), (a, b): (-s, 0)})
            mats.append({(b, a): (0, 1), (a, b): (0, s)})
    return mats


def su_names(p, q):
    n = p + q
    names = [f"iH{a}" for a in range(n - 1)]
    for a in range(n):
        for b in range(a + 1, n):
            names.append(f"A{a}{b}")
            names.append(f"B{a}{b}")
    return tuple(names)


@lru_cache(maxsize=_CACHE_SIZE)
def build_su(p, q=0):
    """su(p, q) over Q, in the standard anti-hermitian matrix model."""
    if p + q < 2 or p < 0 or q < 0:
        raise InputError("su needs p, q >= 0 and p + q >= 2")
    return _algebra_from_matrices(su_basis_matrices(p, q), su_names(p, q), QQ)


# ---------------------------------------------------------------------------
# sp(2m, C) and sp(p, q)
# ---------------------------------------------------------------------------

def sp_complex_basis_matrices(m):
    """Block basis for sp(2m, C): X = [[A, B], [C, -A^T]] with B, C symmetric."""
    mats = []
    for a in range(m):
        for b in range(m):
            mats.append({(a, b): (1, 0), (m + b, m + a): (-1, 0)})
    for a in range(m):
        for b in range(a, m):
            if a == b:
                mats.append({(a, m + a): (1, 0)})
            else:
                mats.append({(a, m + b): (1, 0), (b, m + a): (1, 0)})
    for a in range(m):
        for b in range(a, m):
            if a == b:
                mats.append({(m + a, a): (1, 0)})
            else:
                mats.append({(m + a, b): (1, 0), (m + b, a): (1, 0)})
    return mats


def sp_names(m):
    names = [f"A{a}{b}" for a in range(m) for b in range(m)]
    names += [f"B{a}{b}" for a in range(m) for b in range(a, m)]
    names += [f"C{a}{b}" for a in range(m) for b in range(a, m)]
    return tuple(names)


@lru_cache(maxsize=_CACHE_SIZE)
def build_sp_complex(m):
    """sp(2m, C) over Q(i), dimension m(2m + 1)."""
    if m < 1:
        raise InputError("sp needs m >= 1")
    return _algebra_from_matrices(sp_complex_basis_matrices(m), sp_names(m), QI)


def sp_real_basis_matrices(p, q):
    """sp(p, q) = sp(2m, C) ∩ u(eps, eps): the quaternionic unitary algebra.

    Blocks X = [[A, B], [C, D]] with D = -A^T (symplectic) and
    C = -eps conj(B) eps forced by anti-hermitianness for diag(eps, eps);
    free parameters are A anti-hermitian w.r.t. eps (m^2 real) and B
    symmetric complex (m(m+1) real), totalling m(2m+1).
    """
    m = p + q
    eps = su_signs(p, q)
    mats = []

    def embed(a_block, b_block):
        out = {}

        def add(key, re, im):
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + re, i0 + im)

        for (r, c), (re, im) in a_block.items():
            add((r, c), re, im)
            add((m + c, m + r), -re, -im)  # D = -A^T
        for (r, c), (re, im) in b_block.items():
            add((r, m + c), re, im)
            s = eps[r] * eps[c]
            add((m + r, c), -s * re, s * im)  # C = -eps conj(B) eps
        return {k: v for k, v in out.items() if v != (0, 0)}

    for a in range(m):
        mats.append(embed({(a, a): (0, 1)}, {}))
    for a in range(m):
        for b in range(a + 1, m):
            s = eps[a] * eps[b]
            mats.append(embed({(b, a): (1, 0), (a, b): (-s, 0)}, {}))
            mats.append(embed({(b, a): (0, 1), (a, b): (0, s)}, {}))
    for a in range(m):
        for b in range(a, m):
            if a == b:
                mats.append(embed({}, {(a, a): (1, 0)}))
                mats.append(embed({}, {(a, a): (0, 1)}))
            else:
                mats.append(embed({}, {(a, b): (1, 0), (b, a): (1, 0)}))
                mats.append(embed({}, {(a, b): (0, 1), (b, a): (0, 1)}))
    return mats


# ---------------------------------------------------------------------------
# stabilizers and embeddings
# ---------------------------------------------------------------------------

def _unit_pairs(n, *indices):
    """The Gaussian-integer vector with 1 at the given indices."""
    return tuple((1, 0) if k in indices else (0, 0) for k in range(n))


def line_stabilizer_rows(basis_mats, v):
    """Sparse complex rows, in algebra coordinates, of {xi : xi . v in C v}.

    v holds (re, im) pairs.  The matrices and v must be real, so the rows
    are rational: they are the kernel's echelon rows.  The unknown
    eigenvalue is one more domain coordinate, with a zero domain row.
    """
    unit = [{a: 1} for a in range(len(basis_mats))]
    images = [(sparse([_real(x) for x in mat_apply(m, v)]),) for m in basis_mats]
    images.append((sparse([-_real(x) for x in v]),))
    return list(kernel_rows(unit + [{}], images).values())


def matrices_to_realified_rows(mats, ambient_mats):
    """Realified coordinates of matrices in the complex span of the ambient's basis matrices."""
    coords = coordinate_read_off(ambient_mats, QI)
    return [coords(m) for m in mats]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def quadric_orbit(p, q):
    """Closed orbit of the signature-(p, q) unitary algebra on isotropic lines."""
    if p < 1 or q < 1:
        raise InputError("quadric needs p, q >= 1")
    n1 = p + q
    ambient = build_sl_complex(n1)
    sl_mats = sl_basis_matrices(n1)
    real_rows = matrices_to_realified_rows(su_basis_matrices(p, q), sl_mats)
    v = _unit_pairs(n1, 0, p)  # isotropic: +1 - 1 = 0
    iso = line_stabilizer_rows(sl_mats, v)
    model = OrbitModel(ambient, real_rows, iso, name=f"quadric({p},{q})")
    n = 2 * n1 - 3
    l = n1 - 2
    return CatalogEntry(
        name=f"quadric({p},{q})",
        family="quadric",
        params=(p, q),
        model=model,
        expected=Expected(
            codim=1,
            cr_type=(n, l, 1),
            m_dim=0,
            levi_signature_unordered=frozenset({p - 1, q - 1}),
            levi_degenerate_domain=(l == 0),
            fiber_dim=0,
            fiber_tag="point",
            degenerate_fibration=False,
        ),
        pi1=((1, ()), (1, ()), True),
        compact_group=False,
        notes=("isotropic-line hypersurface orbit of the mixed-signature form",),
    )


@lru_cache(maxsize=_CACHE_SIZE)
def sp_quadric_orbit(p, q):
    """The same quadric orbit under the smaller quaternionic unitary algebra."""
    if p < 1 or q < 1:
        raise InputError("sp quadric needs p, q >= 1")
    m = p + q
    ambient = build_sp_complex(m)
    sp_mats = sp_complex_basis_matrices(m)
    real_rows = matrices_to_realified_rows(sp_real_basis_matrices(p, q), sp_mats)
    iso = line_stabilizer_rows(sp_mats, _unit_pairs(2 * m, 0, p))
    model = OrbitModel(ambient, real_rows, iso, name=f"sp_quadric({p},{q})")
    n = 4 * m - 3
    return CatalogEntry(
        name=f"sp_quadric({p},{q})",
        family="sp_quadric",
        params=(p, q),
        model=model,
        expected=Expected(
            codim=1,
            cr_type=(n, 2 * m - 2, 1),
            m_dim=0,
            levi_signature_unordered=frozenset({2 * p - 1, 2 * q - 1}),
            levi_degenerate_domain=False,
            fiber_dim=0,
            fiber_tag="point",
            degenerate_fibration=False,
            orbit_dim=n,
        ),
        pi1=((1, ()), (1, ()), True),
        compact_group=False,
        notes=("quaternionic form acting transitively on the quadric hypersurface",),
    )


@lru_cache(maxsize=1)
def real_projective_orbit():
    """The real points of the projective plane as the closed orbit of sl(3, R)."""
    ambient = build_sl_complex(3)
    real_rows = [{a: 1} for a in range(8)]
    iso = line_stabilizer_rows(sl_basis_matrices(3), _unit_pairs(3, 0))
    model = OrbitModel(ambient, real_rows, iso, name="p2r")
    return CatalogEntry(
        name="p2r",
        family="p2r",
        params=(),
        model=model,
        expected=Expected(
            codim=2,
            cr_type=(2, 0, 2),
            m_dim=0,
            levi_degenerate_domain=True,
            fiber_dim=0,
            fiber_tag="point",
            degenerate_fibration=False,
        ),
        pi1=((0, ()), (1, ()), False),
        compact_group=False,
        notes=(
            "totally real plane orbit; for the preimage of SO3(R) the homotopy "
            "criterion does guarantee a globalization",
        ),
    )


def _conjugate_transpose_coords(n1):
    """Realified coordinates of xi -> -conj(xi)^T on the sl basis, as columns."""
    mats = sl_basis_matrices(n1)
    coords = coordinate_read_off(mats, QI)
    return [coords({(c, r): (-re, im) for (r, c), (re, im) in m.items()}) for m in mats]


@lru_cache(maxsize=_CACHE_SIZE)
def twisted_diagonal_orbit(n):
    """Closed orbit of the antiholomorphically twisted diagonal on P_n x P_n*."""
    if n < 1:
        raise InputError("twisted diagonal needs n >= 1")
    n1 = n + 1
    sl = build_sl_complex(n1)
    ambient = direct_sum(sl, sl)
    dim = sl.dim
    phi_cols = _conjugate_transpose_coords(n1)

    real_rows = []
    for a in range(dim):
        # basis matrix b_a -> (b_a, -conj(b_a)^T)
        real_rows.append({a: 1, **place_row(phi_cols[a], dim, 2 * dim, dim)})
    for a in range(dim):
        # i b_a -> (i b_a, -conj(i b_a)^T) = (i b_a, i conj(b_a)^T); the second
        # block is -i phi_a, and -J (re, im) = (im, -re)
        minus_j_phi = {k: -x for k, x in j_apply(phi_cols[a], dim).items()}
        real_rows.append({2 * dim + a: 1, **place_row(minus_j_phi, dim, 2 * dim, dim)})

    p_v = line_stabilizer_rows(sl_basis_matrices(n1), _unit_pairs(n1, 0))
    p_u = line_stabilizer_rows(sl_basis_matrices(n1), _unit_pairs(n1, 1))
    # p_v in the first factor, p_u shifted into the second
    iso = p_v + [{k + dim: x for k, x in z.items()} for z in p_u]

    model = OrbitModel(ambient, real_rows, iso, name=f"twisted({n})")
    return CatalogEntry(
        name=f"twisted({n})",
        family="twisted",
        params=(n,),
        model=model,
        expected=Expected(
            codim=2,
            cr_type=(4 * n - 2, 2 * n - 2, 2),
            m_dim=0,
            fiber_dim=0,
            fiber_tag="point",
            degenerate_fibration=False,
        ),
        pi1=None,
        compact_group=False,
        notes=("orbit of the full complex special linear algebra as a real form",),
    )


def _su2_block_rows(total_cplx, offset):
    """Realified rows of su(2) placed in an sl2 block of a product ambient."""
    rows = matrices_to_realified_rows(su_basis_matrices(2, 0), sl_basis_matrices(2))
    return [place_row(v, 3, total_cplx, offset) for v in rows]


@lru_cache(maxsize=1)
def torus_bundle_entry():
    """Compact model: (S^1)^2-principal over a product of projective lines."""
    sl = build_sl_complex(2)
    ambient = direct_sum(sl, sl)
    real_rows = _su2_block_rows(6, 0) + _su2_block_rows(6, 3)
    # raising-root lines in both factors, the second shifted by 3: the
    # nilradical of a borel pair
    iso = [{0: 1}, {3: 1}]
    model = OrbitModel(ambient, real_rows, iso, name="su2xsu2_torus")
    return CatalogEntry(
        name="su2xsu2_torus",
        family="compact-spherical",
        params=(),
        model=model,
        expected=Expected(
            codim=2,
            m_dim=0,
            fiber_dim=2,
            fiber_tag="torus-principal",
            degenerate_fibration=False,
        ),
        pi1=((2, ()), (2, ()), True),
        compact_group=True,
        taxon_context=TaxonContext(center_acts=True),
        notes=("torus-principal compact model over a rational base",),
    )


@lru_cache(maxsize=1)
def hopf_circle_entry():
    """Compact model: an S^1 x S^1 bundle built on su(2) plus a circle factor."""
    sl = build_sl_complex(2)
    ambient = direct_sum(sl, complex_abelian(1))
    # su(2), then the i R line of the C factor: complex index 3 in the imaginary block
    real_rows = _su2_block_rows(4, 0) + [{4 + 3: 1}]
    iso = [{0: 1}]
    model = OrbitModel(ambient, real_rows, iso, name="su2xs1_hopf")
    return CatalogEntry(
        name="su2xs1_hopf",
        family="compact-spherical",
        params=(),
        model=model,
        expected=Expected(
            codim=2,
            m_dim=0,
            fiber_dim=2,
            fiber_tag="torus-principal",
            degenerate_fibration=False,
        ),
        pi1=((2, ()), (2, ()), True),
        compact_group=True,
        taxon_context=TaxonContext(center_acts=True),
        notes=("circle-extended hypersurface model of the projective line",),
    )


@lru_cache(maxsize=1)
def sl2_uz_entry():
    """Compact model around the discrete-unipotent quotient of sl(2, C).

    The isotropy algebra is the graph line pairing the e-root with the
    extra central direction; the discrete subgroup itself is invisible at
    algebra level and the entry carries only the identity-component data.
    """
    sl = build_sl_complex(2)
    ambient = direct_sum(sl, complex_abelian(1))
    real_rows = _su2_block_rows(4, 0) + [{4 + 3: 1}]
    # the e-root of the sl2 factor paired with the C factor's direction
    iso = [{0: 1, 3: 1}]
    model = OrbitModel(ambient, real_rows, iso, name="sl2_uz")
    return CatalogEntry(
        name="sl2_uz",
        family="compact-spherical",
        params=(),
        model=model,
        expected=Expected(
            codim=2,
            m_dim=0,
            fiber_dim=1,
            fiber_tag="linear-C*",
            degenerate_fibration=False,
        ),
        pi1=((0, ()), (1, ()), False),
        compact_group=True,
        taxon_context=TaxonContext(center_acts=True, c_fiber_rule=True),
        notes=(
            "unipotent-integral quotient model; the plane fiber refibers over a "
            "projective line with affine-quadric fibers",
        ),
    )


def complex_abelian(k):
    """Abelian complex algebra of dimension k."""
    return LieAlgebra(k, QI, tuple(f"z{t}" for t in range(k)), {})


@lru_cache(maxsize=1)
def heisenberg_solv_entry():
    """Parallelizable compact solvmanifold model of codimension two."""
    heis_c = heisenberg(field=QI)
    ambient = direct_sum(heis_c, complex_abelian(2))
    rows = [{k: 1} for k in (0, 1, 2, 5, 6, 7, 3, 9)]
    model = OrbitModel(ambient, rows, [], name="heis_solv")
    return CatalogEntry(
        name="heis_solv",
        family="parallelizable",
        params=(),
        model=model,
        expected=Expected(
            codim=2,
            m_dim=6,
            degenerate_fibration=True,
        ),
        pi1=((0, ()), (0, ()), True),
        compact_group=False,
        kahler=True,
        notes=("complexified nilmanifold data with a totally real torus factor",),
    )


@lru_cache(maxsize=1)
def complex_torus_entry():
    """Complex parallelizable model: the whole ambient is the real subalgebra."""
    ambient = complex_abelian(2)
    rows = [{k: 1} for k in range(4)]
    model = OrbitModel(ambient, rows, [], name="c2_torus")
    return CatalogEntry(
        name="c2_torus",
        family="parallelizable",
        params=(),
        model=model,
        expected=Expected(
            codim=0,
            m_dim=4,
            degenerate_fibration=True,
        ),
        pi1=((0, ()), (0, ()), True),
        compact_group=True,
        kahler=True,
        notes=("compact complex torus data",),
    )


# ---------------------------------------------------------------------------
# roster and lookup
# ---------------------------------------------------------------------------

ROSTER = (
    "quadric(1,1)",
    "quadric(2,1)",
    "quadric(2,2)",
    "quadric(3,1)",
    "sp_quadric(1,1)",
    "twisted(1)",
    "twisted(2)",
    "p2r",
    "su2xsu2_torus",
    "su2xs1_hopf",
    "sl2_uz",
    "heis_solv",
    "c2_torus",
)


# Parametrized entries are built on demand only up to this complex ambient
# dimension, that of sl(13, C) for the quadrics with p + q = 13: construction
# and verification cost grows quickly with it.  The costliest entries
# admitted, quadric(12,1), quadric(7,6) and sp_quadric(7,1), each take about
# 0.3-0.5 CPU s to build and verify in-process on a shared 2-vCPU x86-64 VM.
MAX_AMBIENT_DIM = 168

# (name prefix, builder, arity, complex ambient dimension)
_FAMILIES = (
    ("sp_quadric", sp_quadric_orbit, 2, lambda p, q: (p + q) * (2 * (p + q) + 1)),
    ("quadric", quadric_orbit, 2, lambda p, q: (p + q) ** 2 - 1),
    ("twisted", twisted_diagonal_orbit, 1, lambda n: 2 * ((n + 1) ** 2 - 1)),
)


def _parse_params(text, arity, name):
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise InputError(f"bad parameters for {name}: {excerpt(repr(text))}")
    parts = [p.strip() for p in inner[1:-1].split(",")]
    if len(parts) != arity:
        raise InputError(f"{name} takes {arity} parameters")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad integer parameters {excerpt(repr(text))}") from exc


def get_entry(name: str) -> CatalogEntry:
    """Look up or construct a catalog entry by name (parametrized allowed)."""
    plain = {
        "p2r": real_projective_orbit,
        "su2xsu2_torus": torus_bundle_entry,
        "su2xs1_hopf": hopf_circle_entry,
        "sl2_uz": sl2_uz_entry,
        "heis_solv": heisenberg_solv_entry,
        "c2_torus": complex_torus_entry,
    }
    key = name.strip()
    if key in plain:
        return plain[key]()
    for prefix, builder, arity, ambient_dim in _FAMILIES:
        if key.startswith(prefix):
            params = _parse_params(key[len(prefix):], arity, prefix)
            dim = ambient_dim(*params)
            if min(params) >= 1 and dim > MAX_AMBIENT_DIM:
                raise InputError(
                    f"{excerpt(key)} is too large: its complex ambient dimension "
                    f"{excerpt(format_rational(dim))} exceeds the limit of {MAX_AMBIENT_DIM}"
                )
            return builder(*params)
    raise InputError(f"unknown catalog entry {excerpt(repr(name))}")


def catalog_entries():
    return [get_entry(name) for name in ROSTER]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_entry(entry: CatalogEntry, expected: Expected | None = None) -> Report:
    """Recompute every derivable invariant and diff it against the record.

    Each check is named after the invariant and holds when the recomputed
    value equals the recorded one; its detail shows both.
    """
    exp = expected if expected is not None else entry.expected
    checks = []
    model = entry.model

    def compare(name, want, computed):
        checks.append(Check(name, want == computed, f"expected={want} computed={computed}"))

    if exp.codim is not None:
        compare("codim", exp.codim, model.codim)

    pair = entry.cr_pair
    t = cr_type(pair)
    if exp.cr_type is not None:
        compare("cr_type", exp.cr_type, (t.n, t.l, t.k))
    compare("cr_type_codim_consistent", model.codim, t.k)
    compare("cr_axioms", True, check_cr_pair(pair).ok)

    if exp.m_dim is not None:
        compare("m_dim", exp.m_dim, model.m.dim)

    levi = levi_form(pair)
    if exp.levi_degenerate_domain is not None:
        compare("levi_degenerate_domain", exp.levi_degenerate_domain, levi.degenerate_domain)
    if exp.levi_signature_unordered is not None:
        if levi.degenerate_domain:
            computed = frozenset({0})
        else:
            sig = levi_signature(pair)
            computed = frozenset({sig.normalized[0], sig.normalized[1]})
        compare("levi_signature_unordered", exp.levi_signature_unordered, computed)

    fib = entry.fibration
    if exp.degenerate_fibration is not None:
        compare("degenerate_fibration", exp.degenerate_fibration, fib.degenerate)
    if exp.fiber_dim is not None:
        compare("fiber_dim", exp.fiber_dim, fib.fiber_dim)
    if exp.fiber_tag is not None:
        compare("fiber_tag", exp.fiber_tag, entry.taxon.tag)

    if exp.orbit_dim is not None:
        compare("orbit_dim", exp.orbit_dim, model.real_sub.dim - model.h.dim)

    if entry.compact_group:
        g = model.real_algebra
        r = radical(g)
        compare("radical_abelian", True, product_space(g, r, r).dim == 0)
        compare("radical_central", True, product_space(g, full_space(g), r).dim == 0)

    return Report(tuple(checks))
