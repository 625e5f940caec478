"""check_cr_pair's loops modulo h against the full ordered loops.

The library reads the canonical J on one basis B of R, h's rows then the
complement.  Once kernel-exactness holds it skips h's rows in J^2 = -1
and checks isotropy on a pair of h's rows for a < b only, and once
isotropy holds too it checks integrability on complement x complement.
support.full_check_cr_pair keeps the full loops over B.  The pairs here
all have h != 0; J is moved on R/h by conjugation, scaling, an h-valued
term, a swap of h with the complement, a leak of h or a complement row
sent to 0, so that every row fails somewhere, and the whole Report,
witnesses included, must equal the full loops' Report.  Pairs that differ
by an h-valued term on J compare equal and must report alike.  On the
same pairs the complement and the canonical J must equal
support.oracle_complement and support.oracle_canonical_j, which reduce
R's rows modulo h and project every unit vector through the raw J.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crkit.algebra import LieAlgebra, abelian, direct_sum, heisenberg, sl2, span
from crkit.catalog import get_entry
from crkit.cr import CRPair, check_cr_pair
from crkit.linalg import dense, sparse

from .support import (
    basis_vector,
    basis_vectors,
    complement_rows,
    conjugated_j,
    full_check_cr_pair,
    j_columns,
    j_on_h,
    oracle_canonical_j,
    oracle_complement,
    rebased_pair,
)

ROWS = ("kernel-exactness", "square-minus-identity", "isotropy-compatibility", "integrability")


def times_ideal(k, pair):
    """The algebra k times pair (with h = 0), with h = k: h acts trivially on R/h."""
    n = k.dim
    g = direct_sum(k, pair.g)
    units = [basis_vector(g, t) for t in range(n)]
    rows = [(0,) * n + tuple(r) for r in pair.r.rows]
    j = {a + n: {b + n: x for b, x in col.items()} for a, col in pair.j.items()}
    return CRPair(g, span(g, units), span(g, units + rows), j)


def bidiagonal(pair):
    """pair on the basis b_a = e_a + e_(a+1).

    With h's pivots first, R's echelon rows at them then have parts off h,
    so they differ from the basis B of R that the loops read, h's rows
    then the complement.
    """
    n = pair.g.dim
    return rebased_pair(pair, [[int(i in (a, a + 1)) for i in range(n)] for a in range(n)])


def open_h_pair():
    """A file pair whose h = span(x, y) in heisenberg + R^2 is not a subalgebra.

    Kernel-exactness and J^2 = -1 hold, and every pair with an argument
    off h passes, so only h x h pairs see [x, y] = z leave h.
    """
    g = direct_sum(heisenberg(), abelian(2))
    e = basis_vectors(g)
    return CRPair(g, span(g, [e[0], e[1]]), span(g, [e[0], e[1], e[3], e[4]]),
                  {3: {4: 1}, 4: {3: -1}})


BASES = {
    "quadric(2,1)": lambda: get_entry("quadric(2,1)").cr_pair,
    "sp_quadric(1,1)": lambda: get_entry("sp_quadric(1,1)").cr_pair,
    "quadric(2,2)": lambda: get_entry("quadric(2,2)").cr_pair,
    "sl2 x heis_solv": lambda: times_ideal(sl2(), get_entry("heis_solv").cr_pair),
    "sl2 x c2_torus": lambda: times_ideal(sl2(), get_entry("c2_torus").cr_pair),
    "sl2 x heis_solv, rebased": lambda: bidiagonal(BASES["sl2 x heis_solv"]()),
    "open h": open_h_pair,
}
_built = {}


def base(name):
    if name not in _built:
        _built[name] = BASES[name]()
    return _built[name]


def shear(m, entries):
    """The unimodular (1 + lower)(1 + upper) of size m, off-diagonal entries drawn in order."""
    it = iter(entries)
    lower = [[1 if i == j else (next(it) if i > j else 0) for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else (next(it) if i < j else 0) for j in range(m)] for i in range(m)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


def h_noise(pair, entries):
    """An h-valued vector per complement row, drawn from entries: J mod h ignores them."""
    h = pair.h.rows
    return [[sum(entries[(i + t) % len(entries)] * row[c] for t, row in enumerate(h))
             for c in range(pair.g.dim)] for i in range(len(pair.complement))]


def moved(pair, kind, entries):
    """The raw J of pair moved as kind says; entries feed the shear and the noise."""
    if kind == "none":
        return pair.j
    comp = complement_rows(pair)
    m = len(comp)
    p = shear(m, entries)
    if kind == "conjugate":
        return conjugated_j(pair, p)
    if kind == "scale":
        return conjugated_j(pair, p, scale=2)
    if kind == "h-noise":
        return conjugated_j(pair, [[int(i == j) for j in range(m)] for i in range(m)],
                            h_noise=h_noise(pair, entries))
    on_h = j_on_h(pair)
    on_comp = [[0] * pair.g.dim for _ in range(m)]
    if kind == "swap":
        # J h_t = c_t and J c_t = -h_t, J = 0 on the other rows of h: the raw
        # J^2 = -1 holds when m <= dim h, but J(h) leaves h and J mod h
        # sends c_t to 0
        on_h = [[0] * pair.g.dim for _ in on_h]
        for t in range(min(m, len(on_h))):
            on_h[t] = list(comp[t])
            on_comp[t] = [-x for x in pair.h.rows[t]]
    elif kind == "leak":
        # h's first row goes to a complement row, and J vanishes on the rest
        on_h[0] = list(comp[0])
    else:
        # kill: J sends the first complement row to 0 and keeps the others,
        # so J mod h vanishes off h
        on_comp[1:] = [dense(pair.apply_j(sparse(c)), pair.g.dim) for c in comp[1:]]
    return j_columns(pair, on_h, on_comp)


def failing(report):
    return {c.name for c in report.checks if c.ok is False}


ENTRIES = st.lists(st.integers(-2, 2), min_size=100, max_size=100)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BASES)),
    kind=st.sampled_from(("conjugate", "scale", "h-noise", "swap", "leak", "kill", "none")),
    entries=ENTRIES,
    connected=st.booleans(),
)
def test_reduced_loops_match_full_loops(name, kind, entries, connected):
    b = base(name)
    raw = moved(b, kind, entries)
    pair = CRPair(b.g, b.h, b.r, raw)
    assert check_cr_pair(pair, connected) == full_check_cr_pair(pair, connected)
    # the complement and J's columns are read off R's echelon rows at its pivots
    assert list(pair.complement.items()) == list(oracle_complement(pair).items())
    assert list(pair.j.items()) == list(oracle_canonical_j(pair, raw).items())


KERNEL, SQUARE, ISOTROPY, INTEGRABILITY = ROWS
SHEAR = [1, -1, 2, 0, 1] * 20


@pytest.mark.parametrize("name,kind,connected,fails", [
    ("quadric(2,2)", "none", True, set()),
    ("quadric(2,2)", "h-noise", True, set()),
    # J(h) leaves h, and J mod h sends the complement rows swapped with h to 0
    ("quadric(2,2)", "swap", True, {KERNEL, SQUARE, ISOTROPY, INTEGRABILITY}),
    ("quadric(2,1)", "leak", True, {KERNEL, SQUARE, ISOTROPY, INTEGRABILITY}),
    ("sp_quadric(1,1)", "scale", True, {SQUARE, ISOTROPY, INTEGRABILITY}),
    ("quadric(2,2)", "conjugate", True, {ISOTROPY, INTEGRABILITY}),
    ("sp_quadric(1,1)", "conjugate", True, {ISOTROPY, INTEGRABILITY}),
    # the connected condition fails, unreported: integrability takes the full loop
    ("quadric(2,1)", "conjugate", False, {INTEGRABILITY}),
    # h is an ideal, so isotropy holds for any J: integrability fails alone
    ("sl2 x heis_solv", "conjugate", True, {INTEGRABILITY}),
    ("sl2 x heis_solv", "conjugate", False, {INTEGRABILITY}),
    ("sl2 x heis_solv, rebased", "conjugate", True, {INTEGRABILITY}),
    ("open h", "none", True, {ISOTROPY, INTEGRABILITY}),
    ("open h", "none", False, {INTEGRABILITY}),
    # J(h) <= h, but J mod h kills a complement row
    ("quadric(2,1)", "kill", True, {KERNEL, SQUARE, ISOTROPY, INTEGRABILITY}),
])
def test_every_row_fails_somewhere_with_the_full_loops_witness(name, kind, connected, fails):
    b = base(name)
    pair = CRPair(b.g, b.h, b.r, moved(b, kind, SHEAR))
    report = check_cr_pair(pair, connected)
    assert failing(report) == fails
    assert (report.by_name(ISOTROPY).ok is None) == (not connected)
    assert report == full_check_cr_pair(pair, connected)


@pytest.mark.parametrize("name", ["quadric(2,2)", "sp_quadric(1,1)", "quadric(2,1)"])
def test_pairs_that_compare_equal_report_alike(name):
    # the conjugated pair, and the same pair with an h-valued term on J
    b = base(name)
    p = shear(len(b.complement), SHEAR)
    plain = CRPair(b.g, b.h, b.r, conjugated_j(b, p))
    noisy = CRPair(b.g, b.h, b.r, conjugated_j(b, p, h_noise=h_noise(b, SHEAR)))
    assert plain == noisy
    for connected in (True, False):
        report = check_cr_pair(plain, connected)
        assert not report.ok
        assert check_cr_pair(noisy, connected) == report


def test_a_passing_pair_brackets_modulo_h(monkeypatch):
    # closure of h, h x complement (2 brackets a pair), complement x complement (4)
    pair = base("quadric(2,2)")
    calls = []
    bracket = LieAlgebra.bracket
    monkeypatch.setattr(LieAlgebra, "bracket", lambda L, x, y: calls.append(1) or bracket(L, x, y))
    assert check_cr_pair(pair).ok
    h, m = pair.h.dim, len(pair.complement)
    assert (h, m, pair.r.dim) == (10, 4, 14)
    assert len(calls) == h * (h - 1) // 2 + 2 * h * m + 4 * (m * (m - 1) // 2) == 149
    calls.clear()
    assert full_check_cr_pair(pair).ok
    assert len(calls) == 2 * h * pair.r.dim + 4 * (14 * 13 // 2) == 644
