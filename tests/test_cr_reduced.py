"""check_cr_pair's loops modulo h against the full ordered loops.

The library checks isotropy on h x complement and integrability on
complement x complement once kernel-exactness and J^2 = -1 hold and h is
a subalgebra, and reruns the full loop for the witness of a failure.
support.full_check_cr_pair keeps the full loops over R's rows.  The pairs
here all have h != 0; J is moved on R/h by conjugation, scaling, an
h-valued term, a swap of h with the complement, a leak of h or a
complement row sent to 0, so that every row fails somewhere, and the
whole Report, witnesses included, must equal the full loops' Report.  On
the same pairs the complement and the canonical J must equal
support.oracle_complement and support.oracle_canonical_j, which reduce
R's rows modulo h and project every unit vector.
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
    conjugated_pair,
    full_check_cr_pair,
    oracle_canonical_j,
    oracle_complement,
    pair_with_j,
    raw_j_on_h,
    rebased_pair,
)

ROWS = ("kernel-exactness", "square-minus-identity", "isotropy-compatibility", "integrability")


def times_ideal(k, pair):
    """The algebra k times pair (with h = 0), with h = k: h acts trivially on R/h."""
    n = k.dim
    g = direct_sum(k, pair.g)
    units = [basis_vector(g, t) for t in range(n)]
    rows = [(0,) * n + tuple(r) for r in pair.r.rows]
    j = {a + n: {b + n: x for b, x in col.items()} for a, col in pair.j_raw.items()}
    return CRPair(g, span(g, units), span(g, units + rows), j)


def bidiagonal(pair):
    """pair on the basis b_a = e_a + e_(a+1).

    With h's pivots first, R's echelon rows at them then have parts off h,
    so the full integrability loop fails first at another pair, with
    another witness, than the loop on the complement.
    """
    n = pair.g.dim
    return rebased_pair(pair, [[int(i in (a, a + 1)) for i in range(n)] for a in range(n)])


def open_h_pair():
    """A file pair whose h = span(x, y) in heisenberg + R^2 is not a subalgebra.

    Kernel-exactness and J^2 = -1 hold, and every pair with an argument
    off h passes, so only the full loops see [x, y] = z leave R.
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


def moved(pair, kind, entries):
    """pair with its raw J moved as kind says; entries feed the shear and the noise."""
    comp = complement_rows(pair)
    m = len(comp)
    p = shear(m, entries)
    if kind == "conjugate":
        return conjugated_pair(pair, p)
    if kind == "scale":
        return conjugated_pair(pair, p, scale=2)
    if kind == "h-noise":
        # an h-valued term on each complement row: J mod h is unchanged
        h = pair.h.rows
        noise = [[sum(entries[(i + t) % len(entries)] * row[c] for t, row in enumerate(h))
                  for c in range(pair.g.dim)] for i in range(m)]
        return conjugated_pair(pair, [[int(i == j) for j in range(m)] for i in range(m)],
                               h_noise=noise)
    on_h = raw_j_on_h(pair)
    on_comp = [[0] * pair.g.dim for _ in range(m)]
    if kind == "swap":
        # J h_t = c_t and J c_t = -h_t, J = 0 on the other rows of h: J^2 = -1
        # mod h holds when m <= dim h, and J(h) leaves h
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
    return pair_with_j(pair, on_h, on_comp)


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
    pair = base(name) if kind == "none" else moved(base(name), kind, entries)
    assert check_cr_pair(pair, connected) == full_check_cr_pair(pair, connected)
    # the complement and J's columns are read off R's echelon rows at its pivots
    assert list(pair.complement.items()) == list(oracle_complement(pair).items())
    assert list(pair.j.items()) == list(oracle_canonical_j(pair).items())


KERNEL, SQUARE, ISOTROPY, INTEGRABILITY = ROWS
SHEAR = [1, -1, 2, 0, 1] * 20


@pytest.mark.parametrize("name,kind,connected,fails", [
    ("quadric(2,2)", "none", True, set()),
    ("quadric(2,2)", "h-noise", True, set()),
    # of the preconditions only kernel-exactness fails
    ("quadric(2,2)", "swap", True, {KERNEL, ISOTROPY, INTEGRABILITY}),
    ("quadric(2,1)", "leak", True, {KERNEL, SQUARE, ISOTROPY, INTEGRABILITY}),
    ("sp_quadric(1,1)", "scale", True, {SQUARE, ISOTROPY, INTEGRABILITY}),
    ("quadric(2,2)", "conjugate", True, {ISOTROPY, INTEGRABILITY}),
    # the reduced isotropy loop fails first at another pair than the full loop
    ("sp_quadric(1,1)", "conjugate", True, {ISOTROPY, INTEGRABILITY}),
    # the connected condition fails, unreported: integrability takes the full loop
    ("quadric(2,1)", "conjugate", False, {INTEGRABILITY}),
    # h is an ideal, so isotropy holds for any J: integrability fails alone
    ("sl2 x heis_solv", "conjugate", True, {INTEGRABILITY}),
    ("sl2 x heis_solv", "conjugate", False, {INTEGRABILITY}),
    # ... and the reduced integrability loop fails first at another pair
    ("sl2 x heis_solv, rebased", "conjugate", True, {INTEGRABILITY}),
    ("open h", "none", True, {ISOTROPY, INTEGRABILITY}),
    ("open h", "none", False, {INTEGRABILITY}),
    # J(h) <= h, but J mod h kills a complement row
    ("quadric(2,1)", "kill", True, {KERNEL, SQUARE, ISOTROPY, INTEGRABILITY}),
])
def test_every_row_fails_somewhere_with_the_full_loops_witness(name, kind, connected, fails):
    pair = base(name) if kind == "none" else moved(base(name), kind, SHEAR)
    report = check_cr_pair(pair, connected)
    assert failing(report) == fails
    assert (report.by_name(ISOTROPY).ok is None) == (not connected)
    assert report == full_check_cr_pair(pair, connected)


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
