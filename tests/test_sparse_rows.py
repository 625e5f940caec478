"""One form for subspaces and orbit-model rows, from the catalog to the records.

A Subspace is its sparse echelon form, and an OrbitModel keeps sparse
rows.  Their dense views (Subspace.rows, OrbitModel.real_rows and
isotropy_rows) exist for the records and payloads that show them.
Verifying a catalog entry shows none, so it must build none.
"""

from fractions import Fraction

import pytest

from crkit.algebra import LieAlgebra, Subspace
from crkit.catalog import (
    heisenberg_solv_entry,
    quadric_orbit,
    twisted_diagonal_orbit,
    verify_entry,
)
from crkit.complexify import OrbitModel

# the builders behind their caches, so every entry, model and pair is new
FRESH = {
    "quadric(3,2)": lambda: quadric_orbit.__wrapped__(3, 2),
    "twisted(2)": lambda: twisted_diagonal_orbit.__wrapped__(2),
    "heis_solv": heisenberg_solv_entry.__wrapped__,
}

ATOMS = (int, str, Fraction, type(None))


def reachable(root):
    """Every object reachable from root through attributes and containers.

    Algebras are not entered: the catalog's builders share them between
    entries, so what other code built on them says nothing about this
    entry.  Reads of a shared algebra's subspaces are caught by the
    recording view below instead.
    """
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, ATOMS + (LieAlgebra,)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return out


@pytest.mark.parametrize("name", sorted(FRESH))
def test_verify_entry_builds_no_dense_row(name, monkeypatch):
    reads = []
    view = Subspace.__dict__["rows"]

    def recorded(sub):
        reads.append(sub)
        return view.__get__(sub, Subspace)

    monkeypatch.setattr(Subspace, "rows", property(recorded))
    entry = FRESH[name]()
    assert verify_entry(entry).ok
    assert reads == []
    objects = reachable(entry)
    subspaces = [obj for obj in objects if isinstance(obj, Subspace)]
    models = [obj for obj in objects if isinstance(obj, OrbitModel)]
    # the model's g, ĥ, h, m and the pair's h and R at least
    assert len(subspaces) >= 6 and models == [entry.model]
    assert not [sub for sub in subspaces if "rows" in vars(sub)]
    assert "real_rows" not in vars(entry.model)
    assert "isotropy_rows" not in vars(entry.model)


def test_the_dense_views_are_built_on_first_read():
    # the check above is not vacuous: a payload's read builds the views
    entry = FRESH["heis_solv"]()
    model = entry.model
    assert "rows" not in vars(model.real_sub)
    assert len(model.real_sub.rows) == model.real_sub.dim
    assert "rows" in vars(model.real_sub)
    assert len(model.real_rows) == len(model.real_vectors)
    assert "real_rows" in vars(model)
