"""Metamorphic invariance of every roster entry under changes of ambient basis.

No single output of the pipeline can be checked alone, but every invariant
it computes is basis-free, so moving an orbit model by an automorphism of
its complex ambient must leave all of them unchanged (the metamorphic
relation of Chen, Cheung and Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01, 1998).  Two fixed transports
per entry: exp(ad x) for a nonreal ad-nilpotent x, and a permutation of
the complex ambient basis.  Both keep the order of the real rows, so the
real algebra read off them has the same constants, and the induced CR
pair, its Levi form (with the default codirection), the fibration and,
where they apply, the fiber globalization facts are literally the same;
the transported model also goes through an orbit payload round trip.

A third relation changes the real algebra's basis instead: the real rows
are combined by a seeded unimodular integer matrix, so the constants, the
CR pair and the Levi form's value coordinates all change.  The invariants
must not, and neither may the Levi signature once the codirection, a
covector on g/R, is carried along to the new value coordinates.
"""

import json
import random

import pytest

from crkit.catalog import ROSTER, CatalogEntry, get_entry, verify_entry
from crkit.complexify import OrbitModel, fiber_globalization_check
from crkit.cr import cr_type, levi_form, levi_signature
from crkit.fileio import load_orbit_model, orbit_payload
from crkit.globalize import verdict
from crkit.linalg import combine_rows, vec_add

from .support import apply_complex_matrix_to_model, nonreal_exp_ad, permute_model

TRANSPORTS = {
    "exp-ad-nonreal": lambda m: apply_complex_matrix_to_model(m, nonreal_exp_ad(m.ambient)),
    "permutation": lambda m: permute_model(m, list(reversed(range(m.ambient.dim)))),
}


def invariants(entry):
    pair = entry.cr_pair
    t = cr_type(pair)
    v = verdict(entry)
    out = {
        "verify": [(c.name, c.ok, c.detail) for c in verify_entry(entry).checks],
        "cr_type": (t.n, t.l, t.k),
        "levi_kernel_dim": levi_form(pair).kernel.dim,
        "fiber": (entry.fibration.fiber_dim, entry.taxon),
        "verdict": (v.rows(), v.notes),
    }
    # the fiber globalization facts apply to degenerate fibrations with h = 0
    if entry.fibration.degenerate and entry.model.h.dim == 0:
        rep = fiber_globalization_check(entry.model)
        out["fiber_globalization"] = [(c.name, c.ok, c.detail) for c in rep.checks]
    return out


def dims(model):
    return model.codim, model.h.dim, model.m.dim


def with_model(entry, model):
    """The catalog entry with its orbit model replaced, the record kept."""
    return CatalogEntry(
        entry.name, entry.family, entry.params, model, entry.expected, entry.pi1,
        entry.compact_group, entry.kahler, entry.quadric_refibers,
        entry.projective_plane_base, entry.notes,
    )


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("name", ROSTER)
def test_invariants_survive_ambient_transport(name, transport):
    entry = get_entry(name)
    moved = TRANSPORTS[transport](entry.model)
    assert moved.real_algebra == entry.model.real_algebra
    moved_entry = with_model(entry, moved)
    before = invariants(entry)
    assert invariants(moved_entry) == before
    assert ("fiber_globalization" in before) == (name in ("heis_solv", "c2_torus"))
    assert verify_entry(moved_entry).ok
    loaded = load_orbit_model(json.loads(json.dumps(orbit_payload(moved))))
    assert dims(loaded) == dims(moved) == dims(entry.model)
    assert invariants(with_model(entry, loaded)) == before


def unimodular(k, rng):
    """Coefficient rows of a k x k integer matrix of determinant 1 or -1.

    A permutation matrix, then 2k additions of a small multiple of one row
    to another.
    """
    rows = [{a: 1} for a in rng.sample(range(k), k)]
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1, 2))
        rows[i] = vec_add(rows[i], {a: c * x for a, x in rows[j].items()})
    return rows


def transported_codirection(w, pair, new_pair, coeffs):
    """The covector w on g/R of pair, in the value coordinates of new_pair.

    Row a of coeffs is the new basis vector e'_a in old coordinates, so the
    new coordinate c' of the covector is w on the class of the new value
    vector e'_{c'}, read in the old value coordinates.
    """
    old_values = levi_form(pair).value_indices
    out = []
    for v in levi_form(new_pair).value_indices:
        residual = pair.r.reduce(coeffs[v])
        out.append(sum(x * residual.get(c, 0) for x, c in zip(w, old_values)))
    return tuple(out)


CODIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, -3))


@pytest.mark.parametrize("name", ROSTER)
def test_invariants_survive_unimodular_rebase(name):
    entry = get_entry(name)
    model = entry.model
    coeffs = unimodular(len(model.real_vectors), random.Random(name))
    rebased = with_model(entry, OrbitModel(
        model.ambient,
        combine_rows(coeffs, model.real_vectors),
        model.isotropy_generators,
        name=model.name,
    ))
    assert rebased.model.real_vectors != model.real_vectors
    assert invariants(rebased) == invariants(entry)
    pair, new_pair = entry.cr_pair, rebased.cr_pair
    if model.codim == 2 and not levi_form(pair).degenerate_domain:
        for w in CODIRECTIONS:
            moved = transported_codirection(w, pair, new_pair, coeffs)
            assert levi_signature(new_pair, moved) == levi_signature(pair, w)
