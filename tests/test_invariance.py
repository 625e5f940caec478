"""Metamorphic invariance of every roster entry under changes of ambient basis.

No single output of the pipeline can be checked alone, but every invariant
it computes is basis-free, so moving an orbit model by an automorphism of
its complex ambient must leave all of them unchanged (the metamorphic
relation of Chen, Cheung and Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01, 1998).  Two fixed transports
per entry: exp(ad x) for a nonreal ad-nilpotent x, and a permutation of
the complex ambient basis.  Both keep the real algebra and its aligned
basis, so the induced CR pair, its Levi form (with the default
codirection), the fibration and, where they apply, the fiber
globalization facts are literally the same; the transported model also
goes through an orbit payload round trip.
"""

import json

import pytest

from crkit.catalog import ROSTER, CatalogEntry, get_entry, verify_entry
from crkit.complexify import apply_complex_matrix_to_model, fiber_globalization_check
from crkit.cr import cr_type, levi_form
from crkit.fileio import load_orbit_model, orbit_payload
from crkit.globalize import verdict

from .support import nonreal_exp_ad, permute_model

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
        "fiber": (entry.fibration.fiber_dim, entry.taxon.tag),
        "verdict": (v.rows(), v.notes),
    }
    # the fiber globalization facts apply to degenerate fibrations with h = 0
    if entry.fibration.degenerate and entry.model.h.dim == 0:
        rep = fiber_globalization_check(entry.model)
        out["fiber_globalization"] = [(c.name, c.ok, c.detail) for c in rep.checks]
    return out


def dims(model):
    return model.codim, model.h.dim, model.m.dim


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("name", ROSTER)
def test_invariants_survive_ambient_transport(name, transport):
    entry = get_entry(name)
    moved = TRANSPORTS[transport](entry.model)
    assert moved.real_algebra is entry.model.real_algebra
    moved_entry = CatalogEntry(
        entry.name, entry.family, entry.params, moved, entry.expected, entry.pi1,
        entry.compact_group, entry.kahler, entry.taxon_context, entry.notes,
    )
    before = invariants(entry)
    assert invariants(moved_entry) == before
    assert ("fiber_globalization" in before) == (name in ("heis_solv", "c2_torus"))
    assert verify_entry(moved_entry).ok
    loaded = load_orbit_model(json.loads(json.dumps(orbit_payload(moved))))
    assert dims(loaded) == dims(moved) == dims(entry.model)
