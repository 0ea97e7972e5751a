"""Metamorphic tests: relabelling vertex ids leaves every invariant alone.

Every fast path leans on canonical order and on ids ascending along the face
order.  Permuting the vertex ids of a map's domain and codomain moves every
id and every simplex's place in that order, but it changes no invariant.  So
each relabelled map, rebuilt through the checked constructors, must report
what the map itself reports.
"""

import random

import pytest

from reebforge import (
    BudgetExceededError,
    SimplicialComplex,
    SimplicialMap,
    b1_inequality_check,
    betti,
    descent_check,
    reeb_space,
    verify_quotient,
)
from reebforge.fixtures import disk_collapse, random_map

# The 50 maps of the descent battery and both disks, each with the seed of
# its relabellings.
BATTERY = [
    *(pytest.param(lambda s=s: random_map(s), s, id=f"random{s}") for s in range(50)),
    pytest.param(lambda: disk_collapse(1), 50, id="disk1"),
    pytest.param(lambda: disk_collapse(2), 51, id="disk2"),
]


def relabelled(k, perm):
    """``k`` with vertex v renamed perm[v], through the checked constructor."""
    return SimplicialComplex(k.num_vertices, [[perm[v] for v in s] for s in k.simplex_set])


def relabel_map(f, rng):
    """``f`` with its domain's and its codomain's vertex ids permuted."""
    dom = rng.sample(range(f.domain.num_vertices), f.domain.num_vertices)
    cod = rng.sample(range(f.codomain.num_vertices), f.codomain.num_vertices)
    images = [None] * f.domain.num_vertices
    for v, w in enumerate(f.vertex_images):
        images[dom[v]] = cod[w]
    return SimplicialMap(relabelled(f.domain, dom), relabelled(f.codomain, cod), images)


def descent_or_refusal(f, target):
    try:
        return descent_check(f, target=target, p_max=2)["power_betti"]
    except BudgetExceededError as exc:
        return type(exc), str(exc), exc.stage, exc.count, exc.cap


def invariants(f):
    space = reeb_space(f)
    rows = b1_inequality_check(f)["components"]
    return {
        "domain_betti": betti(f.domain),
        "reeb_betti": space.betti(),
        "strata": len(space.strata),
        "descent_image": descent_or_refusal(f, "image"),
        "descent_reeb": descent_or_refusal(f, "reeb"),
        "b1_rows": sorted(tuple(sorted(r.items())) for r in rows),
        "quotient_ok": verify_quotient(f)["ok"],
    }


@pytest.mark.parametrize("build, seed", BATTERY)
def test_relabelling_a_map_keeps_its_invariants(build, seed):
    f = build()
    want = invariants(f)
    rng = random.Random(seed)
    for _ in range(3):
        assert invariants(relabel_map(f, rng)) == want
