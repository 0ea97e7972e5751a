"""Metamorphic tests: relabelling vertex ids leaves every invariant alone.

Every fast path leans on canonical order and on ids ascending along the face
order.  Permuting the vertex ids of a map's domain and codomain moves every
id and every simplex's place in that order, but it changes no invariant.  So
each relabelled map, rebuilt through the checked constructors, must report
what the map itself reports.  The same holds for a PL function whose vertex
ids are permuted and whose values go through an increasing affine map
a v + b: the level sets are the same, only their values move.
"""

import random
from fractions import Fraction

import pytest

from reebforge import (
    BudgetExceededError,
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    b1_inequality_check,
    betti,
    descent_check,
    pl_as_simplicial_map,
    reeb_graph,
    reeb_space,
    verify_quotient,
)
from reebforge.fixtures import disk_collapse, grid_torus, random_function, random_map

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


def tied_torus(m, top):
    """A grid torus with values drawn from 0..top: flat edges and triangles."""
    rng = random.Random(f"tied:{m}:{top}")
    return PLFunction(grid_torus(m, m), [rng.randint(0, top) for _ in range(m * m)])


def row_torus(m):
    """A grid torus valued by row index: each level holds a whole row."""
    return PLFunction(grid_torus(m, m), [v // m for v in range(m * m)])


# Random functions of the battery's seeds, and grid tori with tied values,
# each with the seed of its relabellings.
FUNCTIONS = [
    *(pytest.param(lambda s=s: random_function(s), s, id=f"random{s}") for s in range(50)),
    *(
        pytest.param(lambda m=m, top=top: tied_torus(m, top), 100 + 10 * m + top, id=f"tied{m}-{top}")
        for m, top in [(3, 0), (3, 1), (4, 2), (5, 4)]
    ),
    pytest.param(lambda: row_torus(4), 200, id="rows4"),
]


def relabel_function(g, rng):
    """``g`` with its vertex ids permuted and its values sent to a v + b, a > 0."""
    n = g.complex.num_vertices
    perm = rng.sample(range(n), n)
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    values = [None] * n
    for v, x in enumerate(g.values):
        values[perm[v]] = a * x + b
    return PLFunction(relabelled(g.complex, perm), values)


def function_invariants(g):
    graph = reeb_graph(g)
    space = reeb_space(pl_as_simplicial_map(g).map)
    return {
        "graph_nodes": len(graph.nodes),
        "graph_edges": len(graph.edges),
        "graph_betti": graph.betti(),
        "node_levels": sorted(node.level for node in graph.nodes),
        "reeb_betti": space.betti(),
        "strata": len(space.strata),
    }


@pytest.mark.parametrize("build, seed", FUNCTIONS)
def test_relabelling_a_function_keeps_its_invariants(build, seed):
    g = build()
    want = function_invariants(g)
    rng = random.Random(seed)
    for _ in range(3):
        assert function_invariants(relabel_function(g, rng)) == want
