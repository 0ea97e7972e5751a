import functools
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebforge import (
    BudgetExceededError,
    EmptyComplexError,
    InvalidParamsError,
    InvariantError,
    PLFunction,
    ReebComplex,
    SimplicialComplex,
    SimplicialMap,
    UnknownSimplexError,
    ValueCountMismatchError,
    b1_inequality_check,
    barycentric_subdivision,
    betti,
    connected_components,
    euler_characteristic,
    fiber_components_at,
    pl_as_simplicial_map,
    reeb_graph,
    reeb_space,
    staircase_product,
    verify_quotient,
)
from reebforge.fixtures import (
    boundary_delta3,
    circle,
    disk_collapse,
    full_simplex,
    grid_torus,
    path_complex,
    product_power,
    random_function,
    random_map,
    torus_height,
)
from reebforge import complexes, descent_check, homology, reeb
from reebforge.fiberprod import fiber_power_betti, fiber_power_nerve, image_subcomplex
from reebforge.complexes import _face_pairs
from reebforge.homology import regular_cw_betti
from reebforge.io import dumps_report, reeb_complex_to_doc, reeb_graph_to_dot
from reebforge.reeb import ReebNode

from .oracles import (
    b1_rows_by_face_components,
    chains_by_stack,
    convolve,
    first_non_simplicial,
    level_component_count,
    level_spans_per_simplex,
    levels_by_fraction_sort,
    minimal_torus,
    partition_up_closed,
    reeb_graph_rescan,
    reeb_space_by_keeping_facets,
    reeb_space_scan,
    slice_cells_and_up_sets,
    slice_up_sets_by_level,
    stratum_poset,
)
from .test_fiberprod import assert_boundary_squares_to_zero
from .test_homology import simplicial_complexes
from .test_metamorphic import relabel_function


def height_on_square_circle():
    g = PLFunction(circle(4), [Fraction(0), Fraction(1), Fraction(2), Fraction(1)])
    return g


def test_reeb_graph_of_circle_height_is_a_four_cycle():
    graph = reeb_graph(height_on_square_circle())
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 4
    assert graph.betti() == (1, 1)
    assert graph == reeb_graph(height_on_square_circle())  # canonical output


def test_reeb_graph_node_counts_match_level_oracle():
    g = height_on_square_circle()
    levels = sorted({v for v in g.values})
    for i, t in enumerate(levels):
        expected = level_component_count(g.complex, g.values, t)
        got = sum(1 for n in graph_nodes_at(reeb_graph(g), t))
        assert got == expected
    # Edge counts across each gap match component counts at midpoints.
    graph = reeb_graph(g)
    for lo, hi in zip(levels, levels[1:]):
        mid = (lo + hi) / 2
        expected = level_component_count(g.complex, g.values, mid)
        got = sum(
            1
            for a, b in graph.edges
            if graph.nodes[a].value == lo and graph.nodes[b].value == hi
        )
        assert got == expected


def graph_nodes_at(graph, value):
    return [n for n in graph.nodes if n.value == value]


def test_reeb_graph_of_constant_function():
    tri = full_simplex(2)
    graph = reeb_graph(PLFunction(tri, [Fraction(7)] * 3))
    assert len(graph.nodes) == 1
    assert len(graph.edges) == 0


def test_reeb_graph_vertex_tagging():
    g = height_on_square_circle()
    graph = reeb_graph(g)
    for v, node in graph.vertex_to_node.items():
        assert graph.nodes[node].value == g.values[v]


def test_value_count_mismatch():
    with pytest.raises(ValueCountMismatchError):
        PLFunction(circle(3), [Fraction(0)])


def test_reeb_graph_uses_only_two_skeleton():
    # Adding a 3-cell changes nothing the sweep sees.
    solid = full_simplex(3)
    skel = solid.skeleton(2)
    assert (solid.dim, skel.dim) == (3, 2)
    values = [Fraction(v) for v in (0, 1, 2, 3)]
    a = reeb_graph(PLFunction(solid, values))
    b = reeb_graph(PLFunction(skel, values))
    assert a == b


def test_torus_height_reeb_graph_has_one_loop():
    height, _ = torus_height()
    graph = reeb_graph(height)
    assert graph.betti() == (1, 1)
    # Oracle: component counts at every level and gap midpoint.
    levels = sorted({v for v in height.values})
    for t in levels:
        expected = level_component_count(height.complex, height.values, t)
        assert len(graph_nodes_at(graph, t)) == expected
    for lo, hi in zip(levels, levels[1:]):
        expected = level_component_count(height.complex, height.values, (lo + hi) / 2)
        got = sum(
            1
            for a, b in graph.edges
            if graph.nodes[a].value == lo and graph.nodes[b].value == hi
        )
        assert got == expected


def test_seven_vertex_torus_height_reeb_graph():
    torus = minimal_torus()
    g = PLFunction(torus, [Fraction(v) for v in range(7)])
    graph = reeb_graph(g)
    assert graph.betti() == (1, 1)
    levels = sorted(g.values)
    for lo, hi in zip(levels, levels[1:]):
        mid = (lo + hi) / 2
        expected = level_component_count(torus, g.values, mid)
        got = sum(
            1
            for a, b in graph.edges
            if graph.nodes[a].value == lo and graph.nodes[b].value == hi
        )
        assert got == expected


def test_reeb_space_of_identity_is_the_domain():
    for k in (circle(3), boundary_delta3()):
        ident = SimplicialMap(k, k, list(range(k.num_vertices)))
        space = reeb_space(ident)
        assert len(space.strata) == len(k.simplex_set)
        assert betti(space.realization) == betti(k)


def test_disk_collapse_one_gives_an_interval():
    space = reeb_space(disk_collapse(1))
    assert betti(space.realization) == (1, 0)
    assert len(space.strata) == 7
    assert repr(space) == "ReebComplex(strata=7)"


def test_disk_collapse_two_gives_a_sphere():
    f = disk_collapse(2)
    assert betti(f.domain) == (1,)
    assert betti(reeb_space(f).realization) == (1, 0, 1)


def test_constant_map_on_disconnected_domain():
    two_edges = SimplicialComplex(4, [(0,), (1,), (2,), (3,), (0, 1), (2, 3)])
    point = SimplicialComplex(1, [(0,)])
    const = SimplicialMap(two_edges, point, [0, 0, 0, 0])
    space = reeb_space(const)
    assert len(space.strata) == 2
    assert verify_quotient(const)["ok"]


def test_fiber_components_disk1():
    f = disk_collapse(1)
    # Over the doubled vertex the fiber has two pieces; over an edge, one.
    assert len(fiber_components_at(f, (0,))) == 2
    assert len(fiber_components_at(f, (0, 1))) == 1
    assert len(fiber_components_at(f, (1,))) == 1


def test_fiber_components_constant_map():
    k = minimal_torus()
    point = SimplicialComplex(1, [(0,)])
    const = SimplicialMap(k, point, [0] * 7)
    assert len(fiber_components_at(const, (0,))) == 1


def test_fiber_components_unknown_simplex():
    with pytest.raises(UnknownSimplexError):
        fiber_components_at(disk_collapse(1), (0, 1, 2))


def test_fiber_components_match_full_subcomplex_over_vertices():
    # Dual route: strata over a codomain vertex w against the components of
    # the full subcomplex on the preimage vertices of w.
    for f in (disk_collapse(1), disk_collapse(2), random_map(3), random_map(8)):
        for w in range(f.codomain.num_vertices):
            direct = fiber_components_at(f, (w,)) if (w,) in f.codomain.simplex_set else []
            preimage = [v for v in range(f.domain.num_vertices) if f.vertex_images[v] == w]
            if not preimage:
                assert direct == [] or all(
                    all(any(f.vertex_images[u] == w for u in s) for s in cls) for cls in direct
                )
                continue
            sub, old_to_new = f.domain.restrict_to_vertices(preimage)
            expected = len(connected_components(sub, sub.simplices)) if sub.simplex_set else 0
            assert len(direct) == expected


def test_verify_quotient_identity():
    k = boundary_delta3()
    ident = SimplicialMap(k, k, list(range(4)))
    assert verify_quotient(ident)["ok"]


def test_verify_quotient_disk():
    report = verify_quotient(disk_collapse(2))
    assert report == {
        "commutes": True,
        "fibers_connected": True,
        "vertex_surjective": True,
        "ok": True,
    }


def test_verify_quotient_refuses_the_product_before_building_anything(monkeypatch):
    # sd(X) of the product has 1,507,489 simplices: the check is refused on
    # that count, before the Reeb space or sd(X) is built.
    def refuse(*args):
        raise AssertionError("a construction ran")

    f = product_power(disk_collapse(2), 2)
    monkeypatch.setattr(reeb, "reeb_space", refuse)
    monkeypatch.setattr(reeb, "barycentric_subdivision", refuse)
    with pytest.raises(BudgetExceededError) as info:
        verify_quotient(f)
    exc = info.value
    assert (exc.stage, exc.count, exc.cap) == ("quotient subdivision", 1_507_489, 200_000)
    assert str(exc) == "1507489 simplices of the quotient map's sd(X) exceed the cap of 200000"


def test_verify_quotient_cap_resolves_as_descent_checks_does(monkeypatch):
    # The disk's sd(X) has 337 simplices.
    f = disk_collapse(2)
    assert verify_quotient(f, cell_cap=337)["ok"]
    with pytest.raises(BudgetExceededError) as info:
        verify_quotient(f, cell_cap=336)
    assert (info.value.count, info.value.cap) == (337, 336)
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "336")
    with pytest.raises(BudgetExceededError):
        verify_quotient(f)
    assert verify_quotient(f, cell_cap=337)["ok"]
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "abc")
    with pytest.raises(InvalidParamsError):
        verify_quotient(f)
    for bad in (0, True, 2.5):
        with pytest.raises(InvalidParamsError):
            verify_quotient(f, cell_cap=bad)


def test_verify_quotient_refuses_a_bad_cap_before_it_counts(monkeypatch):
    # The cap is resolved first: an invalid one is refused before the facet
    # table is built and sd(X)'s chains are counted.
    def refuse(*args):
        raise AssertionError("sd(X) counted")

    f = disk_collapse(2)
    monkeypatch.setattr(reeb, "_chain_count", refuse)
    for bad in (0, True):
        with pytest.raises(InvalidParamsError):
            verify_quotient(f, cell_cap=bad)
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "abc")
    with pytest.raises(InvalidParamsError):
        verify_quotient(f)


def test_b1_inequality_examples():
    # Identity: equality.
    k = minimal_torus()
    ident = SimplicialMap(k, k, list(range(7)))
    report = b1_inequality_check(ident)
    assert report["ok"]
    row = report["components"][0]
    assert row["b1_domain"] == row["b1_reeb"] == 2

    # Disk collapse: 0 <= 0.
    report = b1_inequality_check(disk_collapse(2))
    assert report["components"][0] == {
        "vertices": 13,
        "b1_domain": 0,
        "b1_reeb": 0,
        "holds": True,
    }

    # Torus height: 1 <= 2.
    _, sliced = torus_height()
    report = b1_inequality_check(sliced)
    assert report["ok"]
    assert report["components"][0]["b1_domain"] == 2
    assert report["components"][0]["b1_reeb"] == 1


def torus_and_circle_map():
    # Two components: the minimal torus on 0..6 and a 4-cycle on 7..10.
    torus = minimal_torus().simplices
    square = circle(4).simplices
    domain = SimplicialComplex(11, torus + tuple(tuple(v + 7 for v in s) for s in square))
    return SimplicialMap(domain, full_simplex(2), [v % 3 for v in range(7)] + [0, 1, 2, 0])


def triangle_and_square_map():
    # Two components with interleaved ids: the 3-cycle 0-2-4 and the 4-cycle
    # 1-3-5-6, the map that CI's console step checks with `verify --b1`.
    edges = [(0, 2), (0, 4), (2, 4), (1, 3), (1, 6), (3, 5), (5, 6)]
    domain = SimplicialComplex(7, [(v,) for v in range(7)] + edges)
    return SimplicialMap(domain, full_simplex(2), [0, 0, 1, 0, 2, 0, 0])


def disjoint_union(maps, ids, num_vertices):
    """The disjoint union of maps onto one codomain, on ``num_vertices``
    ids: the maps' vertices, counted map after map, take ``ids`` in order."""
    simplices = []
    images = [0] * num_vertices
    offset = 0
    for f in maps:
        new = ids[offset : offset + f.domain.num_vertices]
        simplices += [tuple(new[v] for v in s) for s in f.domain.simplices]
        for v, image in enumerate(f.vertex_images):
            images[new[v]] = image
        offset += f.domain.num_vertices
    return SimplicialMap(SimplicialComplex(num_vertices, simplices), maps[0].codomain, images)


@functools.cache
def battery_seeds_by_codomain():
    seeds = {}
    for seed in range(50):
        seeds.setdefault(random_map(seed).codomain.simplices, []).append(seed)
    return seeds


@st.composite
def interleaved_battery_unions(draw):
    """A disjoint union of 2-3 battery maps that share a codomain, repeats
    allowed, with their vertex ids shuffled together so that no component
    is a contiguous id range, and 1-2 ids left unused."""
    group = draw(st.sampled_from(sorted(battery_seeds_by_codomain().values())))
    maps = [random_map(s) for s in draw(st.lists(st.sampled_from(group), min_size=2, max_size=3))]
    used = sum(f.domain.num_vertices for f in maps)
    total = used + draw(st.integers(1, 2))
    ids = draw(st.permutations(range(total)))[:used]
    offset = 0
    for f in maps:
        part = ids[offset : offset + f.domain.num_vertices]
        assume(max(part) - min(part) >= len(part))
        offset += f.domain.num_vertices
    return disjoint_union(maps, ids, total)


def assert_b1_rows_match_the_face_relation_components(f):
    report = b1_inequality_check(f)
    assert report["components"] == b1_rows_by_face_components(f)
    assert report["ok"] == all(row["holds"] for row in report["components"])
    return report


@given(interleaved_battery_unions())
@settings(max_examples=40, deadline=None)
def assert_b1_rows_match_on_interleaved_battery_unions(f):
    assert_b1_rows_match_the_face_relation_components(f)


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(1), lambda: disk_collapse(2), lambda: torus_height()[1],
     torus_and_circle_map, triangle_and_square_map,
     *(lambda s=s: random_map(s) for s in range(50)),
     lambda: product_power(disk_collapse(2), 2), None],
    ids=["disk1", "disk2", "torus_slice", "two_components", "interleaved_cycles"]
    + [f"random{s}" for s in range(50)] + ["product", "interleaved_unions"],
)
def test_b1_rows_match_the_face_relation_components(build):
    if build is None:
        assert_b1_rows_match_on_interleaved_battery_unions()
        return
    report = assert_b1_rows_match_the_face_relation_components(build())
    rows = [tuple(r.values()) for r in report["components"]]
    if build is torus_and_circle_map:
        assert [row[:2] for row in rows] == [(7, 2), (4, 1)]
    if build is triangle_and_square_map:
        assert rows == [(3, 1, 1, True), (4, 1, 0, True)]


@pytest.mark.parametrize("build", [torus_and_circle_map, triangle_and_square_map])
def test_b1_check_reads_one_reeb_space_and_no_restricted_copy(monkeypatch, build):
    # Each component's parts, renumbered in ascending id order, are the very
    # tables that the restricted copy hands to the collapse, call for call.
    tables = []

    def recording(real):
        def record(dims, facets):
            tables.append((list(dims), [tuple(fs) for fs in facets]))
            return real(dims, facets)
        return record

    monkeypatch.setattr(homology, "_delta_betti", recording(homology._delta_betti))
    monkeypatch.setattr(reeb, "_delta_betti", recording(reeb._delta_betti))
    f = build()
    want = b1_rows_by_face_components(f)
    assert len(want) >= 2
    copied, tables[:] = tables[:], []

    def refuse(*args, **kwargs):
        raise AssertionError("the b1 check built a restricted copy")

    monkeypatch.setattr(SimplicialComplex, "restrict_to_vertices", refuse)
    monkeypatch.setattr(reeb, "SimplicialMap", refuse)
    calls = []
    real = reeb.reeb_space
    monkeypatch.setattr(reeb, "reeb_space", lambda g: calls.append(g) or real(g))
    assert b1_inequality_check(f)["components"] == want
    assert len(calls) == 1 and calls[0] is f
    assert tables == copied


@pytest.mark.parametrize("num_vertices", [0, 2])
def test_b1_check_of_an_empty_domain_has_no_rows(num_vertices):
    empty = SimplicialComplex(num_vertices, [])
    f = SimplicialMap(empty, SimplicialComplex(1, [(0,)]), [0] * num_vertices)
    assert b1_inequality_check(f) == {"components": [], "ok": True}


def test_reeb_space_idempotence():
    for f in (disk_collapse(1), disk_collapse(2), random_map(5)):
        space = reeb_space(f)
        again = reeb_space(space.quotient_map)
        assert betti(again.realization) == betti(space.realization)


def test_pl_conversion_matches_sweep_on_named_functions():
    cases = [
        height_on_square_circle(),
        PLFunction(path_complex(4), [Fraction(0), Fraction(3), Fraction(1), Fraction(2)]),
        torus_height()[0],
    ]
    for g in cases:
        graph_betti = reeb_graph(g).betti()
        space_betti = betti(reeb_space(pl_as_simplicial_map(g).map).realization)
        assert graph_betti == space_betti


def test_pl_conversion_handles_repeated_values():
    # Two vertices share a value; the slicing must still be simplicial.
    g = PLFunction(circle(4), [Fraction(0), Fraction(1), Fraction(1), Fraction(0)])
    model = pl_as_simplicial_map(g)
    assert betti(reeb_space(model.map).realization) == reeb_graph(g).betti()


def test_pl_conversion_codomain_is_a_path():
    model = pl_as_simplicial_map(height_on_square_circle())
    kinds = [lvl[0] for lvl in model.codomain_levels]
    assert kinds == ["value", "gap", "value", "gap", "value"]


def test_kunneth_product_law_small():
    g = height_on_square_circle()
    f = pl_as_simplicial_map(g).map
    factor = betti(reeb_space(f).realization)
    prod = staircase_product(f.domain, f.domain, f, f).product_map
    assert betti(reeb_space(prod).realization) == convolve(factor, factor)


def test_quotient_map_carrier_commutation():
    f = disk_collapse(2)
    space = reeb_space(f)
    q = space.quotient_map
    for i, sigma in enumerate(f.domain.simplices):
        assert space.codomain_projection[q.vertex_images[i]] == f.image_simplex(sigma)


def assert_stratum_betti_matches_realization(f):
    space = reeb_space(f)
    bv = space.betti()
    assert bv == betti(space.realization)
    assert bv.euler == euler_characteristic(space.realization)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_stratum_betti_matches_realization_on_random_maps(seed):
    assert_stratum_betti_matches_realization(random_map(seed))


@pytest.mark.parametrize(
    "build",
    [
        lambda: disk_collapse(1),
        lambda: disk_collapse(2),
        lambda: torus_height()[1],
        *(lambda s=s: pl_as_simplicial_map(random_function(s)).map for s in range(10)),
    ],
    ids=["disk1", "disk2", "torus"] + [f"sliced{s}" for s in range(10)],
)
def test_stratum_betti_matches_realization(build):
    assert_stratum_betti_matches_realization(build())


# Strata and fiber components against the sort-and-index partition that the
# coface-index union-find replaced.


@pytest.mark.parametrize(
    "build",
    [
        *(lambda s=s: random_map(s) for s in range(50)),
        lambda: disk_collapse(1),
        lambda: disk_collapse(2),
        lambda: torus_height()[1],
        lambda: product_power(disk_collapse(2), 2),
        *(lambda s=s: pl_as_simplicial_map(random_function(s)).map for s in range(10)),
    ],
    ids=[f"random{s}" for s in range(50)]
    + ["disk1", "disk2", "torus", "product"]
    + [f"sliced{s}" for s in range(10)],
)
def test_strata_and_fiber_components_match_oracle_partition(build):
    f = build()
    space = reeb_space(f)
    exact_members = [[] for _ in space.strata]
    for s, i in zip(f.domain.simplices, space.exact_strata):
        exact_members[i].append(s)
    strata_by_tau = {}
    for stratum, members in zip(space.strata, exact_members):
        classes = strata_by_tau.setdefault(stratum.tau, [])
        assert stratum.component == len(classes)
        classes.append(members)
    images = [(s, set(f.image_simplex(s))) for s in f.domain.simplices]
    for tau in f.codomain.simplices:
        want = partition_up_closed([s for s, image in images if image.issuperset(tau)])
        # A stratum's exact-image members are its class's members over tau.
        exact = [[s for s in cls if f.image_simplex(s) == tau] for cls in want]
        assert strata_by_tau.get(tau, []) == exact
        assert fiber_components_at(f, tau) == want


# The strata from the exact-image groups against the S_tau scan they
# replaced.


def assert_reeb_space_matches_scan(f, quotient=True):
    space = reeb_space(f)
    want = reeb_space_scan(f)
    assert space.strata == want.strata
    assert space.facets == want.facets
    assert stratum_poset(space).covers == stratum_poset(want).covers
    assert space.exact_strata == want.exact_strata
    assert space.betti() == want.betti()
    if quotient:
        assert space.quotient_map.vertex_images == want.exact_strata


SCAN_CASES = [
    *(pytest.param(lambda s=s: random_map(s), True, id=f"random{s}") for s in range(50)),
    pytest.param(lambda: disk_collapse(1), True, id="disk1"),
    pytest.param(lambda: disk_collapse(2), True, id="disk2"),
    pytest.param(lambda: torus_height()[1], True, id="torus"),
    # sd(X) of the product has 1.5 million simplices: the scan compares its
    # quotient images through ``exact_strata`` alone.
    pytest.param(lambda: product_power(disk_collapse(2), 2), False, id="product"),
    *(
        pytest.param(
            lambda s=s: pl_as_simplicial_map(random_function(s)).map, True, id=f"sliced{s}"
        )
        for s in range(10)
    ),
]


@pytest.mark.parametrize("build, quotient", SCAN_CASES)
def test_reeb_space_matches_s_tau_scan(build, quotient):
    assert_reeb_space_matches_scan(build(), quotient)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_reeb_space_matches_s_tau_scan_on_random_maps(seed):
    assert_reeb_space_matches_scan(random_map(seed))


# The swap rule must give the labeling it replaced, every simplex joined to
# all of its image-keeping facets: the same strata, the same roots and so the
# same stratum ids.  Random maps are 2-complexes, so their members have at
# most two vertices beyond the transversal ones; the product's have up to
# four, and a constant map on the 4-simplex has a member of every size.


def assert_reeb_space_matches_full_join(f):
    space = reeb_space(f)
    want = reeb_space_by_keeping_facets(f)
    assert space.strata == want.strata
    assert space.exact_strata == want.exact_strata
    assert space.facets == want.facets


def _extra_vertices(f):
    return max(len(s) - len(tau) for s, tau in zip(f.domain.simplices, f.simplex_images))


def test_reeb_space_swap_rule_matches_full_join_on_fixtures():
    constant = SimplicialMap(full_simplex(4), SimplicialComplex(1, [(0,)]), [0] * 5)
    maps = [product_power(disk_collapse(2), 2), disk_collapse(1), disk_collapse(2), constant]
    assert [_extra_vertices(f) for f in maps] == [4, 0, 2, 4]
    for f in maps:
        assert_reeb_space_matches_full_join(f)


def test_reeb_space_swap_rule_matches_full_join_on_battery_and_quotients():
    for seed in range(50):
        f = random_map(seed)
        assert_reeb_space_matches_full_join(f)
        assert_reeb_space_matches_full_join(reeb_space(f).quotient_map)
    for f in (disk_collapse(1), disk_collapse(2)):
        assert_reeb_space_matches_full_join(reeb_space(f).quotient_map)


@pytest.mark.parametrize("size", [6, 9, 14, 20])
def test_reeb_space_swap_rule_matches_full_join_on_random_maps(size):
    maps = [random_map(seed, size) for seed in range(30)]
    assert max(map(_extra_vertices, maps)) == 2
    for f in maps:
        assert_reeb_space_matches_full_join(f)


def test_reeb_space_joins_swap_facets_without_the_generic_union_find(monkeypatch):
    def refuse(*args):
        raise AssertionError("generic union-find called")

    monkeypatch.setattr(reeb, "label_components", refuse)
    monkeypatch.setattr(reeb, "component_classes", refuse)
    for f in (disk_collapse(2), torus_height()[1], product_power(disk_collapse(2), 2)):
        space = reeb_space(f)
        taus = f.simplex_images
        swaps = 0
        for i, (fs, tau) in enumerate(zip(f.domain.facets, taus)):
            if len(fs) == len(tau) + 1:
                keeping = [g for g in fs if taus[g] == tau]
                assert len(keeping) == 2
                assert all(len(f.domain.simplices[g]) == len(tau) for g in keeping)
                assert {space.exact_strata[g] for g in keeping} == {space.exact_strata[i]}
                swaps += 1
        assert swaps


def test_components_over_one_tau_are_numbered_by_smallest_id():
    # Over vertex 0: {0, 4, (0, 4)}, {1, 2, (1, 2)} and {3}.  By smallest id
    # (0, 1, 3) they come A, B, C; by largest id (5, 6, 3), C, A, B.
    domain = SimplicialComplex(5, [(0,), (1,), (2,), (3,), (4,), (0, 4), (1, 2)])
    f = SimplicialMap(domain, SimplicialComplex(1, [(0,)]), [0] * 5)
    space = reeb_space(f)
    assert [s.component for s in space.strata] == [0, 1, 2]
    assert space.exact_strata == (0, 1, 1, 2, 0, 0, 1)
    assert_reeb_space_matches_scan(f)


# The quotient map is checked on the edges of sd(domain) alone; it must equal
# the map that the full check accepts, and a corrupted stratum list must
# fail on an edge.


@pytest.mark.parametrize("build, _quotient", SCAN_CASES)
def test_realization_equals_the_order_complex_of_the_stratum_poset(build, _quotient):
    space = reeb_space(build())
    assert space.realization == stratum_poset(space).order_complex()


@pytest.mark.parametrize("build, _quotient", SCAN_CASES)
def test_quotient_map_equals_its_checked_rebuild(build, _quotient):
    space = reeb_space(build())
    sd, _ = barycentric_subdivision(space.map.domain)
    assert space.quotient_map == SimplicialMap(sd, space.realization, space.exact_strata)


def named_edge(err):
    match = re.fullmatch(r"domain edge \((\d+), (\d+)\) maps to (\d+) and (\d+), .*", str(err))
    assert match, str(err)
    return tuple(map(int, match.groups()))


def first_incomparable_swap(space):
    """The stratum list with two entries swapped so that a face pair of the
    domain lands on two incomparable strata; the first such swap."""
    exact = space.exact_strata
    realization = space.realization.simplex_set
    pairs = list(_face_pairs(space.map.domain.facets))
    for j in range(len(exact)):
        for k in range(j):
            swapped = list(exact)
            swapped[j], swapped[k] = exact[k], exact[j]
            for a, b in pairs:
                wa, wb = swapped[a], swapped[b]
                if wa != wb and (min(wa, wb), max(wa, wb)) not in realization:
                    return swapped
    raise AssertionError("no swap breaks the quotient map")


@pytest.mark.parametrize(
    "build", [lambda: disk_collapse(2), lambda: random_map(0)], ids=["disk2", "random0"]
)
def test_quotient_with_swapped_strata_raises_on_an_incomparable_edge(build):
    space = reeb_space(build())
    swapped = first_incomparable_swap(space)
    broken = ReebComplex(space.map, space.strata, tuple(swapped), space.facets)
    with pytest.raises(InvariantError) as info:
        broken.quotient_map
    a, b, wa, wb = named_edge(info.value)
    simps = space.map.domain.simplices
    assert set(simps[a]) < set(simps[b])
    assert (wa, wb) == (swapped[a], swapped[b])
    assert wa != wb and (min(wa, wb), max(wa, wb)) not in space.realization.simplex_set


# The strata as a Delta-complex: the signs (-1)**u against sign propagation
# on the stratum poset's covers, and the face-map check on construction.


def delta_boundaries(facets):
    return [{g: -1 if u % 2 else 1 for u, g in enumerate(fs)} for fs in facets]


@pytest.mark.parametrize("build, _quotient", SCAN_CASES)
def test_reeb_betti_matches_sign_propagation_on_the_covers(monkeypatch, build, _quotient):
    space = reeb_space(build())
    dims = [len(tau) - 1 for tau in space.codomain_projection]
    covers = [[] for _ in dims]
    for lower, upper in stratum_poset(space).covers:
        covers[upper].append(lower)
    assert [set(fs) for fs in space.facets] == [set(fs) for fs in covers]
    assert_boundary_squares_to_zero(dims, delta_boundaries(space.facets))
    want = regular_cw_betti(dims, covers)
    ranked = []
    assemble = homology._betti_numbers

    def record(dims, boundaries):
        ranked.append((dims, boundaries))
        return assemble(dims, boundaries)

    monkeypatch.setattr(homology, "_betti_numbers", record)
    assert space.betti() == want
    ((core_dims, core),) = ranked
    assert_boundary_squares_to_zero(core_dims, core)


@pytest.mark.parametrize(
    "build", [lambda: disk_collapse(2), lambda: random_map(9)], ids=["disk2", "random9"]
)
def test_reeb_path_builds_no_poset(monkeypatch, build):
    def refuse(*args):
        raise AssertionError("a Poset was built")

    f = build()
    with monkeypatch.context() as patch:
        patch.setattr(complexes, "Poset", refuse)
        space = reeb_space(f)
        bv = space.betti()
        report = descent_check(f, target="reeb", p_max=2)
        realization = space.realization
    assert report["betti_target"] == bv.as_list()
    assert betti(realization) == bv


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(2), lambda: random_map(9), lambda: torus_height()[1]],
    ids=["disk2", "random9", "torus"],
)
def test_swapped_facets_raise_invariant_error(build):
    # Swapping the first and last facet of any stratum of dimension >= 1
    # puts a facet over the wrong face.
    space = reeb_space(build())
    for i, fs in enumerate(space.facets):
        if not fs:
            continue
        swapped = list(space.facets)
        swapped[i] = (fs[-1],) + fs[1:-1] + (fs[0],)
        with pytest.raises(InvariantError, match="do not lie over its faces") as info:
            ReebComplex(space.map, space.strata, space.exact_strata, tuple(swapped))
        assert f"stratum {i} over {space.strata[i].tau} " in str(info.value)


def test_facets_that_do_not_commute_raise_invariant_error():
    # A facet replaced by another stratum over the same face, with other
    # facets of its own, breaks a face identity of the stratum above.
    space = reeb_space(random_map(9))
    strata, facets = space.strata, space.facets
    checked = 0
    for i, fs in enumerate(facets):
        for u, g in enumerate(fs if len(fs) > 2 else ()):
            for h, stratum in enumerate(strata):
                if stratum.tau == strata[g].tau and facets[h] != facets[g]:
                    broken = list(facets)
                    broken[i] = fs[:u] + (h,) + fs[u + 1 :]
                    with pytest.raises(InvariantError, match="do not commute") as info:
                        ReebComplex(space.map, strata, space.exact_strata, tuple(broken))
                    assert f"stratum {i} over {strata[i].tau} " in str(info.value)
                    checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(2), lambda: product_power(disk_collapse(2), 2), lambda: random_map(3)],
    ids=["disk2", "product", "random3"],
)
def test_reeb_space_builds_no_coface_index(build):
    f = build()
    assert "cofaces" not in vars(f.domain)
    space = reeb_space(f)
    space.betti()
    assert "cofaces" not in vars(f.domain)


@pytest.mark.parametrize("build, _quotient", SCAN_CASES)
def test_image_keeping_facets_by_size_are_those_dropping_a_repeated_image(build, _quotient):
    f = build()
    w, taus = f.vertex_images, f.simplex_images
    for s, fs, tau in zip(f.domain.simplices, f.domain.facets, taus):
        over = [w[v] for v in s]
        by_repeat = [fs[j] for j, x in enumerate(over) if over.count(x) > 1]
        assert [g for g in fs if len(taus[g]) == len(tau)] == by_repeat


def test_package_readers_take_images_from_the_table_alone(monkeypatch):
    def readers(f):
        return [
            reeb_space(f).betti(),
            verify_quotient(f),
            fiber_components_at(f, (0, 1)),
            image_subcomplex(f),
            fiber_power_betti(f, 1),
            betti(fiber_power_nerve(f, 0)),
            descent_check(f, p_max=1),
            descent_check(f, target="reeb", p_max=1),
        ]

    want = readers(disk_collapse(2))

    def refuse(self, simplex):
        raise AssertionError(f"image_simplex({simplex}) called")

    monkeypatch.setattr(SimplicialMap, "image_simplex", refuse)
    assert readers(disk_collapse(2)) == want


# The event sweep against the per-level rescan it replaced.


def assert_sweep_matches_rescan(g):
    got, want = reeb_graph(g), reeb_graph_rescan(g)
    assert got.nodes == want.nodes
    assert got.edges == want.edges
    # The sweep writes each slab edge unswapped: its lower end is the older node.
    assert all(got.nodes[a].level < got.nodes[b].level for a, b in got.edges)
    assert got.vertex_to_node == want.vertex_to_node
    assert reeb_graph_to_dot(got) == reeb_graph_to_dot(want)
    assert all(type(node) is ReebNode for node in got.nodes)


def grid_torus_function(m, kind):
    values = list(range(m * m))
    if kind == "shuffled":
        random.Random(m).shuffle(values)
    elif kind == "rowindex":
        values = [v // m for v in values]
    return PLFunction(grid_torus(m, m), [Fraction(v) for v in values])


@pytest.mark.parametrize("kind", ["shuffled", "rowmajor", "rowindex"])
@pytest.mark.parametrize("m", range(3, 13))
def test_sweep_matches_rescan_on_grid_tori(m, kind):
    assert_sweep_matches_rescan(grid_torus_function(m, kind))


def test_sweep_matches_rescan_on_random_functions():
    for seed in range(50):
        assert_sweep_matches_rescan(random_function(seed))


def test_sweep_matches_rescan_on_named_functions():
    assert_sweep_matches_rescan(torus_height()[0])
    assert_sweep_matches_rescan(PLFunction(minimal_torus(), [Fraction(4)] * 7))
    assert_sweep_matches_rescan(height_on_square_circle())


def test_sweep_matches_rescan_on_three_dimensional_complexes():
    # Only the 2-skeleton enters the sweep; the 3-cells must be cut away.
    sphere3 = SimplicialComplex(5, [s for k in range(1, 5) for s in combinations(range(5), k)])
    solid, _ = barycentric_subdivision(full_simplex(3))
    for complex_ in (sphere3, solid, full_simplex(4)):
        assert complex_.dim >= 3
        n = complex_.num_vertices
        rng = random.Random(n)
        for values in (rng.sample(range(n), n), [rng.randrange(3) for _ in range(n)]):
            assert_sweep_matches_rescan(PLFunction(complex_, [Fraction(v) for v in values]))


@pytest.mark.parametrize("m", range(3, 7))
def test_sweep_matches_rescan_on_two_disjoint_tori(m):
    # Row-index values on both copies: each level touches both tori, so
    # components enter, merge and split in two places at once.
    torus = grid_torus(m, m).simplices
    n = m * m
    union = SimplicialComplex(2 * n, torus + tuple(tuple(v + n for v in s) for s in torus))
    for values in ([v // m for v in range(n)] * 2, [v // m for v in range(n)] + [0] * n):
        assert_sweep_matches_rescan(PLFunction(union, [Fraction(v) for v in values]))


def test_sweep_matches_rescan_with_isolated_vertex_and_edge():
    # A triangle, the isolated vertex 3 and the isolated edge (4, 5): under
    # every value assignment in 0..2 the vertex, and the edge whenever its
    # ends tie, start and end within one level.
    k = SimplicialComplex(6, [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (0, 2), (1, 2),
                              (0, 1, 2), (4, 5)])
    for values in product(range(3), repeat=6):
        assert_sweep_matches_rescan(PLFunction(k, [Fraction(v) for v in values]))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_reeb_space_of_identity_is_the_domain_on_random_complexes(k):
    space = reeb_space(SimplicialMap(k, k, list(range(k.num_vertices))))
    assert len(space.strata) == len(k.simplex_set)
    assert space.betti() == betti(space.realization) == betti(k)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_sweep_matches_rescan_with_tied_values(data):
    m = data.draw(st.integers(min_value=4, max_value=6))
    n = data.draw(st.integers(min_value=4, max_value=6))
    top = data.draw(st.integers(min_value=0, max_value=m * n // 3))
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=m * n, max_size=m * n)
    )
    assert_sweep_matches_rescan(PLFunction(grid_torus(m, n), [Fraction(v) for v in values]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_sweep_matches_rescan_on_non_manifold_complexes_with_tied_values(data):
    # Pinched, branching and dangling pieces: the local no-split test may
    # not lean on a manifold's links, and ties make flat edges and triangles.
    k = data.draw(simplicial_complexes())
    top = data.draw(st.integers(min_value=0, max_value=6))
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=k.num_vertices,
                 max_size=k.num_vertices)
    )
    assert_sweep_matches_rescan(PLFunction(k, [Fraction(v) for v in values]))


def test_sweep_relabels_only_where_the_local_test_fails(monkeypatch):
    # Under row-major values the component a leaving simplex touches is the
    # whole band of active simplices; relabelling it at every level hands
    # label_components about 262,000 ids on this torus, growing about 8x
    # per doubling of m.  The local test and the relabels it cannot skip
    # stay within twice the simplex count.
    handed = []
    label = reeb.label_components
    monkeypatch.setattr(
        reeb, "label_components",
        lambda members, neighbors, parent: handed.append(len(members)) or label(members, neighbors, parent),
    )
    g = grid_torus_function(40, "rowmajor")
    graph = reeb_graph(g)
    assert (len(graph.nodes), tuple(graph.betti())) == (3120, (1, 1))
    assert sum(handed) <= 2 * len(g.complex.simplices) == 2 * 9600


# The slice builds its domain from verified up-sets and checks its map
# without sorting the domain.  Both must equal their checked rebuilds: the
# constructor canonicalises every chain and checks vertex range and face
# closure, and the oracle walks the domain in canonical order.


def assert_slice_matches_checked_rebuild(g):
    model = pl_as_simplicial_map(g)
    f = model.map
    domain = SimplicialComplex(f.domain.num_vertices, f.domain.simplex_set)
    assert domain == f.domain
    assert SimplicialComplex(f.codomain.num_vertices, f.codomain.simplex_set) == f.codomain
    assert SimplicialMap(domain, f.codomain, f.vertex_images) == f
    assert first_non_simplicial(domain.simplex_set, f.codomain.simplex_set, f.vertex_images) is None
    # The images come in face order without a sort: those of the oracle's
    # cells, listed by simplex in canonical order, value cells before gaps.
    cells, _ = slice_cells_and_up_sets(g)
    assert f.vertex_images == tuple(c for _, c in cells)


@pytest.mark.parametrize("m", range(3, 11))
def test_slice_matches_checked_rebuild_on_shuffled_grid_tori(m):
    assert_slice_matches_checked_rebuild(grid_torus_function(m, "shuffled"))


def test_slice_matches_checked_rebuild_on_random_and_named_functions():
    for seed in range(10):
        assert_slice_matches_checked_rebuild(random_function(seed))
    assert_slice_matches_checked_rebuild(torus_height()[0])


@pytest.mark.parametrize(
    "build",
    [lambda: random_function(0), lambda: grid_torus_function(4, "shuffled"),
     lambda: torus_height()[0]],
    ids=["random0", "torus4", "height"],
)
def test_slice_with_an_image_shifted_by_two_raises_on_an_edge(build, monkeypatch):
    g = build()
    f = pl_as_simplicial_map(g).map
    images = f.vertex_images
    top = f.codomain.num_vertices
    edges = [s for s in f.domain.simplex_set if len(s) == 2]
    # The first cell that can move up by two and has a comparable cell at
    # or below its own level.
    i = min(
        v for e in edges for v, w in (e, e[::-1])
        if images[v] + 2 < top and images[w] <= images[v]
    )
    shifted = list(images)
    shifted[i] += 2
    check = reeb._edge_checked_map
    monkeypatch.setattr(reeb, "_edge_checked_map", lambda d, c, _images: check(d, c, shifted))
    with pytest.raises(InvariantError) as info:
        pl_as_simplicial_map(g)
    a, b, wa, wb = named_edge(info.value)
    assert i in (a, b)
    assert (wa, wb) == (shifted[a], shifted[b])
    assert abs(wa - wb) >= 2


# The closed-form slice against the per-simplex cell dicts it replaced: the
# same up-sets, images and chains, with the chains already in canonical
# order.


def assert_slice_matches_cell_dicts(g, monkeypatch):
    seen = []
    build = reeb._complex_of_chains
    monkeypatch.setattr(reeb, "_complex_of_chains", lambda ups: seen.append(ups) or build(ups))
    model = pl_as_simplicial_map(g)
    cells, ups = slice_cells_and_up_sets(g)
    assert list(map(tuple, seen[0])) == ups
    assert model.map.vertex_images == tuple(c for _, c in cells)
    chains = chains_by_stack(len(cells), ups)
    domain = model.map.domain
    assert domain.simplex_set == frozenset(chains)
    ordered = sorted(chains)
    ordered.sort(key=len)
    assert vars(domain)["simplices"] == tuple(ordered)
    return model


def mesh_torus_function(seed, m, kind="shuffled"):
    """The grid torus of the mesh benchmark at this seed, size and value
    kind; it slices the shuffled one at m = 10."""
    values = list(range(m * m))
    if kind == "shuffled":
        random.Random(f"reeb_graph_mesh:{seed}:{m}").shuffle(values)
    elif kind == "rowindex":
        values = [v // m for v in values]
    return PLFunction(grid_torus(m, m), [Fraction(v) for v in values])


# Three of the mesh benchmark's recorded seeds; the tied-value tori below
# reach every branch of the closed-form up-sets.
@pytest.mark.parametrize("seed", [0, 3, 19])
def test_slice_matches_cell_dicts_on_recorded_mesh_seeds(seed, monkeypatch):
    model = assert_slice_matches_cell_dicts(mesh_torus_function(seed, 10), monkeypatch)
    assert euler_characteristic(model.map.domain) == 0


@pytest.mark.parametrize("top", [0, 1, 2, 4])
@pytest.mark.parametrize("m", [3, 5])
def test_slice_matches_cell_dicts_on_tori_with_tied_values(m, top, monkeypatch):
    # Few distinct values give flat edges and flat triangles, and cofaces
    # that start or end at a flat face's level.
    rng = random.Random(f"{m}:{top}")
    values = [rng.randint(0, top) for _ in range(m * m)]
    assert_slice_matches_cell_dicts(PLFunction(grid_torus(m, m), values), monkeypatch)
    rows = [v // m for v in range(m * m)]
    assert_slice_matches_cell_dicts(PLFunction(grid_torus(m, m), rows), monkeypatch)


def test_slice_matches_cell_dicts_on_random_and_named_functions(monkeypatch):
    for seed in range(5):
        assert_slice_matches_cell_dicts(random_function(seed), monkeypatch)
    assert_slice_matches_cell_dicts(torus_height()[0], monkeypatch)
    assert_slice_matches_cell_dicts(height_on_square_circle(), monkeypatch)


def test_slice_matches_cell_dicts_with_unused_vertex_ids(monkeypatch):
    # Vertex ids 1, 4 and 6 are no simplex; their values are no level.
    k = SimplicialComplex(7, [(0, 2, 3), (3, 5), (0,), (2,), (3,), (5,), (0, 2), (0, 3), (2, 3)])
    g = PLFunction(k, [Fraction(1, 2), -9, Fraction(1, 2), 0, 99, Fraction(-2, 3), 7])
    model = assert_slice_matches_cell_dicts(g, monkeypatch)
    assert [lvl[1] for lvl in model.codomain_levels if lvl[0] == "value"] == [
        Fraction(-2, 3), 0, Fraction(1, 2),
    ]


# The slice's up-sets, each place a run of ids zipped in C, against the
# per-level loop they replaced; and the sweep's nodes, built by
# tuple.__new__, still exactly of type ReebNode.


def assert_id_runs_match_per_level_loop(g):
    seen = []
    build = reeb._complex_of_chains
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reeb, "_complex_of_chains", lambda ups: seen.append(ups) or build(ups))
        pl_as_simplicial_map(g)
    assert all(type(up) is tuple for up in seen[0])
    assert seen[0] == slice_up_sets_by_level(g)
    assert all(type(node) is ReebNode for node in reeb_graph(g).nodes)


@pytest.mark.parametrize("m", [5, 6, 10])
def test_id_run_up_sets_match_the_per_level_loop_on_recorded_mesh_seeds(m):
    for seed in range(20):
        assert_id_runs_match_per_level_loop(mesh_torus_function(seed, m))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_id_run_up_sets_match_the_per_level_loop_with_tied_values(data):
    # Ties give one-level edges and triangles, and cofaces that start or
    # end at a one-level face's level.
    if data.draw(st.booleans()):
        m = data.draw(st.integers(min_value=3, max_value=6))
        k = grid_torus(m, m)
    else:
        k = data.draw(simplicial_complexes())
    assume(k.simplices)
    top = data.draw(st.integers(min_value=0, max_value=6))
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=k.num_vertices,
                 max_size=k.num_vertices)
    )
    assert_id_runs_match_per_level_loop(PLFunction(k, [Fraction(v) for v in values]))


LEVEL_VALUES = [
    pytest.param([-3, 5, Fraction(-1, 2), 0, -3], id="negative"),
    pytest.param([Fraction(1, 3), Fraction(2, 7), Fraction(-1, 3), Fraction(2, 7), 1], id="mixed"),
    pytest.param([Fraction(5, 6)] * 4 + [Fraction(10, 12), Fraction(-5, 6)], id="ties"),
    pytest.param([4] * 5, id="one_level"),
    pytest.param(
        [Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]
        + [Fraction(-1, 53), Fraction(1, 2)],
        id="many_denominators",
    ),
]


@pytest.mark.parametrize("values", LEVEL_VALUES)
def test_vertex_levels_equal_the_fraction_sort(values):
    g = PLFunction(path_complex(len(values)), values)
    levels, level_of = reeb._vertex_levels(g)
    assert (levels, level_of) == levels_by_fraction_sort(g)
    assert all(type(t) is Fraction for t in levels)


def test_vertex_levels_skip_unused_vertex_ids():
    k = SimplicialComplex(5, [(0,), (2,), (4,), (0, 4)])
    g = PLFunction(k, [3, -100, Fraction(1, 2), 100, 3])
    assert reeb._vertex_levels(g) == ([Fraction(1, 2), 3], {0: 1, 2: 0, 4: 1})
    assert reeb._vertex_levels(g) == levels_by_fraction_sort(g)


@st.composite
def vertex_values(draw):
    """Values for a path's vertices: many sharing a few integer floors over
    mixed denominators, negative ones, 40-digit numerators, values closer
    than 2**-64 (so that only a Fraction comparison orders them), and ties,
    both repeats and equal values written over other denominators."""
    floors = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    value = st.one_of(
        st.builds(lambda a, n, d: a + Fraction(n % d, d),
                  st.sampled_from(floors), st.integers(0, 60), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
        st.builds(lambda k: Fraction(-1, 3) + Fraction(k, 10**30), st.integers(-50, 50)),
        st.builds(Fraction, st.integers(-20, 20)),
    )
    values = draw(st.lists(value, min_size=1, max_size=30))
    values += [Fraction(t.numerator * k, t.denominator * k)
               for t, k in draw(st.lists(st.tuples(st.sampled_from(values), st.integers(1, 5)),
                                         max_size=10))]
    return draw(st.permutations(values))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(vertex_values())
def test_vertex_levels_equal_the_fraction_sort_on_drawn_values(values):
    g = PLFunction(path_complex(len(values)), values)
    levels, level_of = reeb._vertex_levels(g)
    assert (levels, level_of) == levels_by_fraction_sort(g)
    assert all(type(t) is Fraction for t in levels)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(simplicial_complexes(), st.data())
def test_level_spans_equal_a_per_simplex_min_and_max(k, data):
    # Up to dimension 3, with few levels, so that many simplices tie.
    top = data.draw(st.integers(0, 3))
    values = data.draw(st.lists(st.integers(-top, top), min_size=k.num_vertices, max_size=k.num_vertices))
    _, level_of = reeb._vertex_levels(PLFunction(k, values))
    assert reeb._level_spans(k, level_of) == level_spans_per_simplex(k, level_of)


def test_mesh_ops_hash_no_fraction(monkeypatch):
    # Ranking levels by (numerator, denominator) pairs and integer floors
    # hashes no Fraction, whose hash is a Python-level modular inverse.
    height, _ = torus_height()
    g = PLFunction(height.complex, [t / 3 for t in height.values])
    want = (reeb_graph(g), reeb._slice_strata(g), pl_as_simplicial_map(g))

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    with pytest.raises(AssertionError, match="a Fraction was hashed"):
        hash(Fraction(1, 3))
    got = (reeb_graph(g), reeb._slice_strata(g), pl_as_simplicial_map(g))
    monkeypatch.undo()
    assert got[:2] == want[:2]
    assert got[2].codomain_levels == want[2].codomain_levels
    assert got[2].map.domain.simplices == want[2].map.domain.simplices
    assert got[2].map.vertex_images == want[2].map.vertex_images


def test_slice_of_empty_complex_is_a_typed_error():
    # The strata read off the sweep keep the slice's refusal: the sweep
    # alone would return an empty graph.
    for slice_ in (pl_as_simplicial_map, reeb._slice_strata):
        with pytest.raises(EmptyComplexError, match="cannot slice an empty complex"):
            slice_(PLFunction(SimplicialComplex(0, []), []))


# `reeb --space` on a function file reads the slice's strata off the Reeb
# graph (reeb module docstring).  Its report must be the slice path's, byte
# for byte: the strata in canonical order, each component index counting
# from 0 within its tau, and the Betti numbers and Euler characteristic.


def space_report(space):
    """The report of ``reeb --space``, less the realization."""
    bv = space.betti()
    return dumps_report({
        "betti": bv.as_list(),
        "total": bv.total,
        "euler": bv.euler,
        "num_strata": len(space.strata),
        **reeb_complex_to_doc(space),
    })


def assert_slice_strata_match_the_slice(g):
    want = space_report(reeb_space(pl_as_simplicial_map(g).map))
    assert space_report(reeb._slice_strata(g)) == want


def function_file_functions():
    """The functions that the tests and CI write to function files and run
    ``reeb --space`` on, with relabellings of the torus height and the
    domains of ``random_function``."""
    height = torus_height()[0]
    yield height
    yield PLFunction(height.complex, [v / 3 for v in height.values])
    rng = random.Random("torus_height.function.json")
    for _ in range(3):
        yield relabel_function(height, rng)
    yield height_on_square_circle()
    yield PLFunction(full_simplex(2), [Fraction(1)] * 3)
    k = SimplicialComplex(7, [(0, 2, 3), (3, 5), (0,), (2,), (3,), (5,), (0, 2), (0, 3), (2, 3)])
    yield PLFunction(k, [Fraction(1, 2), -9, Fraction(1, 2), 0, 99, Fraction(-2, 3), 7])
    for seed in range(10):
        yield random_function(seed)


def test_slice_strata_match_the_slice_on_function_files():
    for g in function_file_functions():
        assert_slice_strata_match_the_slice(g)


@pytest.mark.parametrize("m", [5, 6])
def test_slice_strata_match_the_slice_on_recorded_mesh_tori(m):
    # Row-major and row-index values do not depend on the seed.
    for kind in ("rowmajor", "rowindex"):
        assert_slice_strata_match_the_slice(mesh_torus_function(0, m, kind))
    for seed in range(20):
        assert_slice_strata_match_the_slice(mesh_torus_function(seed, m))


@st.composite
def tied_functions_on_two_parts(draw):
    """Values from 0..top, over 1 or 2, on two disjoint complexes on 7 vertex
    ids each, some unused; the second holds a 3-simplex, and its values may
    be shifted past the first's, leaving a gap that no slab crosses."""
    first = draw(simplicial_complexes())
    second = draw(simplicial_complexes())
    tet = tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=4, max_size=4))))
    faces = {f for k in range(1, 5) for f in combinations(tet, k)}
    simplices = set(first.simplices) | {
        tuple(v + 7 for v in s) for s in faces.union(second.simplices)
    }
    top = draw(st.integers(0, 4))
    shift = draw(st.sampled_from([0, top + 1]))
    denominator = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, top), min_size=14, max_size=14))
    values = [Fraction(v + (shift if i >= 7 else 0), denominator) for i, v in enumerate(values)]
    return PLFunction(SimplicialComplex(14, simplices), values)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(tied_functions_on_two_parts())
def test_slice_strata_match_the_slice_with_tied_values(g):
    assert_slice_strata_match_the_slice(g)
