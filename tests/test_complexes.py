import itertools
import math
import random
from fractions import Fraction
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebforge import (
    BudgetExceededError,
    DuplicateSimplexError,
    InvalidParamsError,
    InvalidSimplexError,
    InvariantError,
    MissingFaceError,
    NotSimplicialError,
    PLFunction,
    Poset,
    ReebForgeError,
    SimplicialComplex,
    SimplicialMap,
    UnknownSimplexError,
    ValueCountMismatchError,
    VertexOutOfRangeError,
    barycentric_subdivision,
    connected_components,
    euler_characteristic,
    fiber_power_nerve,
    staircase_product,
    validate_complex,
)
from reebforge import complexes
from reebforge.complexes import (
    _chain_count,
    _complex_of_chains,
    _edge_checked_map,
    _enumerate_chains,
    _face_pairs,
    _face_ups,
    _is_canonical_listing,
    _lattice_paths,
    simplex_key,
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
from reebforge.io import complex_to_doc
from reebforge.reeb import pl_as_simplicial_map, reeb_space

from .oracles import (
    chains_by_extension,
    face_pairs_by_combinations,
    face_pairs_keeping_down_sets,
    facet_table,
    find_root,
    first_missing_face,
    first_non_simplicial,
    is_canonical_listing_by_keys,
    minimal_torus,
    partition_face_relation,
    partition_up_closed,
    poset_chains,
    stratum_poset,
)
from .test_homology import simplicial_complexes


def test_validate_accepts_complete_two_simplex():
    k = validate_complex(3, [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
    assert k.simplex_counts() == (3, 3, 1)


def test_validate_rejects_missing_faces_by_default():
    with pytest.raises(MissingFaceError):
        validate_complex(3, [[0, 1, 2]])


def test_close_faces_completes_downward():
    k = validate_complex(3, [[0, 1, 2]], close_faces=True)
    assert k.simplex_counts() == (3, 3, 1)


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        validate_complex(2, [[0, 5]])


def test_duplicate_simplex_rejected():
    with pytest.raises(DuplicateSimplexError):
        validate_complex(2, [[0, 1], [1, 0], [0], [1]])


def test_empty_and_repeated_vertex_simplices_rejected():
    with pytest.raises(InvalidSimplexError):
        validate_complex(2, [[]])
    with pytest.raises(InvalidSimplexError):
        validate_complex(2, [[1, 1]])


def test_sd_of_edge_is_path():
    edge = path_complex(2)
    sd, carrier = barycentric_subdivision(edge)
    assert sd.simplex_counts() == (3, 2)
    assert carrier == ((0,), (1,), (0, 1))


def test_sd_of_triangle_counts():
    # Chains of the face poset of a full triangle, enumerated by hand:
    # 7 singleton chains, 12 two-chains, 6 three-chains.
    sd, _ = barycentric_subdivision(full_simplex(2))
    assert sd.simplex_counts() == (7, 12, 6)


def test_sd_of_empty_complex():
    empty = SimplicialComplex(0, [])
    sd, carrier = barycentric_subdivision(empty)
    assert sd.simplex_counts() == ()
    assert carrier == ()


@pytest.mark.parametrize(
    "complex_", [circle(3), boundary_delta3(), minimal_torus(), full_simplex(3)]
)
def test_sd_preserves_euler_and_counts_vertices(complex_):
    sd, carrier = barycentric_subdivision(complex_)
    assert sd.num_vertices == len(complex_.simplex_set)
    assert euler_characteristic(sd) == euler_characteristic(complex_)


def test_check_simplicial_path_onto_triangle():
    f = SimplicialMap(path_complex(3), full_simplex(2), [0, 1, 2])
    assert f.image_simplex((0, 1)) == (0, 1)


def test_check_simplicial_names_offending_simplex():
    edge = path_complex(2)
    two_points = SimplicialComplex(2, [(0,), (1,)])
    with pytest.raises(NotSimplicialError) as err:
        SimplicialMap(edge, two_points, [0, 1])
    assert err.value.simplex == (0, 1)


def test_not_simplicial_error_names_the_canonically_first_failure():
    # Onto a path of four vertices, the edges (0, 2), (1, 2) and (2, 3) and
    # both triangles map onto non-simplices.  The error names the first
    # failure in canonical order, as the walk over the sorted domain did, and
    # not the first one the domain's set happens to yield.
    domain = validate_complex(4, [(0, 1, 2), (0, 2, 3), (1, 3)], close_faces=True)
    line = path_complex(4)
    images = [0, 1, 3, 0]
    failed = [s for s in domain.simplex_set if first_non_simplicial([s], line.simplex_set, images)]
    want = first_non_simplicial(domain.simplex_set, line.simplex_set, images)
    assert len(failed) >= 2 and failed[0] != want
    assert want == min(failed, key=simplex_key)
    for _ in range(3):
        with pytest.raises(NotSimplicialError) as err:
            SimplicialMap(domain, line, images)
        assert err.value.simplex == want


def test_map_check_builds_the_image_table():
    f = SimplicialMap(boundary_delta3(), full_simplex(3), [0, 1, 2, 3])
    assert "simplex_images" in vars(f)
    assert f.simplex_images[f.domain.simplices.index((0, 2))] == (0, 2)
    assert f.image_simplex((0, 2)) == (0, 2)


def test_constant_map_is_simplicial():
    point = SimplicialComplex(1, [(0,)])
    f = SimplicialMap(boundary_delta3(), point, [0, 0, 0, 0])
    assert f.image_simplex((0, 1, 2)) == (0,)


def test_components_of_connected_complex():
    assert len(connected_components(circle(4), circle(4).simplices)) == 1


def test_components_of_two_vertices():
    k = SimplicialComplex(2, [(0,), (1,)])
    assert len(connected_components(k, [(0,), (1,)])) == 2


def test_components_edge_and_far_vertex():
    k = path_complex(3)
    classes = connected_components(k, [(0, 1), (2,)])
    assert len(classes) == 2


def test_components_cross_codimension():
    # A vertex and a triangle with no intermediate member still join.
    k = full_simplex(2)
    classes = connected_components(k, [(0,), (0, 1, 2)])
    assert len(classes) == 1


def test_components_partition_property():
    k = minimal_torus()
    subset = [s for i, s in enumerate(k.simplices) if i % 3 != 0]
    classes = connected_components(k, subset)
    flattened = [s for cls in classes for s in cls]
    assert sorted(flattened) == sorted(set(subset))


def test_components_up_closed_fast_path_agrees():
    k = minimal_torus()
    # Stars are up-closed families, and so are their triangles alone, which
    # share no member face and fall apart into one class each.
    for v in range(4):
        star = [s for s in k.simplices if v in s]
        assert connected_components(k, star) == partition_up_closed(star)
        triangles = [s for s in star if len(s) == 3]
        classes = connected_components(k, triangles)
        assert classes == partition_up_closed(triangles)
        assert len(classes) == 6


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.data())
def test_components_match_oracle_on_arbitrary_subsets(seed, data):
    # Subsets that are not up-closed join through faces of any codimension.
    k = random_map(seed).domain
    subset = data.draw(st.lists(st.sampled_from(k.simplices), unique=True))
    assert connected_components(k, subset) == partition_face_relation(subset)


def test_components_rejects_foreign_simplices():
    with pytest.raises(UnknownSimplexError):
        connected_components(path_complex(2), [(5,)])


def test_staircase_square():
    prod = staircase_product(path_complex(2), path_complex(2))
    assert prod.complex.simplex_counts() == (4, 5, 2)


def test_staircase_triangle_squared_top_cells():
    prod = staircase_product(full_simplex(2), full_simplex(2))
    by_dim = prod.complex.by_dim()
    assert len(by_dim[4]) == 6  # C(4, 2) shuffles of two triangles


@pytest.mark.parametrize(
    "k1,k2",
    [
        (full_simplex(2), full_simplex(1)),
        (circle(3), path_complex(2)),
        (boundary_delta3(), path_complex(2)),
    ],
)
def test_staircase_top_cell_count_law(k1, k2):
    prod = staircase_product(k1, k2)
    d1 = len(k1.maximal_simplices[0]) - 1
    d2 = len(k2.maximal_simplices[0]) - 1
    if all(len(s) - 1 == d1 for s in k1.maximal_simplices) and all(
        len(s) - 1 == d2 for s in k2.maximal_simplices
    ):
        expected = (
            len(k1.maximal_simplices)
            * len(k2.maximal_simplices)
            * math.comb(d1 + d2, d1)
        )
        assert len(prod.complex.by_dim()[d1 + d2]) == expected


def test_staircase_identity_product_map():
    edge = path_complex(2)
    ident = SimplicialMap(edge, edge, [0, 1])
    prod = staircase_product(edge, edge, ident, ident)
    assert prod.product_map is not None
    assert prod.product_map.domain == prod.complex


def test_staircase_orders_a_decreasing_map_by_image():
    # 0 -> 1, 1 -> 0 is not monotone in vertex order; the domain vertices
    # are ordered by image instead, so the product map is monotone.
    edge = path_complex(2)
    swap = SimplicialMap(edge, edge, [1, 0])
    prod = staircase_product(edge, edge, swap, swap)
    assert prod.vertex_pairs == ((1, 1), (1, 0), (0, 1), (0, 0))
    images = [prod.codomain_pairs[w] for w in prod.product_map.vertex_images]
    assert images == [(0, 0), (0, 1), (1, 0), (1, 1)]


def nested_loop_pairs(k1, k2, f1=None, f2=None):
    """The vertex pairs of K1 x K2 by a nested loop over each factor's
    vertices, ordered by (image, id) when factor maps are given."""
    def order(k, f):
        verts = range(k.num_vertices)
        return list(verts) if f is None else sorted(verts, key=lambda v: (f.vertex_images[v], v))

    return tuple((u, v) for u in order(k1, f1) for v in order(k2, f2))


@pytest.mark.parametrize(
    "k1, k2, f1, f2",
    [
        (circle(4), path_complex(3), None, None),
        (full_simplex(2), boundary_delta3(), None, None),
        *((f.domain, f.domain, f, f) for f in (
            SimplicialMap(path_complex(3), path_complex(2), [1, 0, 1]),
            disk_collapse(2),
            random_map(7),
        )),
    ],
    ids=["circle_path", "triangle_sphere", "folded_path", "disk2", "random7"],
)
def test_staircase_pairs_come_in_nested_loop_order(k1, k2, f1, f2):
    # staircase_product takes the nested loop's pairs as its vertex order, unsorted.
    assert staircase_product(k1, k2, f1, f2).vertex_pairs == nested_loop_pairs(k1, k2, f1, f2)


def assert_checked_closure(k):
    """k equals the checked closure of its own maximal simplices, points included."""
    assert k == validate_complex(
        k.num_vertices, k.maximal_simplices, close_faces=True, coordinates=k.coordinates
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: staircase_product(*(disk_collapse(1).domain,) * 2, *(disk_collapse(1),) * 2),
        lambda: staircase_product(*(disk_collapse(2).domain,) * 2, *(disk_collapse(2),) * 2),
        lambda: staircase_product(
            SimplicialComplex(3, full_simplex(2).simplices, [[0, 0], [1, 0], [0, 1]]),
            SimplicialComplex(2, path_complex(2).simplices, [[Fraction(1, 2)], [3]]),
        ),
    ],
    ids=["disk1", "disk2", "with_points"],
)
def test_staircase_product_builds_the_checked_closure(build):
    # The product is built unchecked, its faces listed size by size.
    prod = build()
    assert_checked_closure(prod.complex)
    if prod.product_map is not None:
        assert_checked_closure(prod.product_map.codomain)


def test_staircase_power_builds_the_checked_closure():
    power = product_power(disk_collapse(2), 2)
    assert_checked_closure(power.domain)
    assert_checked_closure(power.codomain)


@pytest.mark.parametrize(
    "call",
    [
        lambda edge, f, tri: staircase_product(edge, edge, f, None),
        lambda edge, f, tri: staircase_product(tri, edge, f, f),
    ],
    ids=["one_factor_map", "map_off_factor"],
)
def test_staircase_bad_arguments_raise_invalid_params(call):
    edge = path_complex(2)
    ident = SimplicialMap(edge, edge, [0, 1])
    with pytest.raises(InvalidParamsError):
        call(edge, ident, full_simplex(2))


def test_every_constructor_output_revalidates():
    for k in (circle(5), boundary_delta3(), staircase_product(circle(3), path_complex(2)).complex):
        SimplicialComplex(k.num_vertices, k.simplex_set)  # re-runs all checks
        sd, _ = barycentric_subdivision(k)
        SimplicialComplex(sd.num_vertices, sd.simplex_set)


# The order-complex builders skip the checked constructor; each output must
# equal its checked rebuild, which canonicalises every simplex and checks
# vertex range and face closure.


def assert_checked_rebuild(complex_):
    rebuilt = SimplicialComplex(complex_.num_vertices, complex_.simplex_set, complex_.coordinates)
    assert rebuilt == complex_


@pytest.mark.parametrize(
    "build",
    [
        lambda: path_complex(5),
        lambda: circle(5),
        lambda: boundary_delta3(),
        lambda: minimal_torus(),
        lambda: full_simplex(3),
        lambda: grid_torus(3, 4),
        lambda: staircase_product(circle(3), path_complex(2)).complex,
        lambda: SimplicialComplex(0, []),
    ],
    ids=["path", "circle", "sphere", "torus", "tetrahedron", "grid", "staircase", "empty"],
)
def test_subdivision_equals_its_checked_rebuild(build):
    sd, _ = barycentric_subdivision(build())
    assert_checked_rebuild(sd)


# A skeleton is a prefix of the listing and a restriction filters it in
# order; both must give what filtering the simplex set and sorting gives.
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(simplicial_complexes(), st.booleans(), st.sets(st.integers(0, 6)))
def test_skeleton_restriction_and_nerve_equal_their_checked_rebuilds(drawn, with_points, keep):
    triangle = SimplicialComplex(3, full_simplex(2).simplex_set, [(0, 0), (1, 0), (0, 1)])
    for k in (minimal_torus(), triangle):
        assert_checked_rebuild(k.skeleton(1))
        assert_checked_rebuild(k.restrict_to_vertices([0, 2])[0])
    assert_checked_rebuild(minimal_torus().restrict_to_vertices([0, 2, 3, 5])[0])
    assert_checked_rebuild(fiber_power_nerve(disk_collapse(1), 1))

    points = [(v, v * v) for v in range(drawn.num_vertices)] if with_points else None
    k = SimplicialComplex(drawn.num_vertices, drawn.simplices, points)
    for d in range(-1, k.dim + 2):
        skeleton = k.skeleton(d)
        want = sorted((s for s in k.simplex_set if len(s) <= d + 1), key=simplex_key)
        assert skeleton.simplices == tuple(want)
        assert_checked_rebuild(skeleton)
    sub, old_to_new = k.restrict_to_vertices(keep)
    want = [tuple(old_to_new[v] for v in s) for s in k.simplex_set if keep.issuperset(s)]
    assert sub.simplices == tuple(sorted(want, key=simplex_key))
    assert_checked_rebuild(sub)


@pytest.mark.parametrize(
    "build",
    [
        lambda: barycentric_subdivision(minimal_torus())[0],
        lambda: reeb_space(disk_collapse(2)).realization,
        lambda: pl_as_simplicial_map(random_function(3)).map.domain,
    ],
    ids=["sd", "realization", "slice"],
)
def test_order_complexes_derive_their_simplex_set_on_demand(build):
    k = build()
    assert "simplex_set" not in vars(k)
    assert k.simplex_set == frozenset(k.simplices)
    assert vars(k)["simplex_set"] is k.simplex_set


def test_lattice_paths_are_all_monotone_grid_paths():
    for rows in range(1, 7):
        for cols in range(1, 7):
            paths = _lattice_paths(rows, cols)
            # Distinct monotone corner-to-corner paths, as many as there are.
            assert len(set(paths)) == len(paths) == math.comb(rows + cols - 2, rows - 1)
            for path in paths:
                assert path[0] == (0, 0) and path[-1] == (rows - 1, cols - 1)
                steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(path, path[1:])}
                assert steps <= {(1, 0), (0, 1)}


def reeb_posets():
    yield from (stratum_poset(reeb_space(random_map(seed))) for seed in range(10))
    yield stratum_poset(reeb_space(disk_collapse(2)))
    yield Poset(["a", "b", "c"], [(2, 1), (1, 0)])


def test_order_complex_equals_its_checked_rebuild_and_its_chains():
    for poset in reeb_posets():
        oc = poset.order_complex()
        assert_checked_rebuild(oc)
        assert sorted(oc.simplex_set) == poset_chains(len(poset.elements), poset.covers)


@pytest.mark.parametrize(
    "ups",
    [
        [(2, 1), (2,), ()],
        [(1, 2), (0, 2), ()],
        [(1, 3), (2,), ()],
        [(1,), (1, 2), ()],
        [(1,), (2,), ()],
    ],
    ids=["not_ascending", "below_own_id", "id_past_n", "own_id", "not_transitive"],
)
def test_malformed_up_sets_raise_invariant_error(ups):
    with pytest.raises(InvariantError):
        _complex_of_chains(ups)


def test_poset_rejects_cycles():
    with pytest.raises(InvalidSimplexError):
        Poset(["a", "b"], [(0, 1), (1, 0)])


def test_poset_transitive_reduction():
    p = Poset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))


def test_poset_order_complex_of_chain():
    p = Poset(["a", "b", "c"], [(0, 1), (1, 2)])
    oc = p.order_complex()
    # A 3-chain's order complex is the full triangle.
    assert oc.simplex_counts() == (3, 3, 1)


def test_chain_cap_names_stage_count_and_cap():
    # The 3-chain has 7 chains, all counted before any is built.
    with pytest.raises(BudgetExceededError) as info:
        Poset(["a", "b", "c"], [(0, 1), (1, 2)]).order_complex(cap=5)
    exc = info.value
    assert str(exc) == "7 chains exceed the cap of 5"
    assert (exc.stage, exc.count, exc.cap) == ("chains", 7, 5)


def test_chain_cap_passes_at_the_chain_count_and_raises_one_below():
    # The cap is checked on the total chain count: one below it refuses,
    # and the count names every chain.
    for poset in reeb_posets():
        full = poset.order_complex()
        total = len(full.simplices)
        assert poset.order_complex(cap=total) == full
        with pytest.raises(BudgetExceededError) as info:
            poset.order_complex(cap=total - 1)
        exc = info.value
        assert str(exc) == f"{total} chains exceed the cap of {total - 1}"
        assert (exc.stage, exc.count, exc.cap) == ("chains", total, total - 1)


def test_chain_cap_refusal_counts_every_chain():
    # A 3-chain: 3 vertices, 3 edges, 1 triangle.  Every cap below 7 is
    # refused with the whole count, however few chains of each length.
    poset = Poset(["a", "b", "c"], [(0, 1), (1, 2)])
    for cap in range(7):
        with pytest.raises(BudgetExceededError) as info:
            poset.order_complex(cap=cap)
        assert (info.value.stage, info.value.count, info.value.cap) == ("chains", 7, cap)
    assert len(poset.order_complex(cap=7).simplices) == 7


def test_chain_cap_refuses_a_poset_before_building_any_chain(monkeypatch):
    def refuse(ups):
        raise AssertionError("a chain was built past the cap")

    posets = list(reeb_posets())
    totals = [len(poset.order_complex().simplices) for poset in posets]
    monkeypatch.setattr(complexes, "_enumerate_chains", refuse)
    for poset, total in zip(posets, totals):
        with pytest.raises(BudgetExceededError) as info:
            poset.order_complex(cap=total - 1)
        assert (info.value.count, info.value.cap) == (total, total - 1)
    with pytest.raises(AssertionError):
        posets[0].order_complex(cap=totals[0])


@pytest.mark.parametrize("n, ups", [
    (3, [(1, 2), (2,), ()]),
    (5, [(2, 3, 4), (2, 3, 4), (4,), (4,), ()]),
    (4, [(), (), (), ()]),
    (0, []),
])
def test_chains_come_out_in_canonical_order(n, ups):
    chains = _enumerate_chains(ups)
    assert chains == sorted(chains, key=simplex_key)
    assert sorted(chains) == poset_chains(n, [(i, j) for i, up in enumerate(ups) for j in up])
    oc = _complex_of_chains(ups)
    assert oc.num_vertices == n
    assert vars(oc)["simplices"] == tuple(chains) == oc.simplices


@st.composite
def graded_up_sets(draw):
    """The up-sets of a drawn poset of height 0 to 5, on ids ascending along
    it: ids in layers, relations only from a layer to a later one, closed
    transitively from the top down."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    layer = [a for a, size in enumerate(sizes) for _ in range(size)]
    ups = [set() for _ in layer]
    for i in reversed(range(len(layer))):
        for j in range(i + 1, len(layer)):
            if layer[j] > layer[i] and draw(st.booleans()):
                ups[i] |= {j} | ups[j]
    return [tuple(sorted(up)) for up in ups]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(graded_up_sets())
def test_chains_by_length_match_the_generic_loop(ups):
    assert _enumerate_chains(ups) == chains_by_extension(ups)


def test_chains_of_the_product_subdivision_match_the_generic_loop():
    # sd of the product domain: 1,507,489 chains, up to length 5, on 13,729
    # ids, most of them past the small ints that Python shares anyway.
    ups = _face_ups(product_power(disk_collapse(2), 2).domain.facets)
    chains = _enumerate_chains(ups)
    assert chains == chains_by_extension(ups)
    # Every chain starts with its 1-chain's int object, and goes on with
    # the up-sets' own: no chain holds an int of its own.
    ones = chains[: len(ups)]
    assert all(c[0] is ones[c[0]][0] for c in chains)
    shared = [dict(zip(up, up)) for up in ups]
    assert all(c[k] is shared[c[k - 1]][c[k]] for c in chains for k in range(1, len(c)))


@st.composite
def relations(draw):
    """A relation on 0..n-1 with no cycle, its ids in no particular order:
    pairs ascending in a drawn permutation of the ids."""
    n = draw(st.integers(0, 8))
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))))
    return n, [(perm[a], perm[b]) for a, b in pairs if n and a < b]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(relations())
def test_poset_covers_chains_and_cap_match_the_brute_force_poset(case):
    # Chains by pairwise comparability, and the covers as the pairs of the
    # order with nothing between them; the cap's count is the chain count.
    n, pairs = case
    poset = Poset(range(n), pairs)
    chains = poset_chains(n, pairs)
    less = {(a, b) for a in range(n) for b in range(n) if _below(pairs, a, b)}
    covers = sorted((a, b) for a, b in less if not any((a, c) in less and (c, b) in less for c in range(n)))
    assert list(poset.covers) == covers
    oc = poset.order_complex()
    assert sorted(oc.simplices) == chains
    assert_checked_rebuild(oc)
    assert poset.order_complex(cap=len(chains)) == oc
    if chains:
        with pytest.raises(BudgetExceededError) as info:
            poset.order_complex(cap=len(chains) - 1)
        assert info.value.count == len(chains)


def _below(pairs, a, b):
    """Whether a path of ``pairs`` leads from a up to b."""
    seen, todo = set(), [a]
    while todo:
        x = todo.pop()
        for lo, hi in pairs:
            if lo == x and hi not in seen:
                seen.add(hi)
                todo.append(hi)
    return b in seen


def test_poset_ids_need_not_be_a_linear_extension():
    # Same chain poset, element ids reversed relative to the order.
    p = Poset(["a", "b", "c"], [(2, 1), (1, 0)])
    assert p.order_complex().simplex_counts() == (3, 3, 1)
    assert sorted(p.order_complex().simplex_set) == poset_chains(3, p.covers) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,),
    ]


def test_restrict_to_vertices_reindexes_densely():
    k = boundary_delta3()
    sub, old_to_new = k.restrict_to_vertices([1, 2, 3])
    assert sub.num_vertices == 3
    assert old_to_new == {1: 0, 2: 1, 3: 2}
    assert sub.simplex_counts() == (3, 3, 1)


def test_skeleton():
    k = full_simplex(3)
    assert k.skeleton(1).simplex_counts() == (4, 6)
    assert k.skeleton(2).simplex_counts() == (4, 6, 4)
    # At or above its dimension a complex is its own skeleton, shared as is.
    for k in (full_simplex(3), grid_torus(3, 3), SimplicialComplex(0, [])):
        assert k.skeleton(k.dim) is k
        assert k.skeleton(k.dim + 1) is k


# The edge check against the full check, on maps into flag complexes: order
# complexes of random posets, and paths.


@st.composite
def maps_into_flag_complexes(draw):
    tops = draw(
        st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8)
    )
    domain = SimplicialComplex(
        7, {face for top in tops for k in range(1, len(top) + 1)
            for face in itertools.combinations(sorted(top), k)}
    )
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        relations = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        codomain = Poset(range(n), [(a, b) for a, b in relations if a < b]).order_complex()
    else:
        codomain = path_complex(n)
    if draw(st.booleans()):
        # Into one codomain simplex: always simplicial until corrupted.
        target = draw(st.sampled_from(codomain.simplices))
        images = draw(st.lists(st.sampled_from(target), min_size=7, max_size=7))
    else:
        images = draw(st.lists(st.integers(0, n - 1), min_size=7, max_size=7))
    corruption = draw(st.sampled_from(["none", "one_image", "too_few", "too_many"]))
    if corruption == "one_image":
        images[draw(st.integers(0, 6))] = draw(st.integers(-1, n))
    elif corruption == "too_few":
        images.pop()
    elif corruption == "too_many":
        images.append(0)
    return domain, codomain, images


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(maps_into_flag_complexes())
def test_edge_check_agrees_with_full_check(case):
    domain, codomain, images = case
    try:
        full = SimplicialMap(domain, codomain, images)
    except (NotSimplicialError, VertexOutOfRangeError, ValueCountMismatchError):
        full = None
    try:
        fast = _edge_checked_map(domain, codomain, images)
    except InvariantError:
        fast = None
    assert fast == full


def test_edge_check_names_the_edge_and_its_images():
    path = path_complex(4)
    domain = path_complex(3)
    with pytest.raises(InvariantError, match=r"domain edge \(1, 2\) maps to 1 and 3"):
        _edge_checked_map(domain, path, [0, 1, 3])
    with pytest.raises(InvariantError, match="domain vertex 2 maps to 4, not a codomain vertex"):
        _edge_checked_map(domain, path, [0, 1, 4])
    with pytest.raises(InvariantError, match="2 images for 3 domain vertices"):
        _edge_checked_map(domain, path, [0, 1])


def test_face_pairs_are_the_edges_of_the_subdivision():
    for k in (circle(4), boundary_delta3(), minimal_torus(), full_simplex(3)):
        sd, _ = barycentric_subdivision(k)
        assert sorted(_face_pairs(k.facets)) == sorted(s for s in sd.simplex_set if len(s) == 2)


# The facet table against the slicing definition it replaced, and every
# face computation that reads it against the per-simplex loops before it.

FIXTURE_COMPLEXES = [
    pytest.param(lambda: path_complex(5), id="path5"),
    pytest.param(lambda: circle(4), id="circle4"),
    pytest.param(boundary_delta3, id="sphere"),
    pytest.param(minimal_torus, id="torus"),
    pytest.param(lambda: full_simplex(3), id="tetrahedron"),
    pytest.param(lambda: grid_torus(4, 5), id="grid_torus"),
    pytest.param(lambda: disk_collapse(1).domain, id="disk1"),
    pytest.param(lambda: disk_collapse(2).domain, id="disk2"),
    pytest.param(lambda: disk_collapse(2).codomain, id="disk2_codomain"),
    pytest.param(lambda: torus_height()[0].complex, id="torus_height"),
    pytest.param(lambda: torus_height()[1].domain, id="torus_slice"),
    pytest.param(lambda: random_map(3).domain, id="random3"),
    pytest.param(lambda: random_function(3).complex, id="random_function3"),
    pytest.param(lambda: product_power(disk_collapse(2), 2).domain, id="product"),
]


def assert_facets_match_slicing(k):
    assert k.facets == facet_table(k.simplices)
    inverse = [[] for _ in k.simplices]
    for i, fs in enumerate(facet_table(k.simplices)):
        for g in fs:
            inverse[g].append(i)
    assert k.cofaces == tuple(map(tuple, inverse))


@pytest.mark.parametrize("build", FIXTURE_COMPLEXES)
def test_facets_and_cofaces_match_slicing_on_fixtures(build):
    assert_facets_match_slicing(build())


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_facets_and_cofaces_match_slicing_on_random_complexes(k):
    assert_facets_match_slicing(k)


# The column build against the slicing definition on complexes that the
# package builds itself: slices, subdivisions and a realization.

BUILT_COMPLEXES = [
    pytest.param(lambda: pl_as_simplicial_map(random_function(3)).map.domain, id="slice"),
    pytest.param(lambda: pl_as_simplicial_map(torus_height()[0]).map.domain, id="height_slice"),
    pytest.param(lambda: barycentric_subdivision(minimal_torus())[0], id="sd_torus"),
    pytest.param(lambda: barycentric_subdivision(disk_collapse(2).domain)[0], id="sd_disk2"),
    pytest.param(lambda: barycentric_subdivision(full_simplex(3))[0], id="sd_tetrahedron"),
    pytest.param(lambda: reeb_space(disk_collapse(2)).realization, id="realization"),
]


@pytest.mark.parametrize("build", BUILT_COMPLEXES)
def test_facets_and_cofaces_match_slicing_on_built_complexes(build):
    k = build()
    assert vars(k)["simplices"] == tuple(sorted(k.simplex_set, key=simplex_key))
    assert_facets_match_slicing(k)


@pytest.mark.parametrize("build", FIXTURE_COMPLEXES)
def test_face_pairs_match_the_combinations_listing(build):
    k = build()
    assert list(_face_pairs(k.facets)) == face_pairs_by_combinations(k.simplices)


@pytest.mark.parametrize("build", [p for p in FIXTURE_COMPLEXES if p.id != "product"])
def test_subdivision_equals_the_order_complex_of_the_face_poset(build):
    # The product's subdivision, 1,507,489 simplices, is left out.
    k = build()
    n = len(k.simplices)
    reference = Poset(range(n), face_pairs_by_combinations(k.simplices)).order_complex()
    sd, carrier = barycentric_subdivision(k)
    assert carrier == k.simplices
    assert sd == reference
    assert _chain_count(k.facets) == len(reference.simplex_set)


def test_face_pairs_free_each_down_set_after_its_last_coface():
    # Counting the product's 1,507,489 chains kept every down-set to the
    # end; only those of cells that a later cell lists as a facet stay now.
    k = product_power(disk_collapse(2), 2).domain
    facets = k.facets

    def peak(pairs):
        tracemalloc.start()
        ending = [1] * len(facets)
        for i, j in pairs(facets):
            ending[j] += ending[i]
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return sum(ending), top

    count, now = peak(_face_pairs)
    reference, before = peak(face_pairs_keeping_down_sets)
    assert count == reference == _chain_count(k.facets) == 1507489
    assert 2 * now <= before


@pytest.mark.parametrize(
    "build",
    [
        lambda: disk_collapse(2),
        lambda: torus_height()[1],
        lambda: random_map(3),
        lambda: product_power(disk_collapse(2), 2),
    ],
    ids=["disk2", "torus_slice", "random3", "product"],
)
def test_chain_count_of_the_strata_is_the_size_of_the_realization(build):
    space = reeb_space(build())
    assert _chain_count(space.facets) == len(space.realization.simplex_set)


# A canonical listing, as ``complex_to_doc`` writes it, keeps its order and
# builds the facet table as its face check; any other listing is
# canonicalised, deduplicated, sorted and face-checked as before.  Both
# build the same complex, and bad input raises the same error types.


def emitted(k):
    doc = complex_to_doc(k)
    return doc["num_vertices"], doc["simplices"]


@pytest.mark.parametrize("build", FIXTURE_COMPLEXES)
def test_canonical_listing_and_its_fallback_build_equal_complexes(build, monkeypatch):
    n, listing = emitted(build())
    shuffled = list(listing)
    random.Random(0).shuffle(shuffled)
    slow = [validate_complex(n, order) for order in (listing[::-1], shuffled)]
    assert _is_canonical_listing(list(map(tuple, listing)))
    # The canonical listing is never re-canonicalised.
    monkeypatch.setattr(complexes, "canonical_simplex", None)
    fast = validate_complex(n, listing)
    want = facet_table(fast.simplices)
    for k in slow:
        assert fast == k
        assert fast.simplex_set == k.simplex_set
        assert fast.simplices == k.simplices == tuple(map(tuple, listing))
        assert fast.facets == k.facets == want


DISK = emitted(disk_collapse(2).domain)
TRIANGLES = [tuple(s) for s in DISK[1] if len(s) == 3]
# The last edge in canonical order of two triangles, so that the face
# check meets it first in the earlier one.
SHARED_EDGE = max(
    (e for e in itertools.combinations(range(DISK[0]), 2)
     if sum(set(e) < set(t) for t in TRIANGLES) == 2),
    key=simplex_key,
)


def relisted(change):
    n, listing = DISK
    listing = [list(s) for s in listing]
    change(listing)
    return n, listing


def reverse_one_triangle(listing):
    listing[-1].reverse()


def shuffle(listing):
    random.Random(1).shuffle(listing)


@pytest.mark.parametrize(
    "change",
    [lambda listing: listing.reverse(), shuffle, reverse_one_triangle],
    ids=["reversed", "shuffled", "descending_simplex"],
)
def test_reordered_listings_take_the_fallback_to_the_same_complex(change):
    n, listing = relisted(change)
    assert not _is_canonical_listing(list(map(tuple, listing)))
    assert validate_complex(n, listing) == validate_complex(*DISK)


@pytest.mark.parametrize(
    "change, error",
    [
        (lambda listing: listing.append(listing[-1]), DuplicateSimplexError),
        (lambda listing: listing.insert(5, listing[4]), DuplicateSimplexError),
        (lambda listing: (listing.reverse(), listing.append(listing[0])), DuplicateSimplexError),
        (lambda listing: listing.insert(0, []), InvalidSimplexError),
        (lambda listing: listing.append([]), InvalidSimplexError),
        (lambda listing: listing[-1].insert(0, listing[-1][0]), InvalidSimplexError),
        (lambda listing: (shuffle(listing), listing.append([0, 0])), InvalidSimplexError),
        (lambda listing: (listing.remove(list(SHARED_EDGE)), shuffle(listing)), MissingFaceError),
    ],
    ids=[
        "duplicated_last", "duplicated_neighbour", "reversed_duplicated", "empty_first",
        "empty_last", "repeated_vertex", "shuffled_repeated_vertex", "shuffled_missing_face",
    ],
)
def test_malformed_listings_raise_the_fallback_errors(change, error):
    n, listing = relisted(change)
    with pytest.raises(error) as info:
        validate_complex(n, listing)
    assert type(info.value) is error


def test_canonical_listing_names_its_first_missing_face():
    # Every path checks faces by building the facet table in canonical
    # order, so every listing, and the checked constructor, names the first
    # simplex in canonical order that misses a facet.
    n, listing = DISK
    listing = [s for s in listing if tuple(s) != SHARED_EDGE]
    assert _is_canonical_listing(list(map(tuple, listing)))
    shuffled = list(listing)
    shuffle(shuffled)
    first = min((t for t in TRIANGLES if set(SHARED_EDGE) < set(t)), key=simplex_key)
    for build, order in itertools.product(
        (validate_complex, SimplicialComplex), (listing, shuffled, listing[::-1])
    ):
        with pytest.raises(MissingFaceError) as info:
            build(n, order)
        assert str(info.value) == f"face {SHARED_EDGE} of {first} is missing"


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes(), st.data())
def test_face_check_names_the_first_simplex_missing_a_facet(k, data):
    # Drop a few simplices that have cofaces; every path names the first
    # simplex in canonical order that misses a facet, and that facet.
    removable = [s for s, up in zip(k.simplices, k.cofaces) if up]
    assume(removable)
    dropped = set(data.draw(st.lists(st.sampled_from(removable), min_size=1, max_size=3)))
    listing = [s for s in k.simplices if s not in dropped]
    face, first = first_missing_face(listing)
    shuffled = data.draw(st.permutations(listing))
    for build, order in itertools.product(
        (validate_complex, SimplicialComplex), (listing, shuffled, listing[::-1])
    ):
        with pytest.raises(MissingFaceError) as info:
            build(k.num_vertices, order)
        assert str(info.value) == f"face {face} of {first} is missing"


@st.composite
def relisted_complexes(draw):
    """A complex's canonical listing, as it is or changed in one way."""
    listing = list(draw(simplicial_complexes()).simplices)
    change = draw(st.sampled_from(
        ["none", "shuffled", "reversed", "duplicated", "descending", "empty_simplex", "empty"]
    ))
    if change == "shuffled":
        listing = draw(st.permutations(listing))
    elif change == "reversed":
        listing.reverse()
    elif change == "duplicated":
        i = draw(st.integers(0, len(listing) - 1))
        listing.insert(draw(st.integers(0, len(listing))), listing[i])
    elif change == "descending":
        wide = [i for i, s in enumerate(listing) if len(s) > 1]
        if wide:
            i = draw(st.sampled_from(wide))
            listing[i] = listing[i][::-1]
    elif change == "empty_simplex":
        listing.insert(draw(st.integers(0, len(listing))), ())
    elif change == "empty":
        listing = []
    return listing


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(relisted_complexes())
def test_canonical_listing_check_matches_the_key_definition(listing):
    assert _is_canonical_listing(listing) == is_canonical_listing_by_keys(listing)


def test_canonical_listing_check_on_named_listings():
    n, listing = DISK
    listing = list(map(tuple, listing))
    assert _is_canonical_listing(listing) and is_canonical_listing_by_keys(listing)
    for bad in (
        listing[::-1],
        listing + [listing[-1]],
        listing[:3] + [()] + listing[3:],
        [()] + listing,
        listing[:-1] + [listing[-1][::-1]],
        [(0,), (1,), (0, 1), (2,)],
    ):
        assert not _is_canonical_listing(bad)
        assert not is_canonical_listing_by_keys(bad)
    assert _is_canonical_listing([]) and is_canonical_listing_by_keys([])


def test_canonical_listing_past_its_vertex_count_is_out_of_range():
    n, listing = DISK
    with pytest.raises(VertexOutOfRangeError) as info:
        validate_complex(n - 1, listing)
    assert str(info.value) == f"simplex ({n - 1},) outside 0..{n - 2}"


# The checked constructor is ``validate_complex`` without face closure: on
# every listing both build equal complexes in the same order, or raise the
# same error with the same message.  The table pins the error that a listing
# with several faults raises.


def built_or_refused(build, n, listing, coordinates):
    try:
        k = build(n, listing, coordinates=coordinates)
    except ReebForgeError as exc:
        return type(exc), str(exc)
    return k, k.simplices, k.coordinates


def assert_one_checked_path(n, listing, coordinates=None):
    got = built_or_refused(SimplicialComplex, n, listing, coordinates)
    assert got == built_or_refused(validate_complex, n, listing, coordinates)
    return got


def ingest_cases():
    n, listing = DISK
    shuffled = list(listing)
    shuffle(shuffled)
    first = min((t for t in TRIANGLES if set(SHARED_EDGE) < set(t)), key=simplex_key)
    open_listing = [s for s in listing if tuple(s) != SHARED_EDGE]
    missing = (MissingFaceError, f"face {SHARED_EDGE} of {first} is missing")
    points = [[i, i * i] for i in range(n)]
    return [
        ("canonical", n, listing, None, None),
        ("shuffled", n, shuffled, None, None),
        ("reversed", n, listing[::-1], None, None),
        ("coordinates", n, shuffled, points, None),
        ("duplicated", n, listing + [listing[5]],
         None, (DuplicateSimplexError, f"simplex {tuple(listing[5])} listed twice")),
        ("duplicated_out_of_range", n, shuffled + [[0, n]] * 2,
         None, (DuplicateSimplexError, f"simplex (0, {n}) listed twice")),
        ("out_of_range", n - 1, listing,
         None, (VertexOutOfRangeError, f"simplex ({n - 1},) outside 0..{n - 2}")),
        ("negative_count", -1, [], None, (VertexOutOfRangeError, "negative vertex count")),
        ("negative_count_with_simplices", -1, listing,
         None, (VertexOutOfRangeError, "simplex (0,) outside 0..-2")),
        ("empty_simplex", n, listing + [[]], None, (InvalidSimplexError, "empty simplex")),
        ("repeated_vertex", n, [[3, 3]] + listing + [[0, 1], [1, 0]],
         None, (InvalidSimplexError, "repeated vertex id 3 in simplex (3, 3)")),
        ("missing_face", n, open_listing, None, missing),
        ("shuffled_missing_face", n, open_listing[::-1], None, missing),
        ("missing_face_and_coordinates", n, open_listing, points[1:], missing),
        ("coordinate_count", n, listing, points[1:],
         (ValueCountMismatchError, "one coordinate point per vertex required")),
        ("mixed_coordinates", n, shuffled, points[:-1] + [[0]],
         (InvalidSimplexError, "coordinate points have mixed ambient dimensions")),
    ]


@pytest.mark.parametrize(
    "n, listing, coordinates, error",
    [pytest.param(*case[1:], id=case[0]) for case in ingest_cases()],
)
def test_constructor_and_validate_complex_are_one_checked_path(n, listing, coordinates, error):
    got = assert_one_checked_path(n, listing, coordinates)
    if error is None:
        disk = validate_complex(*DISK, coordinates=coordinates)
        assert got[0] == disk and hash(got[0]) == hash(disk)
        assert (got[0].simplex_set, got[1]) == (disk.simplex_set, disk.simplices)
    else:
        assert got == error


@st.composite
def raw_listings(draw):
    """A complex's listing, changed in one way, perhaps missing a simplex,
    with a vertex count around 7 and perhaps one coordinate point per id."""
    listing = draw(relisted_complexes())
    if listing and draw(st.booleans()):
        del listing[draw(st.integers(0, len(listing) - 1))]
    n = draw(st.integers(-1, 8))
    coordinates = draw(st.none() | st.lists(
        st.lists(st.integers(-2, 2), min_size=1, max_size=2),
        min_size=max(n, 0), max_size=max(n, 0) + 1,
    ))
    return n, listing, coordinates


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(raw_listings())
def test_constructor_and_validate_complex_agree_on_drawn_listings(case):
    assert_one_checked_path(*case)


def test_constructor_refuses_a_simplex_listed_twice():
    with pytest.raises(DuplicateSimplexError) as info:
        SimplicialComplex(2, [(0,), (1,), (0,)])
    assert str(info.value) == "simplex (0,) listed twice"


# The checked constructors take exact input as it is: what ``int`` or
# ``Fraction`` would coerce, a float, a bool or a digit string, is refused.

PATH3 = [(0,), (1,), (2,), (0, 1), (1, 2)]


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SimplicialComplex(2, [(0,), (0.5,)]),
                     "vertex id must be an integer, got 0.5", id="float_vertex_id"),
        pytest.param(lambda: SimplicialComplex(3, [(0,), (True,)]),
                     "vertex id must be an integer, got True", id="bool_vertex_id"),
        pytest.param(lambda: SimplicialComplex(3, [(0,), ("1",)]),
                     "vertex id must be an integer, got '1'", id="string_vertex_id"),
        pytest.param(lambda: SimplicialComplex(2.7, [(0,), (1,)]),
                     "vertex count must be an integer, got 2.7", id="float_count"),
        pytest.param(lambda: validate_complex(2.7, [(0, 1)], close_faces=True),
                     "vertex count must be an integer, got 2.7", id="float_count_closed"),
        pytest.param(lambda: SimplicialComplex(True, [(0,)]),
                     "vertex count must be an integer, got True", id="bool_count"),
        pytest.param(lambda: SimplicialMap(path_complex(3), path_complex(3), [0.9, 1.2, 2.5]),
                     "vertex image must be an integer, got 0.9", id="float_images"),
        pytest.param(lambda: SimplicialMap(path_complex(3), path_complex(3), [0, True, 1]),
                     "vertex image must be an integer, got True", id="bool_image"),
        pytest.param(lambda: SimplicialMap(path_complex(3), path_complex(3), [0, "1", 2]),
                     "vertex image must be an integer, got '1'", id="string_image"),
        pytest.param(lambda: PLFunction(path_complex(3), [0.1, 0, 1]),
                     "value must be a rational, got 0.1", id="float_value"),
        pytest.param(lambda: PLFunction(path_complex(3), [0, False, 1]),
                     "value must be a rational, got False", id="bool_value"),
        pytest.param(lambda: PLFunction(path_complex(3), [0, "1/2", 1]),
                     "value must be a rational, got '1/2'", id="string_value"),
        pytest.param(lambda: SimplicialComplex(2, [(0,), (1,)], coordinates=[[0], [0.5]]),
                     "coordinate must be a rational, got 0.5", id="float_coordinate"),
        pytest.param(lambda: validate_complex(2, [(0, 1)], True, [[0], [0.5]]),
                     "coordinate must be a rational, got 0.5", id="float_coordinate_closed"),
        pytest.param(lambda: Poset("ab", [(0, 1.0)]),
                     "poset relation id must be an integer, got 1.0", id="float_relation"),
        pytest.param(lambda: Poset("ab", [("0", 1)]),
                     "poset relation id must be an integer, got '0'", id="string_relation"),
    ],
)
def test_checked_constructors_refuse_input_they_would_coerce(build, message):
    with pytest.raises(InvalidParamsError) as info:
        build()
    assert str(info.value) == message


def test_checked_constructors_take_ints_and_fractions_as_they_are():
    k = SimplicialComplex(3, PATH3, coordinates=[[0], [Fraction(1, 2)], [1]])
    assert k.coordinates == ((0,), (Fraction(1, 2),), (1,))
    assert all(type(c) is Fraction for p in k.coordinates for c in p)
    g = PLFunction(k, [2, Fraction(-1, 3), 0])
    assert g.values == (2, Fraction(-1, 3), 0)
    assert all(type(v) is Fraction for v in g.values)
    assert SimplicialMap(k, k, [0, 1, 1]).vertex_images == (0, 1, 1)
    assert Poset("abc", [(0, 1), (1, 2), (0, 2)]).covers == ((0, 1), (1, 2))


# The image table against the image of each simplex's vertex set, on checked
# maps and on the maps the package builds unchecked (a slice, a quotient map).

def images_of_vertex_sets(f):
    w = f.vertex_images
    return tuple(tuple(sorted({w[v] for v in s})) for s in f.domain.simplices)


IMAGE_TABLE_MAPS = [
    *(pytest.param(lambda s=s: random_map(s), id=f"random{s}") for s in range(50)),
    pytest.param(lambda: disk_collapse(1), id="disk1"),
    pytest.param(lambda: disk_collapse(2), id="disk2"),
    pytest.param(lambda: torus_height()[1], id="torus_slice"),
    pytest.param(lambda: product_power(disk_collapse(1), 3), id="product_n1_k3"),
    pytest.param(lambda: product_power(disk_collapse(2), 2), id="product"),
    pytest.param(lambda: pl_as_simplicial_map(random_function(3)).map, id="slice"),
    pytest.param(lambda: reeb_space(disk_collapse(2)).quotient_map, id="quotient"),
    pytest.param(lambda: reeb_space(random_map(7)).quotient_map, id="quotient_random7"),
]


@pytest.mark.parametrize("build", IMAGE_TABLE_MAPS)
def test_image_table_is_the_image_of_each_vertex_set(build):
    f = build()
    table = f.simplex_images
    assert table == images_of_vertex_sets(f)
    assert table == tuple(map(f.image_simplex, f.domain.simplices))
    # A simplex whose first vertex's image repeats shares its facet's tuple.
    for t, fs in zip(table, f.domain.facets):
        if fs and len(table[fs[0]]) == len(t):
            assert t is table[fs[0]]


def test_edge_checked_maps_leave_the_image_table_unbuilt():
    built = [
        _edge_checked_map(path_complex(3), path_complex(3), [0, 1, 1]),
        pl_as_simplicial_map(random_function(3)).map,
        torus_height()[1],
        reeb_space(disk_collapse(2)).quotient_map,
    ]
    for f in built:
        assert "simplex_images" not in vars(f)
    assert built[0].simplex_images == ((0,), (1,), (1,), (0, 1), (1,))


# label_components leaves every member's pointer on itself or on a smaller
# member, so one pass over ascending members roots them all: the pass that
# reeb_space, component_classes and the Reeb-graph sweep's relabels use in
# place of find_root.  The order matters: a descending pass reads pointers
# that are not yet rooted.


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_one_ascending_pass_after_label_components_matches_find_root(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    if data.draw(st.booleans()):
        members = list(range(n))
    else:
        members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(members), st.sampled_from(members)),
                               max_size=2 * n))
    neighbors = [[] for _ in range(n)]
    for a, b in pairs:
        neighbors[a].append(b)
    # Stale entries off the members: one array serves many calls.
    parent = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    roots = complexes.label_components(members, neighbors, parent)
    assert all(parent[s] <= s and parent[s] in members for s in members)
    want = [find_root(list(parent), s) for s in members]
    classes = {r: [s for s, w in zip(members, want) if w == r] for r in roots}
    for s in members:
        parent[s] = parent[parent[s]]
    assert [parent[s] for s in members] == want
    assert complexes.component_classes(members, neighbors, list(range(n))) == list(classes.values())


def test_a_descending_pass_after_label_components_can_miss_the_root():
    # Member 2 joins 3, then 1, then 0: pointers 3 -> 2 -> 1 -> 0, two
    # unions deep below 3, which no halving step shortens.
    members = [0, 1, 2, 3]
    neighbors = [[], [], [3, 1, 0], []]
    parent = list(range(4))
    assert complexes.label_components(members, neighbors, parent) == [0]
    assert parent == [0, 0, 1, 2]
    descending = list(parent)
    for s in reversed(members):
        descending[s] = descending[descending[s]]
    assert descending == [0, 0, 0, 1]
    for s in members:
        parent[s] = parent[parent[s]]
    assert parent == [0, 0, 0, 0]
