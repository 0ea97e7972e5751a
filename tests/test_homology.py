import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebforge import (
    BettiVector,
    InvariantError,
    SimplicialComplex,
    barycentric_subdivision,
    betti,
    betti_report,
    connected_components,
    euler_characteristic,
    fiber_power_betti,
    fiberprod,
    homology,
    rank_fraction_free,
    validate_complex,
)
from reebforge.homology import (
    collapse_face_poset,
    free_face_collapse,
    regular_cw_betti,
)
from reebforge.fixtures import (
    boundary_delta3,
    circle,
    disk_collapse,
    full_simplex,
    grid_torus,
    path_complex,
    product_power,
    random_map,
)
from reebforge.reeb import reeb_space

from .oracles import (
    _cell_poset,
    betti_numbers_uncleared,
    boundary_matrix_dense,
    collapse_face_poset_sets,
    convolve,
    gauss_rank_fractions,
    minimal_torus,
    naive_betti,
    smith_rank,
    stratum_poset,
)

SUITE = [
    path_complex(5),
    circle(3),
    circle(6),
    full_simplex(3),
    boundary_delta3(),
    minimal_torus(),
    grid_torus(3, 3),
]


def projective_plane():
    # Minimal 6-vertex triangulation: a vertex star plus a pentagram.
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    return validate_complex(6, faces, close_faces=True)


def test_circle_betti():
    assert betti(circle(3)) == (1, 1)


def test_sphere_betti():
    assert betti(boundary_delta3()) == (1, 0, 1)


def test_point_betti():
    assert betti(SimplicialComplex(1, [(0,)])) == (1,)


def test_empty_complex_betti():
    assert betti(SimplicialComplex(0, [])) == ()


def test_torus_betti_cross_checked_by_smith_oracle():
    torus = minimal_torus()
    assert euler_characteristic(torus) == 0
    assert betti(torus) == (1, 2, 1)
    by_dim = {d: list(v) for d, v in torus.by_dim().items()}
    r1 = smith_rank(boundary_matrix_dense(by_dim, 1))
    r2 = smith_rank(boundary_matrix_dense(by_dim, 2))
    assert (7 - r1, 21 - r1 - r2, 14 - r2) == (1, 2, 1)


def test_projective_plane_rational_betti():
    rp2 = projective_plane()
    assert euler_characteristic(rp2) == 1
    # Over the rationals the torsion is invisible.
    assert betti(rp2) == (1,)


def test_boundary_matrix_squares_to_zero():
    for complex_ in (full_simplex(2), full_simplex(3), minimal_torus()):
        by_dim = {d: list(v) for d, v in complex_.by_dim().items()}
        for d in range(2, max(by_dim) + 1):
            lower = boundary_matrix_dense(by_dim, d - 1)
            upper = boundary_matrix_dense(by_dim, d)
            product = [
                [sum(row[k] * upper[k][j] for k in range(len(upper))) for j in range(len(upper[0]))]
                for row in lower
            ]
            assert all(v == 0 for row in product for v in row)


@pytest.mark.parametrize("complex_", SUITE)
def test_euler_matches_alternating_betti_sum(complex_):
    bv = betti(complex_)
    assert bv.euler == euler_characteristic(complex_)


@pytest.mark.parametrize("complex_", SUITE)
def test_betti_invariant_under_subdivision(complex_):
    sd, _ = barycentric_subdivision(complex_)
    assert betti(sd) == betti(complex_)


@pytest.mark.parametrize("complex_", SUITE)
def test_collapse_does_not_change_betti(complex_):
    core = free_face_collapse(complex_.simplex_set)
    assert naive_betti(core) == naive_betti(complex_.simplex_set)


@pytest.mark.parametrize("complex_", SUITE)
def test_betti_agrees_with_naive_oracle(complex_):
    assert betti(complex_).as_list() == naive_betti(complex_.simplex_set)


def test_betti_of_disjoint_union_is_componentwise_sum():
    # Circle next to a sphere.
    circ = circle(3)
    sph = boundary_delta3()
    shifted = [tuple(v + 3 for v in s) for s in sph.simplex_set]
    union = SimplicialComplex(7, list(circ.simplex_set) + shifted)
    bv = betti(union)
    assert bv == (2, 1, 1)
    assert bv[0] == len(connected_components(union, union.simplices))


def test_rank_matches_gauss_oracle_on_random_sparse_matrices():
    rng = random.Random(20240811)
    for _ in range(40):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        dense = [
            [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)
        ]
        columns = [
            {r: dense[r][c] for r in range(rows) if dense[r][c]} for c in range(cols)
        ]
        assert rank_fraction_free(columns) == gauss_rank_fractions(dense)


def test_rank_fraction_free_drops_explicit_zeros():
    # The public rank takes explicit zeros, which the rank stage's own
    # elimination does not: a column of zeros only, and zeros beside
    # nonzeros, give the rank of the zero-free matrix.
    rng = random.Random(35)
    assert rank_fraction_free([{0: 0, 3: 0}, {}]) == 0
    assert rank_fraction_free([{0: 0, 1: 2}, {0: 0, 1: 3, 2: 0}, {5: 0}]) == 1
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)]
        with_zeros = [{r: dense[r][c] for r in range(rows)} for c in range(cols)]
        zero_free = [{r: v for r, v in col.items() if v} for col in with_zeros]
        assert rank_fraction_free(with_zeros) == rank_fraction_free(zero_free)
        assert rank_fraction_free(with_zeros) == gauss_rank_fractions(dense)


def test_rank_matches_oracles_on_boundary_matrices_up_to_50():
    for complex_ in SUITE:
        by_dim = {d: list(v) for d, v in complex_.by_dim().items()}
        for d in range(1, max(by_dim) + 1):
            dense = boundary_matrix_dense(by_dim, d)
            if not dense or len(dense) > 50 or len(dense[0]) > 50:
                continue
            columns = [
                {r: dense[r][c] for r in range(len(dense)) if dense[r][c]}
                for c in range(len(dense[0]))
            ]
            expected = gauss_rank_fractions(dense)
            assert rank_fraction_free(columns) == expected
            assert smith_rank(dense) == expected


def test_free_face_collapse_preserves_face_closure():
    k = full_simplex(3)
    core = free_face_collapse(k.simplex_set)
    SimplicialComplex(4, core)  # validates closure
    assert len(core) == 1  # a cone collapses to a point


def test_collapse_leaves_closed_surfaces_alone():
    torus = minimal_torus()
    assert free_face_collapse(torus.simplex_set) == torus.simplex_set


# The count/XOR collapse against the set-of-covers collapse it replaced, on
# the three producers of face posets: simplicial complexes, fiber-power cell
# models and Reeb-space stratum posets.


def stratum_facets(space):
    facets = [[] for _ in space.strata]
    for lower, upper in stratum_poset(space).covers:
        facets[upper].append(lower)
    return facets


@st.composite
def simplicial_complexes(draw):
    tops = draw(
        st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=10)
    )
    closed = {
        face for top in tops for k in range(1, len(top) + 1) for face in combinations(sorted(top), k)
    }
    return SimplicialComplex(7, closed)


face_posets = st.one_of(
    simplicial_complexes().map(lambda k: k.facets),
    st.builds(
        lambda seed, p: _cell_poset(random_map(seed, size=8), p)[1],
        st.integers(0, 49),
        st.integers(0, 2),
    ),
    st.builds(lambda seed: stratum_facets(reeb_space(random_map(seed))), st.integers(0, 49)),
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(face_posets)
def test_collapse_matches_set_of_covers_oracle(facets):
    assert collapse_face_poset(facets) == collapse_face_poset_sets(facets)


# Betti numbers from cleared coboundary ranks against the uncleared boundary
# ranks they replaced, on the signed chain complexes that each producer hands
# to the rank stage.


def signed_cores(monkeypatch, run):
    """(dims, boundaries, Betti vector) of every chain complex ``run`` ranks."""
    seen = []
    ranked = homology._betti_numbers

    def record(dims, boundaries):
        out = ranked(dims, boundaries)
        seen.append((dims, boundaries, out))
        return out

    monkeypatch.setattr(homology, "_betti_numbers", record)
    monkeypatch.setattr(fiberprod, "_betti_numbers", record)
    run()
    return seen


CORE_PRODUCERS = {
    "battery_p_le_2": lambda: [
        fiber_power_betti(random_map(seed), p) for seed in range(10) for p in range(3)
    ],
    "disk2_quotient_p2": lambda: fiber_power_betti(
        reeb_space(disk_collapse(2)).quotient_map, 2
    ),
    "strata": lambda: [reeb_space(random_map(seed)).betti() for seed in range(20)]
    + [reeb_space(product_power(disk_collapse(2), 2)).betti()],
    "simplicial": lambda: [
        betti(k) for k in SUITE + [projective_plane(), barycentric_subdivision(minimal_torus())[0]]
    ],
}


@pytest.mark.parametrize("producer", sorted(CORE_PRODUCERS))
def test_cleared_betti_matches_uncleared_oracle(monkeypatch, producer):
    cores = signed_cores(monkeypatch, CORE_PRODUCERS[producer])
    assert cores
    for dims, boundaries, out in cores:
        assert out.as_list() == betti_numbers_uncleared(dims, boundaries)


@pytest.mark.parametrize("producer", sorted(CORE_PRODUCERS))
def test_producers_hand_the_rank_stage_no_zero_entry(monkeypatch, producer):
    cores = signed_cores(monkeypatch, CORE_PRODUCERS[producer])
    assert cores
    for _, boundaries, _ in cores:
        assert all(all(bd.values()) for bd in boundaries)


def relabel(dims, boundaries, rng):
    """The complex with cell c renamed new[c], by a random permutation."""
    new = list(range(len(dims)))
    rng.shuffle(new)
    relabelled_dims, relabelled = [0] * len(dims), [None] * len(dims)
    for c, d in enumerate(dims):
        relabelled_dims[new[c]] = d
        relabelled[new[c]] = {new[g]: e for g, e in boundaries[c].items()}
    return relabelled_dims, relabelled


@pytest.mark.parametrize("producer", sorted(CORE_PRODUCERS))
def test_betti_numbers_do_not_depend_on_cell_ids(monkeypatch, producer):
    # The rank stage takes a cell's id as its row and column, so a
    # relabelling changes every pivot order, forest and clearing, but no
    # Betti number.
    rng = random.Random(34)
    cores = signed_cores(monkeypatch, CORE_PRODUCERS[producer])
    monkeypatch.undo()
    assert cores
    for dims, boundaries, out in cores:
        dims, boundaries = relabel(dims, boundaries, rng)
        assert homology._betti_numbers(dims, boundaries) == out
        assert out.as_list() == betti_numbers_uncleared(dims, boundaries)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_betti_matches_naive_oracle_on_random_complexes(complex_):
    assert betti(complex_).as_list() == naive_betti(complex_.simplex_set)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_subdivision_keeps_betti_and_equals_its_checked_rebuild(complex_):
    sd, _ = barycentric_subdivision(complex_)
    assert betti(sd) == betti(complex_)
    assert SimplicialComplex(sd.num_vertices, sd.simplex_set) == sd
    # Canonical order: dimension first, then lexicographic.
    assert sd.simplices == tuple(sorted(sd.simplex_set, key=lambda s: (len(s), s)))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_euler_is_alternating_betti_sum_on_random_complexes(complex_):
    assert betti(complex_).euler == euler_characteristic(complex_)


def test_face_poset_producers_never_repeat_a_facet():
    # collapse_face_poset keeps only a count and an XOR of each cell's
    # covers, which is exact only when no facet list repeats an id.
    posets = [k.facets for k in SUITE]
    posets += [_cell_poset(random_map(seed), p)[1] for seed in range(10) for p in range(3)]
    posets += [stratum_facets(reeb_space(random_map(seed))) for seed in range(50)]
    posets.append(stratum_facets(reeb_space(product_power(disk_collapse(2), 2))))
    for facets in posets:
        assert all(len(set(fs)) == len(fs) for fs in facets)


def test_betti_report_shape():
    report = betti_report(boundary_delta3())
    assert report == {"betti": [1, 0, 1], "total": 2, "euler": 2}


def test_euler_examples():
    assert euler_characteristic(boundary_delta3()) == 2
    assert euler_characteristic(minimal_torus()) == 0
    assert euler_characteristic(SimplicialComplex(1, [(0,)])) == 1


def test_betti_vector_semantics():
    bv = BettiVector((1, 0, 2, 0, 0))
    assert bv.numbers == (1, 0, 2)
    assert bv == [1, 0, 2, 0]
    assert bv[5] == 0
    assert bv.total == 3


def test_convolve():
    assert convolve((1, 0, 1), (1, 0, 1)) == (1, 0, 2, 0, 1)
    assert convolve((1, 1), (1, 1)) == (1, 2, 1)
    assert convolve((), (1, 2)) == ()


def test_regular_cw_betti_on_simplicial_input():
    # Feed a simplicial complex's own face relation through the CW engine.
    for complex_ in (circle(4), boundary_delta3(), minimal_torus()):
        simplices = complex_.simplices
        index = {s: i for i, s in enumerate(simplices)}
        dims = [len(s) - 1 for s in simplices]
        facets = [
            [index[s[:i] + s[i + 1 :]] for i in range(len(s))] if len(s) > 1 else []
            for s in simplices
        ]
        assert regular_cw_betti(dims, facets) == betti(complex_)


def test_regular_cw_betti_on_a_square_complex():
    # One square with its four edges and vertices: contractible.
    dims = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    facets = [[], [], [], [], [0, 1], [1, 2], [2, 3], [0, 3], [4, 5, 6, 7]]
    assert regular_cw_betti(dims, facets) == (1,)
    # Remove the 2-cell: a circle.
    assert regular_cw_betti(dims[:-1], facets[:-1]) == (1, 1)


@pytest.mark.parametrize(
    "dims, facets, message",
    [
        # A 1-cell with a single endpoint.
        ([0, 1], [[], [0]], "two distinct endpoints"),
        # Three edges at one vertex, glued as the boundary of one 2-cell.
        (
            [0, 0, 0, 0, 1, 1, 1, 2],
            [[], [], [], [], [0, 1], [0, 2], [0, 3], [4, 5, 6]],
            "lies in 3 facets",
        ),
        # A 2-cell bounded by two disjoint triangles.
        (
            [0] * 6 + [1] * 6 + [2],
            [[]] * 6
            + [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
            + [[6, 7, 8, 9, 10, 11]],
            "disconnected",
        ),
    ],
    ids=["endpoints", "ridge_in_three_facets", "disconnected_facet_graph"],
)
def test_regular_cw_betti_rejects_broken_posets(dims, facets, message):
    with pytest.raises(InvariantError, match=message):
        regular_cw_betti(dims, facets)


@pytest.mark.parametrize(
    "boundary",
    [{0: 1}, {0: 1, 1: 1}, {0: 2, 1: -2}, {0: 1, 1: -1, 2: 1}],
    ids=["one_endpoint", "same_signs", "not_unit", "three_endpoints"],
)
def test_betti_numbers_rejects_malformed_one_cells(boundary):
    # Degree 0 is ranked by union-find on the 1-cells' endpoints, which
    # holds only for boundaries a - b.
    dims = [0, 0, 0, 1]
    boundaries = [{}, {}, {}, boundary]
    with pytest.raises(InvariantError, match="1-cell 3 has boundary") as raised:
        homology._betti_numbers(dims, boundaries)
    assert str(raised.value) == f"1-cell 3 has boundary {boundary}, not a - b"


@pytest.mark.parametrize(
    "boundary", [{0: 1, 1: -1}, {0: -1, 1: 1}, {1: 1, 0: -1}, {1: -1, 0: 1}]
)
def test_betti_numbers_accept_a_minus_b_in_any_order(boundary):
    # Two 0-cells joined by one edge, and a third 0-cell alone.
    dims = [0, 0, 0, 1]
    assert homology._betti_numbers(dims, [{}, {}, {}, boundary]) == (2,)


def test_betti_numbers_accepts_a_loop_one_cell():
    # A critical 1-cell of a Morse complex whose two ends flow to one
    # critical 0-cell has boundary 0: a loop, which joins nothing.
    assert homology._betti_numbers([0, 1], [{}, {}]) == (1, 1)
    dims = [0, 0, 1, 1]
    assert homology._betti_numbers(dims, [{}, {}, {}, {0: 1, 1: -1}]) == (1, 1)
