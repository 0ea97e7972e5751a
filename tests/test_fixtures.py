import pytest

from reebforge import (
    InvalidParamsError,
    InvariantError,
    SimplicialComplex,
    UnsupportedDimensionError,
    betti,
    euler_characteristic,
    verify_quotient,
)
from reebforge.fixtures import (
    FIXTURE_PARAMS,
    FixtureSpec,
    boundary_delta3,
    build_fixture,
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

from .oracles import (
    boundary_delta3_checked,
    full_simplex_checked,
    grid_torus_checked,
    minimal_torus,
    random_map_checked,
)


def test_disk_collapse_validates():
    for n in (1, 2):
        f = disk_collapse(n)
        SimplicialComplex(f.domain.num_vertices, f.domain.simplex_set)
        SimplicialComplex(f.codomain.num_vertices, f.codomain.simplex_set)


def test_disk_collapse_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        disk_collapse(3)


def test_disk_collapse_two_is_a_disk_with_collapsed_boundary():
    f = disk_collapse(2)
    assert euler_characteristic(f.domain) == 1
    assert betti(f.domain) == (1,)
    # Boundary = vertices of degree-one edges; all must map to one codomain
    # vertex.  The boundary cycle is the hexagonal link of the removed star.
    edge_cofaces = {}
    for s in f.domain.by_dim()[2]:
        for i in range(3):
            face = s[:i] + s[i + 1 :]
            edge_cofaces[face] = edge_cofaces.get(face, 0) + 1
    boundary_edges = [e for e in f.domain.by_dim()[1] if edge_cofaces.get(e, 0) == 1]
    boundary_vertices = {v for e in boundary_edges for v in e}
    assert len(boundary_edges) == 6
    assert len(boundary_vertices) == 6
    images = {f.vertex_images[v] for v in boundary_vertices}
    assert len(images) == 1


def test_product_power_k1_is_identityish():
    f = disk_collapse(2)
    assert product_power(f, 1) is f


def test_circle_needs_three_vertices():
    with pytest.raises(InvalidParamsError, match="at least 3 vertices"):
        circle(2)
    assert circle(3).simplex_counts() == (3, 3)


def test_product_power_requires_positive_k():
    with pytest.raises(InvalidParamsError):
        product_power(disk_collapse(1), 0)


def test_torus_height_fixture():
    height, sliced = torus_height()
    assert euler_characteristic(height.complex) == 0
    assert betti(height.complex) == (1, 2, 1)
    # 24 distinct values, each its vertex id mod 1000.
    assert height.complex.num_vertices == len(set(height.values)) == 24
    assert [v % 1000 for v in height.values] == list(range(24))
    # The sliced form is a genuine simplicial map onto a path.
    assert sliced.codomain.dim == 1


def test_grid_torus_shapes():
    t = grid_torus(4, 4)
    assert euler_characteristic(t) == 0
    assert betti(t) == (1, 2, 1)
    with pytest.raises(InvalidParamsError):
        grid_torus(2, 5)


def assert_equals_checked_build(built, reference):
    # The generator's own listing equals the validated build, and the
    # checked constructor takes it as it stands: that builds the facet
    # table, so it is also the face check.
    assert built == reference
    assert SimplicialComplex(built.num_vertices, built.simplices) == built


# Every square size of the reeb_graph_mesh workload.
MESH_TORUS_SIDES = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20)


@pytest.mark.parametrize("m", range(3, 21))
def test_grid_torus_equals_its_checked_build(m):
    sides = [(m, n) for n in range(3, 9)]
    if m in MESH_TORUS_SIDES:
        sides.append((m, m))
    for rows, cols in sides:
        assert_equals_checked_build(grid_torus(rows, cols), grid_torus_checked(rows, cols))


@pytest.mark.parametrize("size", (6, 12, 32, 64))
def test_random_map_equals_its_checked_build(size):
    for seed in range(200):
        f = random_map(seed, size=size)
        reference = random_map_checked(seed, size)
        assert f == reference
        assert_equals_checked_build(f.domain, reference.domain)
        assert_equals_checked_build(f.codomain, reference.codomain)


def test_simplex_fixtures_equal_their_checked_builds():
    for dim in range(6):
        assert_equals_checked_build(full_simplex(dim), full_simplex_checked(dim))
    assert_equals_checked_build(boundary_delta3(), boundary_delta3_checked())


def test_minimal_torus_is_two_neighborly():
    t = minimal_torus()
    assert t.simplex_counts() == (7, 21, 14)


def test_random_map_deterministic():
    for seed in range(8):
        assert random_map(seed) == random_map(seed)
    assert random_map(1) != random_map(2)


def test_random_map_connected_and_valid():
    for seed in range(20):
        f = random_map(seed)
        from reebforge import connected_components

        assert len(connected_components(f.domain, f.domain.simplices)) == 1
        SimplicialComplex(f.domain.num_vertices, f.domain.simplex_set)


def test_random_map_size_budget():
    for seed in range(20):
        assert len(random_map(seed).domain.simplex_set) <= 44
    with pytest.raises(InvalidParamsError):
        random_map(0, size=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_map(1.7),
        lambda: random_map(True),
        lambda: random_map("1"),
        lambda: random_map(3, size=12.5),
        lambda: random_map(3, size=True),
        lambda: random_function(1.5),
        lambda: random_function(3, size=12.5),
        lambda: build_fixture(FixtureSpec("random_map", {"seed": 1.5})),
        lambda: build_fixture(FixtureSpec("random_map", {"size": "12"})),
        lambda: build_fixture(FixtureSpec("disk_collapse", {"n": True})),
    ],
    ids=[
        "seed_float", "seed_bool", "seed_str", "size_float", "size_bool",
        "function_seed_float", "function_size_float",
        "spec_seed_float", "spec_size_str", "spec_n_bool",
    ],
)
def test_fixture_numbers_must_be_integers(call):
    # Nothing is truncated by int() or read as 0 or 1, and no bare
    # ValueError escapes from random.
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        call()


GENERATORS = {
    "grid_torus_m": lambda x: grid_torus(x, 3),
    "grid_torus_n": lambda x: grid_torus(3, x),
    "circle": circle,
    "path_complex": path_complex,
    "full_simplex": full_simplex,
    "disk_collapse": disk_collapse,
    "product_power": lambda x: product_power(disk_collapse(1), x),
}


@pytest.mark.parametrize(
    "call, arg, message",
    [(GENERATORS[name], bad, "must be an integer") for name in GENERATORS for bad in (1.5, True, "3")]
    + [(random_map, -1, "seed must be >= 0, got -1"),
       (random_function, -1, "seed must be >= 0, got -1"),
       (full_simplex, -1, "dim must be >= 0, got -1")],
    ids=[f"{name}-{bad!r}" for name in GENERATORS for bad in (1.5, True, "3")]
    + ["random_map-negative_seed", "random_function-negative_seed", "full_simplex-negative_dim"],
)
def test_fixture_generators_refuse_what_is_not_a_count(call, arg, message):
    # No bare TypeError from range, no bool read as 1, and no negative
    # seed that random.Random would read as its absolute value.
    with pytest.raises(InvalidParamsError, match=message):
        call(arg)


def test_random_function_distinct_values():
    for seed in range(10):
        g = random_function(seed)
        assert len(set(g.values)) == g.complex.num_vertices
        assert random_function(seed) == g


def test_random_map_quotients_verify_hundred_seeds():
    for seed in range(100):
        assert verify_quotient(random_map(seed))["ok"]


def test_random_map_descent_p1_sweep():
    from reebforge import descent_check

    for seed in range(100):
        assert descent_check(random_map(seed), target="image", p_max=1)["ok"]


def test_product_of_interval_reebs_is_a_disk():
    from reebforge import betti, reeb_space

    from .oracles import convolve

    f = disk_collapse(1)
    squared = product_power(f, 2)
    factor = betti(reeb_space(f).realization)
    assert betti(reeb_space(squared).realization) == convolve(factor, factor) == (1,)


def test_product_power_k_capped_by_base_dimension():
    with pytest.raises(InvalidParamsError):
        build_fixture(FixtureSpec("product_power", {"n": 2, "k": 3}))
    small = build_fixture(FixtureSpec("product_power", {"n": 1, "k": 3}))
    assert small["map"].domain.num_vertices == 64


def test_fixture_spec_dispatch():
    spec = FixtureSpec("disk_collapse", {"n": 1})
    artifacts = build_fixture(spec)
    assert artifacts["map"] == disk_collapse(1)

    both = build_fixture(FixtureSpec("torus_height"))
    assert "function" in both and "map" in both


def test_fixture_spec_validation():
    with pytest.raises(InvalidParamsError):
        build_fixture(FixtureSpec("no_such_fixture"))
    with pytest.raises(InvalidParamsError):
        build_fixture(FixtureSpec("disk_collapse", {"n": 9}))
    with pytest.raises(InvalidParamsError):
        build_fixture(FixtureSpec("disk_collapse", {"bogus": 1}))
    assert set(FIXTURE_PARAMS) == {
        "disk_collapse",
        "product_power",
        "torus_height",
        "random_map",
    }


def test_a_listed_fixture_without_a_builder_is_an_invariant_error(monkeypatch):
    monkeypatch.setitem(FIXTURE_PARAMS, "unbuilt", {})
    with pytest.raises(InvariantError, match="'unbuilt' is listed but has no builder"):
        build_fixture(FixtureSpec("unbuilt"))
