import json
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebforge import (
    BudgetExceededError,
    InvalidParamsError,
    InvariantError,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    betti,
    descent_check,
    fiber_components_at,
    fiber_power_betti,
    fiber_power_nerve,
    image_subcomplex,
    reeb_space,
)
from reebforge import cli, fiberprod
from reebforge.complexes import _chain_count, _face_pairs
from reebforge.errors import DEFAULT_CELL_CAP, resolve_cell_cap
from reebforge.fiberprod import (
    _MorseModel,
    _check_cell_cap,
    _group_sizes,
    _quotient_group_sizes,
)
from reebforge.fixtures import (
    boundary_delta3,
    circle,
    disk_collapse,
    full_simplex,
    path_complex,
    product_power,
    random_function,
    random_map,
    torus_height,
)
from reebforge.homology import regular_cw_betti
from reebforge.io import dumps_report, map_to_doc
from reebforge.reeb import Stratum, pl_as_simplicial_map

from .oracles import (
    _cell_poset,
    _exact_image_groups,
    betti_numbers_uncleared,
    cayley_tables,
    cell_poset_betti,
    fiber_power_cells_tuples,
    fiber_power_triangulation_betti,
    koszul_signs,
    morse_complex_unpruned,
    morse_facets_unpruned,
    quotient_group_sizes_sorted,
)


def point():
    return SimplicialComplex(1, [(0,)])


def constant_circle_map():
    return SimplicialMap(circle(3), point(), [0, 0, 0])


def test_nerve_identity_edge_is_a_point():
    edge = path_complex(2)
    ident = SimplicialMap(edge, edge, [0, 1])
    nerve = fiber_power_nerve(ident, 1)
    assert nerve.num_vertices == 1
    assert betti(nerve) == (1,)


def test_nerve_two_vertices_distinct_images():
    two = SimplicialComplex(2, [(0,), (1,)])
    f = SimplicialMap(two, two, [0, 1])
    assert betti(fiber_power_nerve(f, 1)) == (2,)


def test_nerve_two_vertices_same_image():
    two = SimplicialComplex(2, [(0,), (1,)])
    f = SimplicialMap(two, point(), [0, 0])
    nerve = fiber_power_nerve(f, 1)
    assert nerve.num_vertices == 4
    assert betti(nerve) == (4,)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nerve_p0_recovers_domain_betti(seed):
    f = random_map(seed)
    assert betti(fiber_power_nerve(f, 0)) == betti(f.domain)


def test_cells_p0_recovers_domain_betti():
    for f in (disk_collapse(1), disk_collapse(2), constant_circle_map()):
        assert _MorseModel(f).betti(0) == betti(f.domain)


def test_constant_map_powers_are_cartesian_powers():
    const = constant_circle_map()
    assert betti(fiber_power_nerve(const, 1)) == (1, 2, 1)
    assert fiber_power_betti(const, 1, engine="cells") == (1, 2, 1)
    assert fiber_power_betti(const, 2, engine="cells") == (1, 3, 3, 1)


def test_identity_powers_are_the_domain():
    sphere = boundary_delta3()
    ident = SimplicialMap(sphere, sphere, list(range(4)))
    for p in (0, 1, 2):
        assert fiber_power_betti(ident, p, engine="cells") == (1, 0, 1)
    assert betti(fiber_power_nerve(ident, 1)) == (1, 0, 1)


def test_identity_power_at_a_large_p_takes_time_linear_in_p():
    # Groups of one simplex pass any cap, so p is unbounded; a group with
    # no Morse differential emits no d^(x) terms, which would cost p**2.
    sphere = boundary_delta3()
    ident = SimplicialMap(sphere, sphere, list(range(4)))
    start = time.perf_counter()
    assert fiber_power_betti(ident, 5000) == (1, 0, 1)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("p", [20_000, 10_000_000])
def test_identity_power_at_a_huge_p_is_refused_at_once(p):
    # The unreduced count stays 14 for any p, but the 14 critical cells
    # carry p + 1 components each, so (p + 1) * 14 passes the cap.
    sphere = boundary_delta3()
    ident = SimplicialMap(sphere, sphere, list(range(4)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        fiber_power_betti(ident, p)
    assert time.perf_counter() - start < 1
    exc, count = info.value, 14 * (p + 1)
    assert (str(exc), exc.stage, exc.count, exc.cap) == (
        f"{count} components of critical fiber-power cells exceed the cap of 200000",
        "fiber-power cells",
        count,
        200_000,
    )


@pytest.mark.parametrize("target", ["image", "reeb"])
def test_descent_refuses_critical_components_past_the_cap(target):
    # Both targets: the identity's quotient map has 74 groups of one chain,
    # so each power passes the unreduced check at a cap of 80, and the six
    # components of each of the 14 critical cells at p = 5 do not.
    sphere = boundary_delta3()
    ident = SimplicialMap(sphere, sphere, list(range(4)))
    assert descent_check(ident, target=target, p_max=4, cell_cap=80)["ok"]
    with pytest.raises(BudgetExceededError) as info:
        descent_check(ident, target=target, p_max=5, cell_cap=80)
    assert str(info.value) == "84 components of critical fiber-power cells exceed the cap of 80"


def identity_map():
    sphere = boundary_delta3()
    return SimplicialMap(sphere, sphere, list(range(4)))


def loop_refusal(f, target, p_max, cap):
    """The refusal of the power-by-power loop: at each p the unreduced
    count, then the critical components, until one passes the cap."""
    if target == "image":
        label, sizes = None, _group_sizes(f)
    else:
        label = reeb_space(f).exact_strata
        sizes = _quotient_group_sizes(f.domain, label)
    critical = [len(c) for c in _MorseModel(f, label).critical]
    try:
        for p in range(p_max + 1):
            _check_cell_cap(sizes, p, cap)
            _check_cell_cap(critical, p, cap, p + 1, "components of critical fiber-power cells")
    except BudgetExceededError as exc:
        return str(exc), exc.stage, exc.count, exc.cap
    return None


@pytest.mark.parametrize(
    "build, target, p_max, cap",
    [
        (lambda: random_map(1), "image", 2, 30_000),
        (lambda: random_map(1), "image", 10_000_000, 30_000),
        *((lambda: random_map(1), t, 4, c) for t in ("image", "reeb") for c in (400, 6_000, 100_000)),
        (lambda: random_map(1), "reeb", 2, DEFAULT_CELL_CAP),
        (lambda: random_map(1), "reeb", 10_000_000, DEFAULT_CELL_CAP),
        (identity_map, "image", 10_000_000, DEFAULT_CELL_CAP),
        (identity_map, "reeb", 10_000_000, DEFAULT_CELL_CAP),
        (identity_map, "reeb", 40, 80),
    ],
)
def test_up_front_refusal_is_the_loops(build, target, p_max, cap):
    # Refused at once, before any power, with the message, stage, count and
    # cap of the least p the loop refuses: at a cap of 6,000 random_map(1)'s
    # image-target counts both first pass it at p = 2, and the unreduced one
    # is named; the identity's 14 critical cells of p + 1 components first
    # pass the default cap at p = 14,285.
    f = build()
    expected = loop_refusal(f, target, p_max, cap)
    assert expected is not None
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        descent_check(f, target=target, p_max=p_max, cell_cap=cap)
    assert time.perf_counter() - start < 1
    exc = info.value
    assert (str(exc), exc.stage, exc.count, exc.cap) == expected


def small_instances():
    """Maps with at most 6 maximal domain simplices for the oracle."""
    edge = path_complex(2)
    v_shape = path_complex(3)
    collapse = SimplicialMap(v_shape, edge, [0, 1, 0])
    two = SimplicialComplex(2, [(0,), (1,)])
    tri = full_simplex(2)
    squash = SimplicialMap(tri, edge, [0, 1, 1])
    return [
        SimplicialMap(edge, edge, [0, 1]),
        collapse,
        SimplicialMap(two, point(), [0, 0]),
        constant_circle_map(),
        disk_collapse(1),
        squash,
    ]


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("p", [0, 1])
def test_engines_match_geometric_triangulation_oracle(index, p):
    f = small_instances()[index]
    assert len(f.domain.maximal_simplices) <= 6
    expected = fiber_power_triangulation_betti(f, p)
    assert betti(fiber_power_nerve(f, p)).as_list() == expected
    assert fiber_power_betti(f, p, engine="cells").as_list() == expected


def low_degree_instances():
    """Maps whose nerve stays enumerable: small maximal-simplex degrees."""
    double_cover = SimplicialMap(circle(6), circle(3), [0, 1, 2, 0, 1, 2])
    fold = SimplicialMap(path_complex(5), path_complex(3), [0, 1, 2, 1, 0])
    wrap = disk_collapse(1)
    ident4 = SimplicialMap(circle(4), circle(4), [0, 1, 2, 3])
    return [double_cover, fold, wrap, ident4]


@pytest.mark.parametrize("index", range(4))
def test_engines_agree_on_low_degree_maps(index):
    f = low_degree_instances()[index]
    for p in (0, 1):
        nerve = betti(fiber_power_nerve(f, p, 500_000))
        cells = fiber_power_betti(f, p, engine="cells", cell_cap=500_000)
        assert nerve == cells


def test_double_cover_fiber_square_is_two_circles():
    double_cover = SimplicialMap(circle(6), circle(3), [0, 1, 2, 0, 1, 2])
    assert fiber_power_betti(double_cover, 1, engine="cells") == (2, 2)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_cell_facets_match_componentwise_bruteforce(p):
    # The direct facet enumeration (drop a repeated-image vertex in one
    # component, or the unique vertex over a codomain vertex in every
    # component) must agree with the definition: faces are componentwise
    # subsets, facets those of dimension exactly one less.  Quadratic brute
    # force, so only small maps are fed in.  The reference enumerator's
    # cells carry no keys; the tuple enumerator decodes their ids.
    maps = [disk_collapse(1), constant_circle_map()]
    if p < 2:
        maps.append(SimplicialMap(full_simplex(2), path_complex(2), [0, 1, 1]))
    for f in maps:
        cells, _, _ = fiber_power_cells_tuples(f, p)
        dims, facets = _cell_poset(f, p)
        assert len(dims) == len(facets) == len(cells)
        by_dim = {}
        for j, d in enumerate(dims):
            by_dim.setdefault(d, []).append(j)
        for i, (tau, tup) in enumerate(cells):
            expected = {
                j
                for j in by_dim.get(dims[i] - 1, ())
                if all(set(a).issubset(b) for a, b in zip(cells[j][1], tup))
            }
            assert set(facets[i]) == expected, (i, cells[i])


@pytest.mark.parametrize(
    "build, powers",
    [
        *((lambda s=s: random_map(s), (0, 1, 2)) for s in range(50)),
        (lambda: reeb_space(disk_collapse(2)).quotient_map, (2,)),
    ],
    ids=[f"random{s}" for s in range(50)] + ["disk2_quotient"],
)
def test_mixed_radix_cells_match_tuple_enumerator(build, powers):
    # Same ids, dimensions and facet lists, facet order included, as the
    # tuple-keyed enumerator the mixed-radix numbering replaced.
    f = build()
    for p in powers:
        _, dims, facets = fiber_power_cells_tuples(f, p)
        assert _cell_poset(f, p) == (dims, facets), p


def unreduced_cells(f, p):
    return sum(len(g) ** (p + 1) for g in _exact_image_groups(f).values())


def morse_power(monkeypatch, f, p, label=None, model=None):
    """The Betti vector of the engine and the complex it ranked, which must
    equal, entry by entry, the complex of the unpruned flow over every
    facet conjugated by sigma: entry (c, r) times sigma(c) sigma(r).  The
    engine is ``model``, f's model over ``label``, else a fresh one."""
    seen = []
    ranked = fiberprod._betti_numbers

    def record(dims, boundaries):
        seen.append((dims, boundaries))
        return ranked(dims, boundaries)

    with monkeypatch.context() as patch:
        patch.setattr(fiberprod, "_betti_numbers", record)
        out = (model or _MorseModel(f, label)).betti(p)
    ((dims, boundaries),) = seen
    flow_dims, flow = morse_complex_unpruned(f, p, label)
    sigma = koszul_signs(f, _MorseModel(f, label), p)
    assert dims == flow_dims, p
    assert boundaries == [
        {r: sigma[c] * sigma[r] * e for r, e in bd.items()} for c, bd in enumerate(flow)
    ], p
    return out, dims, boundaries


def assert_boundary_squares_to_zero(dims, boundaries):
    # A 1-cell's boundary is a - b or 0, so its coefficients sum to 0; every
    # other boundary of a boundary cancels cell by cell.
    for c, bd in enumerate(boundaries):
        if dims[c] == 1:
            assert sum(bd.values()) == 0, c
        total = {}
        for g, e in bd.items():
            assert dims[g] == dims[c] - 1, (c, g)
            for h, v in boundaries[g].items():
                total[h] = total.get(h, 0) + e * v
        assert not any(total.values()), c


GROUP_MATCHING = fiberprod._group_matching


def imperfect_matching(facets):
    """The package's group matching with every third pair split into two
    critical simplices: still acyclic, but no longer perfect, so the groups'
    Morse differentials are not 0."""
    mate = list(GROUP_MATCHING(facets))
    pairs = [(i, m) for i, m in enumerate(mate) if m > i]
    for i, m in pairs[::3]:
        mate[i] = mate[m] = -1
    return mate


def small_sliced_maps():
    return [("torus", torus_height()[1])] + [
        (f"sliced{s}", pl_as_simplicial_map(random_function(s)).map) for s in range(10)
    ]


@pytest.mark.parametrize("seed", range(50))
def test_morse_powers_match_cell_poset_reference(monkeypatch, seed):
    # Both targets at p <= 2 against the regular cellular homology of every
    # cell of the power, the Morse complex against the unpruned flow's, and
    # d o d = 0 on each Morse complex.  The engine is called past the cap:
    # the Reeb target refuses 17 battery maps at p = 2 on the quotient map's
    # own count, while their stratum models are small.
    f = random_map(seed)
    label = reeb_space(f).exact_strata
    for lab in (None, label):
        for p in range(3):
            out, dims, boundaries = morse_power(monkeypatch, f, p, lab)
            assert out == cell_poset_betti(seed, p, lab is not None), (p, lab is None)
            assert_boundary_squares_to_zero(dims, boundaries)


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_transferred_complex_of_imperfect_matchings_matches_the_flow(monkeypatch, seed):
    # With a perfect matching every group's Morse differential is 0, and
    # terms built from it vanish; split pairs make it nonzero.  The complex
    # still equals the flow's, has d o d = 0 and the power's Betti numbers.
    monkeypatch.setattr(fiberprod, "_group_matching", imperfect_matching)
    f = random_map(seed)
    label = reeb_space(f).exact_strata
    for lab in (None, label):
        for p in range(3):
            out, dims, boundaries = morse_power(monkeypatch, f, p, lab)
            assert out == cell_poset_betti(seed, p, lab is not None), (p, lab is None)
            assert_boundary_squares_to_zero(dims, boundaries)


def test_cancelled_entries_of_imperfect_matchings_reach_no_rank_stage(monkeypatch):
    # Terms of split pairs cancel entry by entry on seed 10, at every p and
    # over both labels; the engine deletes such an entry, since the rank
    # stage takes no zero entry.
    monkeypatch.setattr(fiberprod, "_group_matching", imperfect_matching)
    seen = []
    ranked = fiberprod._betti_numbers

    def record(dims, boundaries):
        seen.append(boundaries)
        return ranked(dims, boundaries)

    monkeypatch.setattr(fiberprod, "_betti_numbers", record)
    f = random_map(10)
    for lab in (None, reeb_space(f).exact_strata):
        model = _MorseModel(f, lab)
        for p in range(3):
            model.betti(p)
    assert len(seen) == 6
    for boundaries in seen:
        assert all(all(bd.values()) for bd in boundaries)


def higher_dimensional_maps():
    """Maps from domains of dimension 3 to 6 onto a triangle or a
    tetrahedron: groups over a tetrahedron give terms with two h steps, at
    one place or at two, and a group holds simplices of both dimension
    parities."""
    s4 = full_simplex(4)
    sphere = SimplicialComplex(5, [s for s in s4.simplices if len(s) < 5])
    tet, tri = full_simplex(3), full_simplex(2)
    return [
        ("s4_tet", SimplicialMap(s4, tet, [0, 1, 2, 3, 3])),
        ("s4_tri", SimplicialMap(s4, tri, [0, 1, 2, 1, 2])),
        ("sphere_tet", SimplicialMap(sphere, tet, [0, 1, 2, 3, 3])),
        ("s5_tet", SimplicialMap(full_simplex(5), tet, [0, 1, 2, 3, 3, 2])),
        ("s6_tet", SimplicialMap(full_simplex(6), tet, [1, 3, 1, 0, 3, 1, 2])),
    ]


@pytest.mark.parametrize("matching", ["package", "imperfect"])
def test_transferred_complex_on_higher_dimensional_maps(monkeypatch, matching):
    if matching == "imperfect":
        monkeypatch.setattr(fiberprod, "_group_matching", imperfect_matching)
    checked = 0
    for name, f in higher_dimensional_maps():
        label = reeb_space(f).exact_strata
        for p in range(3):
            if unreduced_cells(f, p) > 20_000:
                break
            for lab in (None, label):
                out, dims, boundaries = morse_power(monkeypatch, f, p, lab)
                assert out == regular_cw_betti(*_cell_poset(f, p, lab)), (name, p)
                assert_boundary_squares_to_zero(dims, boundaries)
                checked += 1
    assert checked >= 20


def test_reduced_powers_match_unreduced_cell_posets(monkeypatch):
    # The Morse complex against the cell poset of the map itself, with no
    # reduction of any kind before the ranks, and against the unpruned
    # flow's complex, on both targets: the disks, the torus-height slice and
    # the sliced random functions, at each p whose unreduced power has at
    # most 20,000 cells.
    checked = 0
    cases = [("disk1", disk_collapse(1)), ("disk2", disk_collapse(2))] + small_sliced_maps()
    for name, f in cases:
        label = reeb_space(f).exact_strata
        for p in range(3):
            if unreduced_cells(f, p) > 20_000:
                break
            for lab in (None, label):
                out, dims, boundaries = morse_power(monkeypatch, f, p, lab)
                assert out == regular_cw_betti(*_cell_poset(f, p, lab)), (name, p)
                assert_boundary_squares_to_zero(dims, boundaries)
                checked += 1
    assert checked >= 36


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(1), lambda: disk_collapse(2)]
    + [lambda s=s: random_map(s) for s in (0, 1, 7, 23)]
    + [lambda: higher_dimensional_maps()[0][1]],
    ids=["disk1", "disk2", "random0", "random1", "random7", "random23", "s4_tet"],
)
def test_one_model_serves_every_power(monkeypatch, build):
    # The matrices a model keeps after one power serve the next: asked out
    # of order, a shared model ranks the complexes of a fresh model per p,
    # and morse_power checks both against the unpruned flow's.
    f = build()
    for lab in (None, reeb_space(f).exact_strata):
        shared = _MorseModel(f, lab)
        for p in (2, 0, 1):
            fresh = morse_power(monkeypatch, f, p, lab)
            assert morse_power(monkeypatch, f, p, lab, shared) == fresh, p


def power_cells(f, p, label=None):
    """Every cell of the power as a tuple of simplex ids, in the order of
    the reference poset's ids."""
    index = {s: i for i, s in enumerate(f.domain.simplices)}
    groups = _exact_image_groups(f, label)
    keys = sorted(groups, key=lambda g: (len(g[0]), g))
    return [
        tuple(index[s] for s in tup) for g in keys for tup in product(groups[g], repeat=p + 1)
    ]


@pytest.mark.parametrize("p", [0, 1, 2])
def test_closed_form_facets_and_signs_on_every_cell(p):
    # The facets generated from a tuple are the reference poset's, and the
    # closed-form signs make d o d = 0 on the whole power.
    disk = disk_collapse(2)
    cases = [(random_map(seed), None) for seed in range(0, 50, 5)]
    cases += [(random_map(seed), reeb_space(random_map(seed)).exact_strata)
              for seed in (12, 24)]
    cases += [(disk, None), (disk, reeb_space(disk).exact_strata)]
    checked = 0
    for f, label in cases:
        if unreduced_cells(f, p) > 20_000:
            continue
        tables = cayley_tables(f)
        cells = power_cells(f, p, label)
        cid = {cell: i for i, cell in enumerate(cells)}
        dims, facets = _cell_poset(f, p, label)
        boundaries = []
        for cell, expected in zip(cells, facets):
            found = {cid[x]: sign for x, sign in morse_facets_unpruned(tables, cell)}
            assert sorted(found) == sorted(expected), cell
            boundaries.append(found)
        assert_boundary_squares_to_zero(dims, boundaries)
        checked += 1
    assert checked >= 8


def lifted_matching(f, p, label=None):
    """The lift of the group matching to every cell of the power, in the
    ids of the reference poset: pair[i] is the cell paired with cell i, or
    None when cell i is critical."""
    mate = _MorseModel(f, label).mate
    cells = power_cells(f, p, label)
    cid = {cell: i for i, cell in enumerate(cells)}
    pair = [None] * len(cells)
    for i, cell in enumerate(cells):
        for k, s in enumerate(cell):
            if mate[s] >= 0:
                pair[i] = cid[cell[:k] + (mate[s],) + cell[k + 1 :]]
                break
    return pair


def lifted_matching_cases():
    disk = disk_collapse(2)
    return [
        (random_map(0), None),
        (random_map(12), None),
        (random_map(24), reeb_space(random_map(24)).exact_strata),
        (disk, None),
        (disk, reeb_space(disk).exact_strata),
        (constant_circle_map(), None),
    ]


def test_group_matching_is_perfect_on_the_battery():
    # Each group keeps as many critical simplices as the rational Betti sum
    # of its relative complex (its image-keeping facets, simplicial signs),
    # the fewest any acyclic matching inside the group can keep.
    for seed in range(50):
        f = random_map(seed)
        model = _MorseModel(f)
        simplices = f.domain.simplices
        index = {s: i for i, s in enumerate(simplices)}
        members = {}
        for i, g in enumerate(model.group):
            members.setdefault(g, []).append(i)
        for g, ids in members.items():
            row = {i: r for r, i in enumerate(ids)}
            boundaries = []
            for i in ids:
                s = simplices[i]
                faces = (index.get(s[:j] + s[j + 1 :]) for j in range(len(s)))
                boundaries.append(
                    {row[x]: (-1) ** j for j, x in enumerate(faces) if x in row}
                )
            dims = [len(simplices[i]) - 1 for i in ids]
            assert len(model.critical[g]) == sum(betti_numbers_uncleared(dims, boundaries))


def group_boundaries(f):
    """The image-keeping part of each simplex's boundary, {facet id:
    sign}, ids in canonical order, every simplex oriented by its vertices
    sorted by image, then by id."""
    images = f.vertex_images
    index = {s: i for i, s in enumerate(f.domain.simplices)}
    out = []
    for s in f.domain.simplices:
        ordered = sorted(s, key=lambda v: (images[v], v))
        out.append({
            index[tuple(x for x in s if x != v)]: (-1) ** r
            for r, v in enumerate(ordered)
            if sum(images[x] == images[v] for x in s) > 1
        })
    return out


def chain_sum(terms):
    out = {}
    for chain, e in terms:
        for s, v in chain.items():
            out[s] = out.get(s, 0) + e * v
    return {s: v for s, v in out.items() if v}


def sdr_cases():
    disk1, disk2 = disk_collapse(1), disk_collapse(2)
    cases = [(f"random{s}", random_map(s)) for s in range(50)]
    cases += [("disk1", disk1), ("disk2", disk2)]
    return [
        (name, f, label)
        for name, f in cases
        for label in (None, reeb_space(f).exact_strata)
    ]


def test_group_sdr_is_a_strong_deformation_retract():
    # For every group of the battery and both disks, on both targets: pi
    # iota = 1 on the critical simplices, and iota pi - 1 = dh + hd on every
    # simplex, d the image-keeping boundary inside the groups.
    for name, f, label in sdr_cases():
        model = _MorseModel(f, label)
        bd = group_boundaries(f)
        for c in model.incl:
            assert chain_sum((model.proj[s], v) for s, v in model.incl[c].items()) == {c: 1}
        for s in range(len(bd)):
            iota_pi = chain_sum((model.incl[c], v) for c, v in model.proj[s].items())
            lhs = chain_sum([(iota_pi, 1), ({s: 1}, -1)])
            rhs = chain_sum(
                [(bd[x], v) for x, v in model.homot[s].items()]
                + [(model.homot[x], v) for x, v in bd[s].items()]
            )
            assert lhs == rhs, (name, label is None, s)


# (0,) -> (0, 1) -> (1,) -> (1, 2) -> (2,) -> (0, 2) -> (0,)
CYCLIC_MATE = [4, 7, 5, -1, 0, 2, -1, 1]
# (3,) paired with (1, 2), which it is not a facet of.
NON_FACET_MATE = [-1, 4, 5, 7, 1, 2, -1, 3]


@pytest.mark.parametrize(
    "mate, p, message",
    [
        (CYCLIC_MATE, 0, "group flow from simplex 0 returns to it"),
        (NON_FACET_MATE, 0, "not a facet of its partner"),
        (CYCLIC_MATE, 1, "group flow from simplex 0 returns to it"),
        (NON_FACET_MATE, 1, "not a facet of its partner"),
    ],
    ids=["cycle", "non_facet_pair", "cycle_p1", "non_facet_pair_p1"],
)
def test_broken_matchings_raise_invariant_error(monkeypatch, mate, p, message):
    # A triangle with a pendant edge, mapped to a point: one group, ids
    # (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2).  Both are
    # caught while the group's deformation retract is built, before any
    # power: the walk from (0,) closes the cycle, and (3,) is no facet of
    # its partner (1, 2).
    domain = SimplicialComplex(4, [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 3)])
    f = SimplicialMap(domain, point(), [0, 0, 0, 0])
    monkeypatch.setattr(fiberprod, "_group_matching", lambda facets: list(mate))
    with pytest.raises(InvariantError, match=message):
        _MorseModel(f).betti(p)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_lifted_matching_is_acyclic_on_explicit_posets(p):
    # On the reference poset: the lift is an involution on facet pairs, the
    # Hasse diagram with matched edges turned upward has no directed cycle
    # (Kahn's algorithm removes every cell), and the critical cells are the
    # tuples of critical simplices of one group.
    for f, label in lifted_matching_cases():
        dims, facets = _cell_poset(f, p, label)
        pair = lifted_matching(f, p, label)
        for i, j in enumerate(pair):
            if j is not None:
                assert pair[j] == i
                assert j in facets[i] or i in facets[j]
                assert abs(dims[i] - dims[j]) == 1
        out = [[] for _ in dims]
        indegree = [0] * len(dims)
        for c, fs in enumerate(facets):
            for x in fs:
                tail, head = (x, c) if pair[c] == x else (c, x)
                out[tail].append(head)
                indegree[head] += 1
        ready = [c for c, d in enumerate(indegree) if not d]
        removed = 0
        while ready:
            c = ready.pop()
            removed += 1
            for h in out[c]:
                indegree[h] -= 1
                if not indegree[h]:
                    ready.append(h)
        assert removed == len(dims)
        critical = _MorseModel(f, label).critical
        assert pair.count(None) == sum(len(c) ** (p + 1) for c in critical)


def test_cap_counts_the_unreduced_power():
    # random_map(1) at p = 2: 50,653 cells unreduced, 2,197 critical.  A cap
    # between the two still refuses it.
    f = random_map(1)
    assert sum(len(c) ** 3 for c in _MorseModel(f).critical) == 2_197
    with pytest.raises(BudgetExceededError) as info:
        fiber_power_betti(f, 2, cell_cap=30_000)
    exc = info.value
    assert (exc.stage, exc.count, exc.cap) == ("fiber-power cells", 50_653, 30_000)
    assert str(exc) == "50653 fiber-power cells exceed the cap of 30000"
    with pytest.raises(BudgetExceededError) as info:
        descent_check(f, p_max=2, cell_cap=30_000)
    assert (info.value.count, info.value.cap) == (50_653, 30_000)


@pytest.mark.parametrize("p", [5000, 10_000_000])
def test_huge_powers_are_refused_without_counting_them(p):
    # Both engines decide from the group sizes' bit lengths: no count with
    # thousands of digits is built or written, and the error names the
    # stage and the cap.
    f = disk_collapse(2)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as cells:
        fiber_power_betti(f, p)
    with pytest.raises(BudgetExceededError) as nerve:
        betti(fiber_power_nerve(f, p))
    assert time.perf_counter() - start < 0.5
    assert (cells.value.stage, cells.value.count, cells.value.cap) == (
        "fiber-power cells", None, 200_000)
    assert str(cells.value) == "fiber-power cells exceed the cap of 200000"
    assert (nerve.value.stage, nerve.value.count, nerve.value.cap) == ("nerve cover", None, 200_000)


def test_power_count_is_exact_until_far_past_the_cap():
    # Exact while no term can pass the cap by 2**64, so every count that a
    # message has reported stays; None beyond.
    assert fiberprod._power_count([37, 2], 2, 30_000) == 50_661
    assert fiberprod._power_count([2], 78, 30_000) == 2 ** 79
    assert fiberprod._power_count([2], 79, 30_000) is None
    assert fiberprod._power_count([1], 10 ** 9, 30_000) == 1


def random_sub_map(seed, size, picks):
    """random_map(seed, size) restricted to the closure of a few of its
    maximal simplices, small enough for the triangulation oracle."""
    f = random_map(seed, size)
    tops = f.domain.maximal_simplices
    closed = {
        face
        for i in picks
        for k in range(1, len(tops[i % len(tops)]) + 1)
        for face in combinations(tops[i % len(tops)], k)
    }
    domain = SimplicialComplex(f.domain.num_vertices, closed)
    return SimplicialMap(domain, f.codomain, f.vertex_images)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.builds(
        random_sub_map,
        st.integers(0, 49),
        st.integers(6, 12),
        st.lists(st.integers(0, 40), min_size=2, max_size=3),
    ),
    st.integers(0, 1),
)
def test_reduced_powers_match_triangulation_oracle(f, p):
    # The oracle triangulates every chain of the cell order with dense
    # rational ranks; about 40 cells keep an example under a second.
    assume(unreduced_cells(f, p) <= 40)
    expected = fiber_power_triangulation_betti(f, p)
    assert _MorseModel(f).betti(p).as_list() == expected


def test_nerve_symmetric_under_permuted_maximal_order():
    f = disk_collapse(1)
    base = fiber_power_nerve(f, 1)
    # Relabel domain vertices to reshuffle the canonical maximal order.
    perm = [3, 0, 2, 1]
    relabeled = SimplicialComplex(
        4, [tuple(sorted(perm[v] for v in s)) for s in f.domain.simplex_set]
    )
    images = [0] * 4
    for v in range(4):
        images[perm[v]] = f.vertex_images[v]
    g = SimplicialMap(relabeled, f.codomain, images)
    assert betti(fiber_power_nerve(g, 1)) == betti(base)


def test_image_subcomplex():
    f = disk_collapse(1)
    img = image_subcomplex(f)
    assert img.simplex_set == f.codomain.simplex_set  # surjective wrap
    squash = SimplicialMap(path_complex(2), full_simplex(2), [0, 0])
    assert image_subcomplex(squash).simplex_set == {(0,)}


def test_descent_identity():
    sphere = boundary_delta3()
    ident = SimplicialMap(sphere, sphere, list(range(4)))
    report = descent_check(ident, target="image", p_max=2)
    assert report["ok"]
    # b_p <= sum_{i+j=p} b_i trivially.
    assert [row["inequality_holds"] for row in report["rows"]] == [True, True, True]


def test_descent_constant_circle_matches_torus_oracle():
    report = descent_check(constant_circle_map(), target="image", p_max=1)
    assert report["ok"]
    assert report["betti_target"] == [1]
    assert report["power_betti"] == [[1, 1], [1, 2, 1]]  # S^1 and S^1 x S^1
    assert report["rows"][1]["bound"] == 2  # b_0(torus) + b_1(circle)


def test_descent_disk_reeb_target():
    report = descent_check(disk_collapse(2), target="reeb", p_max=2)
    assert report["ok"]
    assert report["betti_target"] == [1, 0, 1]


# Battery seeds whose Reeb quotient map has at most DEFAULT_CELL_CAP cells
# in its p = 2 power: 33 of the 50.  Seeds 5, 10, 27, 31, 33, 46 and 49 are
# left out only for time, since each of their reference powers over sd(X)
# takes 0.4-1.1 s; the 26 kept take about 2 s together.
REEB_REFERENCE_SEEDS = [
    0, 2, 6, 9, 11, 12, 14, 17, 19, 23, 24, 25, 28,
    29, 30, 32, 34, 35, 38, 40, 41, 42, 43, 44, 45, 48,
]


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(1), lambda: disk_collapse(2)]
    + [lambda s=s: random_map(s) for s in REEB_REFERENCE_SEEDS],
    ids=["disk1", "disk2"] + [f"random{s}" for s in REEB_REFERENCE_SEEDS],
)
def test_reeb_strata_powers_match_quotient_map_powers(build):
    # The powers cut out of f's cell model by the Reeb strata against the
    # cell model of the quotient map sd(X) -> realization itself.
    f = build()
    quotient = reeb_space(f).quotient_map
    expected = [fiber_power_betti(quotient, p).as_list() for p in range(3)]
    assert descent_check(f, target="reeb", p_max=2)["power_betti"] == expected


def test_reeb_strata_cells_are_a_subcomplex_of_the_image_cells():
    # Decode the stratum model's ids to tuples: the stratum cells are
    # exactly the image-model cells whose components share one stratum, with
    # the same dimensions and the image-model facets among them.
    for seed in (0, 12, 24):
        f = random_map(seed)
        label = reeb_space(f).exact_strata
        sid = {s: i for i, s in enumerate(f.domain.simplices)}
        groups = _exact_image_groups(f, label)
        keys = sorted(groups, key=lambda g: (len(g[0]), g))
        for p in (1, 2):
            tuples, image_dims, image_facets = fiber_power_cells_tuples(f, p)
            index = {cell: i for i, cell in enumerate(tuples)}
            decoded = [
                (g[0], tup) for g in keys for tup in product(groups[g], repeat=p + 1)
            ]
            assert all(len({label[sid[s]] for s in tup}) == 1 for _, tup in decoded)
            inside = {index[cell] for cell in decoded}
            assert len(inside) == len(decoded)
            assert inside == {
                i for i, (_, tup) in enumerate(tuples) if len({label[sid[s]] for s in tup}) == 1
            }
            dims, facets = _cell_poset(f, p, label)
            assert dims == [image_dims[index[cell]] for cell in decoded]
            for cell, found in zip(decoded, facets):
                assert sorted(index[decoded[j]] for j in found) == sorted(
                    image_facets[index[cell]]
                ), (seed, p, cell)


def test_reeb_strata_shrink_the_disk_powers():
    f = disk_collapse(2)
    space = reeb_space(f)
    label = space.exact_strata
    assert [unreduced_cells(space.quotient_map, p) for p in range(3)] == [337, 6121, 170_137]
    assert [len(_cell_poset(f, p, label)[0]) for p in range(3)] == [61, 469, 4441]


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(1), lambda: disk_collapse(2)]
    + [lambda s=s: random_map(s) for s in range(50)],
    ids=["disk1", "disk2"] + [f"random{s}" for s in range(50)],
)
def test_stratum_labels_match_fiber_components(build):
    # Each simplex's label, its stratum over its exact image, is the stratum
    # of its class among the components over that image, as the independent
    # coface walk finds them.
    f = build()
    space = reeb_space(f)
    label = space.exact_strata
    assert len(label) == len(f.domain.simplices)
    sid = {s: i for i, s in enumerate(f.domain.simplices)}
    for tau in {f.image_simplex(s) for s in f.domain.simplices}:
        for ci, cls in enumerate(fiber_components_at(f, tau)):
            for s in cls:
                if f.image_simplex(s) == tau:
                    assert space.strata[label[sid[s]]] == Stratum(tau, ci), (tau, s)


def recording_models(monkeypatch):
    """Patch ``_MorseModel`` to list the domain of every model built."""
    built, model = [], fiberprod._MorseModel

    def record(g, label=None):
        built.append(g.domain)
        return model(g, label)

    monkeypatch.setattr(fiberprod, "_MorseModel", record)
    return built


def test_reeb_target_never_enumerates_the_quotient_map(monkeypatch):
    f = disk_collapse(2)
    built = recording_models(monkeypatch)
    assert descent_check(f, target="reeb", p_max=2)["ok"]
    assert built == [f.domain]


@pytest.mark.parametrize("target", ["image", "reeb"])
@pytest.mark.parametrize(
    "build, p_max",
    [(lambda: random_map(1), 2), (lambda: random_map(4), 1), (identity_map, 40)],
    ids=["random1", "random4", "identity"],
)
def test_descent_check_builds_one_model(monkeypatch, target, build, p_max):
    # One model serves every p, also when the Reeb target refuses
    # random_map(1) at p = 2.
    f = build()
    built = recording_models(monkeypatch)
    try:
        descent_check(f, target=target, p_max=p_max)
    except BudgetExceededError:
        assert (target, p_max) == ("reeb", 2)
    assert built == [f.domain]


def test_reeb_target_cap_counts_the_quotient_map_powers():
    # Refused on the quotient map's own power, with the message, stage,
    # count and cap of the enumeration over sd(X); the stratum model of
    # random_map(1) would have far fewer cells.
    with pytest.raises(BudgetExceededError) as info:
        descent_check(random_map(1), target="reeb", p_max=2)
    exc = info.value
    assert (exc.stage, exc.count, exc.cap) == ("fiber-power cells", 1_771_561, 200_000)
    assert str(exc) == "1771561 fiber-power cells exceed the cap of 200000"
    # The 2-disk's stratum model has 4,441 cells at p = 2, its quotient
    # power 170,137: a cap between the two still refuses.
    with pytest.raises(BudgetExceededError) as info:
        descent_check(disk_collapse(2), target="reeb", p_max=2, cell_cap=10_000)
    assert (info.value.count, info.value.cap) == (170_137, 10_000)


@pytest.mark.parametrize(
    "build",
    [
        lambda: disk_collapse(2).domain,
        lambda: torus_height()[1].domain,
        *(lambda s=s: random_map(s).domain for s in range(10)),
        lambda: product_power(disk_collapse(2), 2).domain,
    ],
    ids=["disk2", "torus_slice"] + [f"random{s}" for s in range(10)] + ["product"],
)
def test_subdivision_size_counts_the_subdivision(build):
    k = build()
    assert _chain_count(k.facets) == len(barycentric_subdivision(k)[0].simplex_set)


@pytest.mark.parametrize(
    "build",
    [lambda: disk_collapse(1), lambda: disk_collapse(2), lambda: torus_height()[1]]
    + [lambda s=s: random_map(s) for s in range(50)],
    ids=["disk1", "disk2", "torus_slice"] + [f"random{s}" for s in range(50)],
)
def test_quotient_group_sizes_count_the_quotient_map(build):
    # Counted over X's face pairs, keyed by the strata on each chain, equal
    # to the exact-image group sizes of the quotient map over sd(X).
    f = build()
    space = reeb_space(f)
    sizes = _quotient_group_sizes(f.domain, space.exact_strata)
    assert sorted(sizes) == sorted(_group_sizes(space.quotient_map))


# The 50 battery maps, both disks and the product: where the quotient's
# group keys and the image subcomplex lean on orders the package builds.
ORDER_CASES = [
    *(pytest.param(lambda s=s: random_map(s), id=f"random{s}") for s in range(50)),
    pytest.param(lambda: disk_collapse(1), id="disk1"),
    pytest.param(lambda: disk_collapse(2), id="disk2"),
    pytest.param(lambda: product_power(disk_collapse(2), 2), id="product"),
]


@pytest.mark.parametrize("build", ORDER_CASES)
def test_strata_never_decrease_along_a_face_pair(build):
    # _quotient_group_sizes appends a chain's top stratum to its key unsorted.
    f = build()
    strata = reeb_space(f).exact_strata
    assert all(strata[i] <= strata[j] for i, j in _face_pairs(f.domain.facets))


@pytest.mark.parametrize("build", ORDER_CASES)
def test_quotient_group_sizes_equal_the_sorted_key_reference(build):
    f = build()
    strata = reeb_space(f).exact_strata
    assert _quotient_group_sizes(f.domain, strata) == quotient_group_sizes_sorted(
        f.domain.simplices, strata
    )


@pytest.mark.parametrize("build", ORDER_CASES[:50])
def test_image_subcomplex_equals_its_checked_build(build):
    # Built unchecked, it must equal the constructor's canonicalised,
    # range- and face-checked build of the same image set.
    f = build()
    checked = SimplicialComplex(f.codomain.num_vertices, set(f.simplex_images))
    assert image_subcomplex(f) == checked


def test_reeb_target_never_builds_the_subdivision(monkeypatch):
    def refuse(k):
        raise AssertionError("barycentric_subdivision was called")

    # The quotient map's own powers, over sd(X), built before the patch.
    f = disk_collapse(2)
    quotient = reeb_space(f).quotient_map
    expected = [fiber_power_betti(quotient, p).as_list() for p in range(3)]
    monkeypatch.setattr("reebforge.reeb.barycentric_subdivision", refuse)
    report = descent_check(f, target="reeb", p_max=2)
    assert report["ok"]
    assert report["power_betti"] == expected


@pytest.mark.parametrize("p_max", [0, 2])
def test_reeb_target_refuses_the_product_before_building_its_subdivision(monkeypatch, p_max):
    # The p = 0 power of the quotient map has |sd(X)| cells, so the product
    # is refused with the message, stage, count and cap of that check, and
    # sd(X), 1,507,489 simplices, is never built.
    def refuse(k):
        raise AssertionError("barycentric_subdivision was called")

    monkeypatch.setattr("reebforge.reeb.barycentric_subdivision", refuse)
    f = product_power(disk_collapse(2), 2)
    with pytest.raises(BudgetExceededError) as info:
        descent_check(f, target="reeb", p_max=p_max)
    exc = info.value
    assert (str(exc), exc.stage, exc.count, exc.cap) == (
        "1507489 fiber-power cells exceed the cap of 200000",
        "fiber-power cells",
        1_507_489,
        200_000,
    )


def test_trims_split_across_strata_raise_invariant_error(monkeypatch):
    # Give one vertex its own stratum while an edge group over the same
    # codomain edge trims to it and to another vertex over the same point.
    f = disk_collapse(2)
    simplices = f.domain.simplices
    trims = {}
    for e in simplices:
        if len(e) == 2 and len(f.image_simplex(e)) == 2:
            for v in e:
                trims.setdefault((f.image_simplex(e), f.vertex_images[v]), set()).add((v,))
    vertices = next(vs for _, vs in sorted(trims.items()) if len(vs) > 1)
    moved = simplices.index(min(vertices))
    model = fiberprod._MorseModel

    def split(g, label):
        label = list(label)
        label[moved] = 99
        return model(g, label)

    monkeypatch.setattr(fiberprod, "_MorseModel", split)
    with pytest.raises(InvariantError, match="trims of group"):
        descent_check(f, target="reeb", p_max=1)


@pytest.mark.parametrize(
    "build, p_max",
    [*((lambda i=i: low_degree_instances()[i], 1) for i in range(4)), (lambda: disk_collapse(2), 0)],
    ids=[f"low_degree{i}" for i in range(4)] + ["disk2"],
)
def test_reeb_strata_powers_match_nerve_of_quotient_map(build, p_max):
    # The nerve of the quotient map's own power, an independent reference.
    # The 2-disk's sd(X) has maximal-simplex degree 12, so at p = 1 its
    # nerve would hold a simplex on 144 vertices: it runs at p = 0 only.
    f = build()
    quotient = reeb_space(f).quotient_map
    expected = [
        betti(fiber_power_nerve(quotient, p)).as_list() for p in range(p_max + 1)
    ]
    assert descent_check(f, target="reeb", p_max=p_max)["power_betti"] == expected


def test_descent_report_shape():
    report = descent_check(disk_collapse(1), target="image", p_max=1)
    for row in report["rows"]:
        assert set(row) == {"p", "betti_target", "betti_powers", "bound", "inequality_holds"}
    assert report["target"] == "image"
    assert report["p_max"] == 1


def test_budget_exceeded_on_tiny_cap():
    with pytest.raises(BudgetExceededError):
        fiber_power_nerve(disk_collapse(2), 1, cell_cap=50)
    with pytest.raises(BudgetExceededError):
        fiber_power_betti(disk_collapse(2), 2, cell_cap=50)


def test_budget_error_names_stage_count_and_cap():
    with pytest.raises(BudgetExceededError) as info:
        fiber_power_betti(disk_collapse(2), 2, cell_cap=50)
    exc = info.value
    assert exc.stage == "fiber-power cells"
    assert exc.cap == 50
    assert exc.count == 4441
    assert str(exc) == "4441 fiber-power cells exceed the cap of 50"


@pytest.mark.parametrize(
    "cap, stage, count",
    [
        # The constant circle map has 3 maximal edges over one codomain
        # vertex, so 9 cover cells at p = 1, all in one group.
        (2, "nerve cover", 9),  # the cover with the group's tuples passes 4 * cap
        (3, "nerve cover", 9),  # the deduplicated cover passes cap
        (9, "nerve simplices", 10),  # the nerve's tenth simplex passes cap
    ],
    ids=["cover_group", "cover_total", "simplices"],
)
def test_nerve_budget_errors_name_stage_count_and_cap(cap, stage, count):
    with pytest.raises(BudgetExceededError) as info:
        fiber_power_nerve(constant_circle_map(), 1, cell_cap=cap)
    exc = info.value
    assert (exc.stage, exc.count, exc.cap) == (stage, count, cap)


def test_nerve_refusal_before_a_vertex_says_what_it_counts():
    # disk_collapse(1) at p = 2: the cover gathered through codomain vertex 1
    # plus all of vertex 2's tuples is 23 cells, tested against 4 * cap.
    with pytest.raises(BudgetExceededError) as info:
        fiber_power_nerve(disk_collapse(1), 2, cell_cap=5)
    exc = info.value
    assert (exc.stage, exc.count, exc.cap) == ("nerve cover", 23, 5)
    assert str(exc) == "23 cover cells with codomain vertex 2's tuples exceed 4 times the cap of 5"


def test_default_engine_never_enumerates_the_nerve(monkeypatch, tmp_path, capsys):
    # Maximal-simplex degree 2: small enough for the nerve at p <= 2, so the
    # nerve's values are the reference the default engine and the CLI must
    # reproduce without ever enumerating a nerve.
    f = low_degree_instances()[0]
    expected = [betti(fiber_power_nerve(f, p)) for p in range(3)]
    path = tmp_path / "double_cover.map.json"
    path.write_text(dumps_report(map_to_doc(f)), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise RuntimeError("the production path enumerated a nerve")

    monkeypatch.setattr("reebforge.fiberprod.fiber_power_nerve", refuse)
    assert [fiber_power_betti(f, p) for p in range(3)] == expected
    report = descent_check(f, p_max=2)
    assert report["power_betti"] == [bv.as_list() for bv in expected]
    assert report["ok"]
    assert cli.main(["fiber-power", str(path), "-p", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == expected[1].as_list()


def test_cell_cap_env_override(monkeypatch):
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "123")
    assert resolve_cell_cap() == 123
    monkeypatch.delenv("REEBFORGE_CELL_CAP")
    assert resolve_cell_cap() == 200_000
    assert resolve_cell_cap(77) == 77


@pytest.mark.parametrize(
    "call",
    [
        lambda f: fiber_power_betti(f, -1),
        lambda f: fiber_power_nerve(f, -1),
        lambda f: fiber_power_betti(f, 0, cell_cap=0),
        lambda f: descent_check(f, p_max=-1),
        lambda f: descent_check(f, p_max=1, threads=0),
        lambda f: resolve_cell_cap(-5),
    ],
    ids=["p", "nerve_p", "cap", "p_max", "threads", "resolve_cap"],
)
def test_bad_numbers_raise_invalid_params(call):
    with pytest.raises(InvalidParamsError):
        call(disk_collapse(1))


@pytest.mark.parametrize(
    "call",
    [
        lambda f: fiber_power_betti(f, 1.5),
        lambda f: fiber_power_betti(f, True),
        lambda f: fiber_power_nerve(f, 1.5),
        lambda f: fiber_power_betti(f, 1, cell_cap=2.5),
        lambda f: fiber_power_betti(f, 1, cell_cap="12"),
        lambda f: descent_check(f, p_max=1.5),
        lambda f: descent_check(f, p_max=True),
        lambda f: descent_check(f, threads=1.5),
        lambda f: resolve_cell_cap(True),
    ],
    ids=[
        "p_float", "p_bool", "nerve_p_float", "cap_float", "cap_str",
        "p_max_float", "p_max_bool", "threads_float", "resolve_cap_bool",
    ],
)
def test_non_integer_numbers_raise_invalid_params(call):
    # Only an int that is not a bool is a count: no TypeError escapes, and
    # nothing is truncated or read as 0 or 1.
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        call(disk_collapse(1))


@pytest.mark.parametrize(
    "call",
    [
        lambda f: fiber_power_betti(f, 1, engine="simplicial"),
        lambda f: fiber_power_betti(f, 1, engine="nerve"),
        lambda f: descent_check(f, target="domain"),
    ],
    ids=["engine", "nerve", "target"],
)
def test_unknown_names_raise_invalid_params(call):
    with pytest.raises(InvalidParamsError):
        call(disk_collapse(1))
