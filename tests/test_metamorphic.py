"""Metamorphic tests: relabelling vertex ids leaves every invariant alone.

Every fast path leans on canonical order and on ids ascending along the face
order.  Permuting the vertex ids of a map's domain and codomain moves every
id and every simplex's place in that order, but it changes no invariant.  So
each relabelled map, rebuilt through the checked constructors, must report
what the map itself reports.  The same holds for a PL function whose vertex
ids are permuted and whose values go through an increasing affine map
a v + b: the level sets are the same, only their values move.
"""

import contextlib
import functools
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from reebforge import cli
from reebforge.fixtures import disk_collapse, grid_torus, random_function, random_map
from reebforge.io import parse_rational, rational_str

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


def slice_invariants(g):
    space = reeb_space(pl_as_simplicial_map(g).map)
    return space.betti(), len(space.strata)


@functools.cache
def random_slice_invariants(seed):
    return slice_invariants(random_function(seed))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 49), st.data())
def test_relabelling_a_sliced_function_keeps_its_reeb_space(seed, data):
    # Any permutation, drawn: the slice's closed-form up-sets and images
    # lean on ids ascending along the face order, which relabelling moves.
    g = random_function(seed)
    n = g.complex.num_vertices
    perm = data.draw(st.permutations(range(n)))
    values = [None] * n
    for v, x in enumerate(g.values):
        values[perm[v]] = x
    relabelled_g = PLFunction(relabelled(g.complex, perm), values)
    assert slice_invariants(relabelled_g) == random_slice_invariants(seed)


def reeb_and_powers(f):
    return reeb_space(f).betti(), descent_check(f, p_max=1)["power_betti"]


@functools.cache
def battery_reeb_and_powers(seed):
    return reeb_and_powers(random_map(seed))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 49), st.data())
def test_relabelling_a_map_domain_keeps_its_reeb_space_and_powers(seed, data):
    # Any permutation of a battery map's domain, drawn: the strata and the
    # cell model lean on ids ascending along the face order.
    f = random_map(seed)
    n = f.domain.num_vertices
    perm = data.draw(st.permutations(range(n)))
    images = [None] * n
    for v, w in enumerate(f.vertex_images):
        images[perm[v]] = w
    g = SimplicialMap(relabelled(f.domain, perm), f.codomain, images)
    assert reeb_and_powers(g) == battery_reeb_and_powers(seed)


# The CLI on the files of the benchmark's CLI session, relabelled in the
# documents themselves: the relabelled files list simplices in no canonical
# order, so the CLI's checked ingest puts them back in order before any fast
# path runs.  These report fields must not change.

REPORT_FIELDS = ("betti", "total", "euler", "num_strata")

SESSION_FILES = [
    pytest.param("disk_collapse.map.json", [["reeb", "--space"], ["fiber-power", "-p", "2"]],
                 id="disk"),
    pytest.param("torus_height.function.json", [["reeb", "--space"], ["reeb", "--graph"]],
                 id="torus"),
    pytest.param("product_power.map.json", [["reeb", "--space"]], id="product"),
    pytest.param("product_domain.json", [["betti"]], id="product_domain"),
]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("session")
    for argv in (
        ["fixtures", "emit", "disk_collapse", "--param", "n=2"],
        ["fixtures", "emit", "torus_height"],
        ["fixtures", "emit", "product_power", "--param", "n=2", "--param", "k=2"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["-o", str(out)]) == 0
    product = json.loads((out / "product_power.map.json").read_text(encoding="utf-8"))
    (out / "product_domain.json").write_text(json.dumps(product["domain"]), encoding="utf-8")
    return out


def relabel_complex_doc(doc, perm):
    """A complex document with vertex v renamed perm[v] (the session's files
    carry no coordinates)."""
    return {"num_vertices": doc["num_vertices"],
            "simplices": [[perm[v] for v in s] for s in doc["simplices"]]}


def relabel_doc(doc, rng):
    """A map, function or complex document with its vertex ids permuted, and
    a function's values sent to a v + b, a > 0."""
    def perm(c):
        return rng.sample(range(c["num_vertices"]), c["num_vertices"])

    if "vertex_images" in doc:
        dom, cod = perm(doc["domain"]), perm(doc["codomain"])
        images = [None] * len(dom)
        for v, w in enumerate(doc["vertex_images"]):
            images[dom[v]] = cod[w]
        return {"domain": relabel_complex_doc(doc["domain"], dom),
                "codomain": relabel_complex_doc(doc["codomain"], cod), "vertex_images": images}
    if "values" in doc:
        p = perm(doc["complex"])
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        values = [None] * len(p)
        for v, x in enumerate(doc["values"]):
            values[p[v]] = rational_str(a * parse_rational(x) + b)
        return {"complex": relabel_complex_doc(doc["complex"], p), "values": values}
    return relabel_complex_doc(doc, perm(doc))


def report_fields(argv, capsys):
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    fields = {k: report[k] for k in REPORT_FIELDS if k in report}
    assert fields
    return fields


@pytest.mark.parametrize("name, commands", SESSION_FILES)
def test_relabelling_a_session_file_keeps_the_cli_reports(session_dir, tmp_path, capsys, name, commands):
    path = session_dir / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    want = [report_fields([command, str(path), *options], capsys) for command, *options in commands]
    rng = random.Random(name)
    relabelled = tmp_path / name
    for _ in range(3):
        relabelled.write_text(json.dumps(relabel_doc(doc, rng)), encoding="utf-8")
        got = [report_fields([command, str(relabelled), *options], capsys)
               for command, *options in commands]
        assert got == want
