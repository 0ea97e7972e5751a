import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reebforge
from reebforge import (
    DuplicateSimplexError,
    FormatError,
    InvalidSimplexError,
    InvariantError,
    MissingFaceError,
    SimplicialComplex,
    ValueCountMismatchError,
    VertexOutOfRangeError,
    cli,
    complexes,
    fiberprod,
    homology,
    reeb,
)
from reebforge.cli import build_parser, main
from reebforge.fixtures import (
    FixtureSpec,
    boundary_delta3,
    build_fixture,
    disk_collapse,
    grid_torus,
    product_power,
    torus_height,
)
from reebforge.io import (
    complex_from_doc,
    complex_to_doc,
    dump_report,
    dumps_report,
    function_from_doc,
    function_to_doc,
    map_from_doc,
    map_to_doc,
    parse_document,
    parse_rational,
    reeb_graph_to_doc,
    reeb_graph_to_dot,
)
from reebforge.reeb import ReebGraph, ReebNode, reeb_graph
from reebforge import PLFunction
from reebforge.fixtures import circle

from .oracles import dot_by_fstrings


def test_parse_rational():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(FormatError):
        parse_rational("abc")
    with pytest.raises(FormatError):
        parse_rational(True)
    with pytest.raises(FormatError):
        parse_rational("1/0")


def test_parse_document_rejects_trailing_garbage():
    with pytest.raises(FormatError) as err:
        parse_document('{"simplices": []} extra')
    assert "line" in str(err.value)


def test_parse_document_rejects_floats():
    with pytest.raises(FormatError):
        parse_document('{"values": [1.5]}')


def test_complex_roundtrip():
    k = boundary_delta3()
    doc = complex_to_doc(k)
    assert complex_from_doc(json.loads(json.dumps(doc))) == k


def test_complex_with_coordinates_roundtrip():
    from reebforge import validate_complex

    k = validate_complex(
        2,
        [[0], [1], [0, 1]],
        coordinates=[[Fraction(1, 2), Fraction(0)], [Fraction(3), Fraction(-1, 3)]],
    )
    doc = complex_to_doc(k)
    assert doc["ambient_dim"] == 2
    assert complex_from_doc(doc) == k


def test_complex_doc_unknown_field():
    with pytest.raises(FormatError):
        complex_from_doc({"simplices": [[0]], "wat": 1})


def test_complex_doc_close_faces():
    doc = {"num_vertices": 3, "simplices": [[0, 1, 2]]}
    k = complex_from_doc(doc, close_faces=True)
    assert k.simplex_counts() == (3, 3, 1)


def test_map_roundtrip():
    f = disk_collapse(1)
    doc = map_to_doc(f)
    assert map_from_doc(doc) == f


def test_map_doc_with_paths(tmp_path):
    f = disk_collapse(1)
    dom = tmp_path / "dom.json"
    cod = tmp_path / "cod.json"
    dom.write_text(dumps_report(complex_to_doc(f.domain)), encoding="utf-8")
    cod.write_text(dumps_report(complex_to_doc(f.codomain)), encoding="utf-8")
    doc = {
        "domain": "dom.json",
        "codomain": "cod.json",
        "vertex_images": list(f.vertex_images),
    }
    assert map_from_doc(doc, base_dir=str(tmp_path)) == f


def test_function_roundtrip():
    height, _ = torus_height()
    doc = function_to_doc(height)
    assert function_from_doc(json.loads(json.dumps(doc))) == height


def test_dot_output_is_stable():
    g = PLFunction(circle(4), [Fraction(0), Fraction(1), Fraction(2), Fraction(1)])
    dot = reeb_graph_to_dot(reeb_graph(g))
    assert dot.startswith("graph reeb {")
    assert 'n0 [label="value=0"];' in dot
    assert dot.count("--") == 4


def test_graph_writers_equal_a_reference_built_from_exact_fractions():
    k = grid_torus(12, 12)
    order = list(range(k.num_vertices))
    random.Random(42).shuffle(order)
    graph = reeb_graph(PLFunction(k, [Fraction(v, 3) for v in order]))
    labels = [str(Fraction(n.value)) for n in graph.nodes]
    assert any("/3" in s for s in labels) and any("/" not in s for s in labels)
    dot = ["graph reeb {"]
    dot += [f'  n{n.id} [label="value={s}"];' for n, s in zip(graph.nodes, labels)]
    dot += [f"  n{a} -- n{b};" for a, b in graph.edges] + ["}"]
    assert reeb_graph_to_dot(graph) == "\n".join(dot) + "\n"
    bv = graph.betti()
    doc = {
        "nodes": [{"id": n.id, "value": s, "component": n.component}
                  for n, s in zip(graph.nodes, labels)],
        "edges": [list(e) for e in graph.edges],
        "betti": bv.as_list(),
        "total": bv.total,
    }
    assert dumps_report(reeb_graph_to_doc(graph)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: reeb_graph(PLFunction(circle(5), [-3, Fraction(-7, 2), 0, Fraction(5, 3), -3])),
                 id="negative_and_thirds"),
    pytest.param(lambda: reeb_graph(torus_height()[0]), id="torus_height"),
    pytest.param(lambda: ReebGraph((ReebNode(0, 4, 0, 0), ReebNode(1, 9, 1, 0)), ((0, 1),), {}),
                 id="int_values"),
    pytest.param(lambda: ReebGraph((), (), {}), id="empty"),
])
def test_dot_equals_the_per_line_fstrings(graph):
    graph = graph()
    assert reeb_graph_to_dot(graph) == dot_by_fstrings(graph)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_refused(args, capsys, message):
    """The command exits 1 with ``message`` on stderr, no traceback, and
    nothing on stdout."""
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert message in err, err
    assert "Traceback" not in err
    assert err.startswith("reebforge: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("param, message", [
    ("n", "--param expects key=value, got 'n'"),
    ("n=x", "parameter 'n' needs an integer, got 'x'"),
])
def test_fixture_param_refusals(tmp_path, capsys, param, message):
    args = ["fixtures", "emit", "disk_collapse", "--param", param, "-o", str(tmp_path / "out")]
    assert_refused(args, capsys, message)
    assert not (tmp_path / "out").exists()


def test_a_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"simplices": [[0]], "note": "caf\u00e9"}'.encode("latin-1"))
    assert_refused(["betti", str(path)], capsys, f"{path} is not UTF-8: invalid continuation byte")


def test_a_document_nested_too_deeply_is_refused(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert_refused(["betti", str(path)], capsys, "invalid document: nested too deeply")


@pytest.mark.parametrize("command, doc, message", [
    pytest.param(
        ["reeb", "FILE", "--graph"],
        {"complex": {"simplices": [[0], [1], [0, 1]]}, "values": [0, [1]]},
        "expected integer or rational string, got [1]",
        id="rational_of_another_type",
    ),
    pytest.param(
        ["betti", "FILE"],
        {"simplices": [[0]], "vertices": [[0], 1]},
        "'vertices' must be a list of coordinate arrays",
        id="vertices_not_arrays",
    ),
    pytest.param(
        ["betti", "FILE"],
        {"simplices": [[0]], "vertices": "0"},
        "'vertices' must be a list of coordinate arrays",
        id="vertices_not_a_list",
    ),
    pytest.param(
        ["betti", "FILE"],
        {"simplices": [[0]], "ambient_dim": 2},
        "'ambient_dim' requires 'vertices'",
        id="ambient_dim_without_vertices",
    ),
    pytest.param(
        ["reeb", "FILE", "--graph"],
        {"complex": {"simplices": [[0]]}, "values": {"0": 1}},
        "'values' must be a list of rationals",
        id="values_not_a_list",
    ),
])
def test_document_shape_refusals(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_refused([str(path) if a == "FILE" else a for a in command], capsys, message)


def test_cli_betti_sphere(tmp_path, capsys):
    path = tmp_path / "sphere.json"
    path.write_text(dumps_report(complex_to_doc(boundary_delta3())), encoding="utf-8")
    code, out, _ = run_cli(["betti", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"betti": [1, 0, 1], "total": 2, "euler": 2}


def test_cli_betti_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"simplices": [[0, 1]]', encoding="utf-8")
    code, _, err = run_cli(["betti", str(path)], capsys)
    assert code == 1
    assert "line" in err


def test_cli_betti_missing_faces(tmp_path, capsys):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"num_vertices": 3, "simplices": [[0, 1, 2]]}), encoding="utf-8")
    code, _, err = run_cli(["betti", str(path)], capsys)
    assert code == 1
    code, out, _ = run_cli(["betti", str(path), "--close-faces"], capsys)
    assert code == 0


def test_cli_reeb_space_on_disk_fixture(tmp_path, capsys):
    code, out, _ = run_cli(
        ["fixtures", "emit", "disk_collapse", "--param", "n=2", "-o", str(tmp_path)],
        capsys,
    )
    assert code == 0
    map_path = os.path.join(str(tmp_path), "disk_collapse.map.json")
    code, out, _ = run_cli(["reeb", map_path, "--space"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 1]
    assert report["num_strata"] == 14


def test_cli_reeb_graph_dot(tmp_path, capsys):
    from reebforge.io import function_to_doc

    g = PLFunction(circle(4), [Fraction(0), Fraction(1), Fraction(2), Fraction(1)])
    path = tmp_path / "g.json"
    path.write_text(dumps_report(function_to_doc(g)), encoding="utf-8")
    code, out, _ = run_cli(["reeb", str(path), "--graph", "--dot"], capsys)
    assert code == 0
    assert out.startswith("graph reeb {")
    # A function file also works for --space via the slicing helper.
    code, out, _ = run_cli(["reeb", str(path), "--space"], capsys)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


# `reeb --space` on a function file counts the slice's strata off the Reeb
# graph; only --emit-realization, which needs the strata's facets, slices.
# The digest is the benchmark session's record of `reeb --space` on the
# emitted torus_height function file.
TORUS_SPACE_SHA256 = "0ff36be6043d5c264283525f8cad9af708c1f9fc46620cc2f37c87aa0712fe89"


def test_cli_reeb_space_of_a_function_file_builds_no_slice(tmp_path, capsys, monkeypatch):
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0

    def refuse(*args):
        raise AssertionError("the slice path ran")

    for module in (cli, reebforge.reeb):
        monkeypatch.setattr(module, "pl_as_simplicial_map", refuse)
        monkeypatch.setattr(module, "reeb_space", refuse)
    path = os.path.join(str(tmp_path), "torus_height.function.json")
    code, out, err = run_cli(["reeb", path, "--space"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TORUS_SPACE_SHA256


def test_cli_reeb_space_with_realization_still_slices(tmp_path, capsys, monkeypatch):
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0
    path = os.path.join(str(tmp_path), "torus_height.function.json")
    code, out, _ = run_cli(["reeb", path, "--space"], capsys)
    assert code == 0
    plain = json.loads(out)
    sliced = []
    slice_ = cli.pl_as_simplicial_map
    monkeypatch.setattr(cli, "pl_as_simplicial_map", lambda g: sliced.append(g) or slice_(g))
    code, out, _ = run_cli(["reeb", path, "--space", "--emit-realization"], capsys)
    assert (code, len(sliced)) == (0, 1)
    full = json.loads(out)
    assert full.pop("realization")["simplices"]
    assert full == plain


def test_cli_reeb_graph_requires_function_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(1))), encoding="utf-8")
    code, _, err = run_cli(["reeb", str(path), "--graph"], capsys)
    assert code == 1


SPACE_DOT = (["--space", "--dot"], "--dot renders Reeb graphs; combine it with --graph")
GRAPH_EMIT_REALIZATION = (
    ["--graph", "--emit-realization"],
    "--emit-realization inlines a Reeb space's realization; combine it with --space",
)


@pytest.mark.parametrize(
    "flags, message, missing",
    [(*SPACE_DOT, False), (*GRAPH_EMIT_REALIZATION, False),
     (*SPACE_DOT, True), (*GRAPH_EMIT_REALIZATION, True)],
    ids=["space_dot", "graph_emit_realization",
         "space_dot_missing_path", "graph_emit_realization_missing_path"],
)
def test_cli_reeb_refuses_a_flag_of_the_other_mode(tmp_path, capsys, flags, message, missing):
    # Neither flag is dropped in silence: each is an input error, settled
    # before the file is read, so a missing file gets the same refusal.
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0
    name = "absent.json" if missing else "torus_height.function.json"
    path = os.path.join(str(tmp_path), name)
    code, out, err = run_cli(["reeb", path, *flags], capsys)
    assert (code, out) == (1, "")
    assert err == f"reebforge: error: {message}\n"


def test_cli_betti_torus_fixture_file(tmp_path, capsys):
    height, _ = torus_height()
    path = tmp_path / "torus.json"
    path.write_text(dumps_report(complex_to_doc(height.complex)), encoding="utf-8")
    code, out, _ = run_cli(["betti", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"betti": [1, 2, 1], "total": 4, "euler": 0}


def test_cli_torus_height_graph_dot_has_one_cycle(tmp_path, capsys):
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0
    fn_path = os.path.join(str(tmp_path), "torus_height.function.json")
    code, out, _ = run_cli(["reeb", fn_path, "--graph", "--dot"], capsys)
    assert code == 0
    nodes = out.count("[label=")
    edges = out.count("--")
    assert edges - nodes + 1 == 1  # connected graph with one independent cycle


def test_cli_torus_b1_check(tmp_path, capsys):
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0
    map_path = os.path.join(str(tmp_path), "torus_height.map.json")
    code, out, _ = run_cli(["verify", map_path, "--b1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["b1"]["components"][0]["b1_domain"] == 2


def test_cli_rejects_non_simplicial_map(tmp_path, capsys):
    doc = {
        "domain": {"num_vertices": 2, "simplices": [[0], [1], [0, 1]]},
        "codomain": {"num_vertices": 2, "simplices": [[0], [1]]},
        "vertex_images": [0, 1],
    }
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["reeb", str(path), "--space"], capsys)
    assert code == 1
    assert "(0, 1)" in err


def test_cli_constant_function_graph(tmp_path, capsys):
    from reebforge.fixtures import full_simplex

    g = PLFunction(full_simplex(2), [Fraction(1)] * 3)
    path = tmp_path / "const.json"
    path.write_text(dumps_report(function_to_doc(g)), encoding="utf-8")
    code, out, _ = run_cli(["reeb", str(path), "--graph"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["nodes"]) == 1
    assert report["edges"] == []


def test_cli_verify_quotient_and_b1(tmp_path, capsys):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    code, out, _ = run_cli(["verify", str(path), "--quotient", "--b1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["checks"]["quotient"]["ok"]
    assert report["checks"]["b1"]["ok"]


def test_cli_verify_quotient_runs_under_the_cell_cap(tmp_path, capsys):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    code, out, err = run_cli(["verify", str(path), "--quotient", "--cell-cap", "336"], capsys)
    assert (code, out) == (3, "")
    assert "337 simplices of the quotient map's sd(X) exceed the cap of 336" in err
    product = tmp_path / "product.json"
    product.write_text(
        dumps_report(map_to_doc(product_power(disk_collapse(2), 2))), encoding="utf-8"
    )
    code, out, err = run_cli(["verify", str(product), "--quotient"], capsys)
    assert (code, out) == (3, "")
    assert "1507489 simplices of the quotient map's sd(X) exceed the cap of 200000" in err


@pytest.mark.parametrize("name", ["absent.json", "torus_height.function.json"])
def test_cli_verify_without_a_check_is_refused_before_the_file_is_read(tmp_path, capsys, name):
    code, _, _ = run_cli(["fixtures", "emit", "torus_height", "-o", str(tmp_path)], capsys)
    assert code == 0
    code, out, err = run_cli(["verify", os.path.join(str(tmp_path), name)], capsys)
    assert (code, out) == (1, "")
    assert err == "reebforge: error: choose at least one of --descent, --b1, --quotient\n"


def test_cli_verify_descent(tmp_path, capsys):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    code, out, _ = run_cli(["verify", str(path), "--descent", "2"], capsys)
    assert code == 0
    assert json.loads(out)["checks"]["descent"]["ok"]


def test_cli_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    code, _, err = run_cli(
        ["fiber-power", str(path), "-p", "2", "--cell-cap", "10", "--engine", "cells"],
        capsys,
    )
    assert code == 3
    assert "budget" in err


HUGE_POWER_REFUSALS = {
    "auto": "fiber-power cells exceed the cap of 200000",
}


@pytest.mark.parametrize("engine", sorted(HUGE_POWER_REFUSALS))
@pytest.mark.parametrize("p", ["5000", "10000000"])
def test_cli_refuses_a_huge_power_at_once(tmp_path, capsys, engine, p):
    # 2**5001 cells and more: refused from the group sizes' bit lengths,
    # with the stage and the cap, before any power is computed or printed.
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["fiber-power", str(path), "-p", p, "--engine", engine], capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == f"reebforge: budget exceeded: {HUGE_POWER_REFUSALS[engine]}\n"


@pytest.mark.parametrize("p", ["20000", "10000000"])
def test_cli_refuses_a_huge_identity_power_at_once(tmp_path, capsys, p):
    # Groups of one simplex keep the unreduced count at 14 for any p; the
    # critical cells' p + 1 components each are what the cap refuses.
    sphere = boundary_delta3()
    path = tmp_path / "ident.map.json"
    ident = map_to_doc(reebforge.SimplicialMap(sphere, sphere, list(range(4))))
    path.write_text(dumps_report(ident), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["fiber-power", str(path), "-p", p], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    count = 14 * (int(p) + 1)
    assert err == (
        f"reebforge: budget exceeded: {count} components of critical fiber-power cells "
        "exceed the cap of 200000\n"
    )


def test_cli_refuses_a_huge_identity_descent_at_once(tmp_path, capsys):
    # Refused before any power, at the least p whose critical components
    # pass the cap: 14 * 14,286 at p = 14,285.
    sphere = boundary_delta3()
    path = tmp_path / "ident.map.json"
    ident = map_to_doc(reebforge.SimplicialMap(sphere, sphere, list(range(4))))
    path.write_text(dumps_report(ident), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["verify", str(path), "--descent", "10000000"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        "reebforge: budget exceeded: 200004 components of critical fiber-power cells "
        "exceed the cap of 200000\n"
    )


def test_cli_missing_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(["betti", str(tmp_path / "absent.json")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("reebforge: error: [Errno 2]")


def test_cli_map_naming_a_missing_domain_is_an_input_error(tmp_path, capsys):
    f = disk_collapse(1)
    path = tmp_path / "map.json"
    doc = {"domain": "absent.json", "codomain": complex_to_doc(f.codomain),
           "vertex_images": list(f.vertex_images)}
    path.write_text(dumps_report(doc), encoding="utf-8")
    code, out, err = run_cli(["fiber-power", str(path), "-p", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("reebforge: error: [Errno 2]")
    assert "absent.json" in err


def test_cli_fiber_power_nerve_engine(tmp_path, capsys):
    # The nerve is the tests' reference only: the CLI refuses the name as
    # a usage error, before the file is read.
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(1))), encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["fiber-power", str(path), "-p", "1", "--engine", "nerve"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert "invalid choice: 'nerve'" in err


def test_cli_bounds(capsys):
    code, out, _ = run_cli(["bounds", "closed", "--s", "1", "--d", "2", "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "28"
    code, out, _ = run_cli(["bounds", "sign-components", "--s", "1", "--d", "1", "--k", "1"], capsys)
    assert json.loads(out)["value"] == "4"
    code, out, _ = run_cli(
        ["bounds", "reeb", "--s", "2", "--d", "2", "--n", "1", "--m", "1", "-c", "1"],
        capsys,
    )
    assert json.loads(out)["value"] == "16"


@pytest.mark.parametrize("c", ["8", "100"])
def test_cli_bounds_reeb_past_the_digit_cap_exits_3_at_once(capsys, c):
    start = time.perf_counter()
    code, out, err = run_cli(
        ["bounds", "reeb", "--s", "10", "--d", "10", "--n", "3", "--m", "3", "-c", c], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "bound digits exceed the cap of 1000000" in err


def test_cli_bounds_choices_are_the_bound_table(capsys):
    (commands,) = build_parser()._subparsers._group_actions
    (name,) = (a for a in commands.choices["bounds"]._actions if a.dest == "name")
    names = ["closed", "general", "sign-components", "reeb"]
    assert list(name.choices) == list(cli._BOUNDS) == names
    with pytest.raises(SystemExit) as info:
        main(["bounds", "nope", "--s", "1", "--d", "1"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert "argument name: invalid choice: 'nope' (choose from " in err
    # argparse lists the choices in the table's order.
    positions = [err.index(n, err.index("choose from")) for n in names]
    assert positions == sorted(positions)


def test_cli_bounds_invalid_params(capsys):
    code, _, err = run_cli(["bounds", "closed", "--s", "0", "--d", "1", "--k", "1"], capsys)
    assert code == 1


def test_cli_fixtures_list(capsys):
    code, out, _ = run_cli(["fixtures", "list"], capsys)
    assert code == 0
    assert "disk_collapse" in json.loads(out)["fixtures"]


def test_cli_deterministic_output(tmp_path, capsys):
    path = tmp_path / "sphere.json"
    path.write_text(dumps_report(complex_to_doc(boundary_delta3())), encoding="utf-8")
    _, first, _ = run_cli(["betti", str(path)], capsys)
    _, second, _ = run_cli(["betti", str(path)], capsys)
    assert first == second

    map_path = tmp_path / "disk.json"
    map_path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    _, a, _ = run_cli(["reeb", str(map_path), "--space", "--emit-realization"], capsys)
    _, b, _ = run_cli(["reeb", str(map_path), "--space", "--emit-realization"], capsys)
    assert a == b
    _, a, _ = run_cli(["verify", str(map_path), "--descent", "1"], capsys)
    _, b, _ = run_cli(["verify", str(map_path), "--descent", "1"], capsys)
    assert a == b


def test_cli_env_cell_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "10")
    code, _, err = run_cli(["fiber-power", str(path), "-p", "2", "--engine", "cells"], capsys)
    assert code == 3
    # An explicit flag overrides the environment.
    code, out, _ = run_cli(
        ["fiber-power", str(path), "-p", "0", "--engine", "cells", "--cell-cap", "100000"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["betti"] == [1]


def test_cli_emit_realization_is_refused_past_the_cell_cap(tmp_path, capsys, monkeypatch):
    # The disk's realization has 74 simplices; they are counted from the
    # strata's facets before any is built.
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    args = ["reeb", str(path), "--space", "--emit-realization"]
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "73")
    monkeypatch.setattr(complexes, "_enumerate_chains", None)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (3, "")
    assert "74 simplices of the realization exceed the cap of 73" in err
    monkeypatch.undo()
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "74")
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert len(json.loads(out)["realization"]["simplices"]) == 74


def test_cli_betti_reads_canonical_and_reversed_listings_alike(tmp_path, capsys):
    doc = complex_to_doc(product_power(disk_collapse(1), 2).domain)
    canonical, reversed_ = tmp_path / "canonical.json", tmp_path / "reversed.json"
    canonical.write_text(dumps_report(doc), encoding="utf-8")
    reversed_.write_text(
        dumps_report({**doc, "simplices": doc["simplices"][::-1]}), encoding="utf-8"
    )
    code, first, _ = run_cli(["betti", str(canonical)], capsys)
    assert code == 0
    assert run_cli(["betti", str(reversed_)], capsys) == (0, first, "")
    edge = next(s for s in doc["simplices"] if len(s) == 2)
    missing = tmp_path / "missing.json"
    missing.write_text(
        dumps_report({**doc, "simplices": [s for s in doc["simplices"] if s != edge]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(["betti", str(missing)], capsys)
    assert (code, out) == (1, "")
    assert f"reebforge: error: face {tuple(edge)} of " in err
    assert err.rstrip().endswith("is missing")


def test_cli_output_file(tmp_path, capsys):
    src = tmp_path / "sphere.json"
    src.write_text(dumps_report(complex_to_doc(boundary_delta3())), encoding="utf-8")
    dst = tmp_path / "report.json"
    code, out, _ = run_cli(["betti", str(src), "-o", str(dst)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text(encoding="utf-8"))["total"] == 2


def test_cli_reeb_space_builds_no_order_complex(tmp_path, capsys, monkeypatch):
    # Every order complex the package builds enumerates its chains in
    # ``complexes._enumerate_chains``; the guard fires on the realization.
    def refuse(ups):
        raise AssertionError("order complex built")

    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    monkeypatch.setattr(complexes, "_enumerate_chains", refuse)
    code, out, _ = run_cli(["reeb", str(path), "--space"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 1]
    assert report["euler"] == 2
    assert "realization" not in report
    with pytest.raises(AssertionError, match="order complex built"):
        run_cli(["reeb", str(path), "--space", "--emit-realization"], capsys)


def test_cli_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    def broken(complex_):
        raise InvariantError("ridge 0 of cell 7 lies in 3 facets, not 2")

    monkeypatch.setattr("reebforge.cli.betti_report", broken)
    path = tmp_path / "sphere.json"
    path.write_text(dumps_report(complex_to_doc(boundary_delta3())), encoding="utf-8")
    code, out, err = run_cli(["betti", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert "internal invariant failed" in err


# A command runs with the cyclic garbage collector paused, and leaves the
# caller's setting as it found it on every exit path.


def test_a_command_starts_no_automatic_collection(tmp_path, capsys):
    path = tmp_path / "product.json"
    path.write_text(
        dumps_report(map_to_doc(product_power(disk_collapse(2), 2))), encoding="utf-8"
    )
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        code, out, _ = run_cli(["reeb", str(path), "--space"], capsys)
    finally:
        gc.callbacks.remove(hook)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 2, 0, 1]
    assert started == []
    assert gc.isenabled()


def _raising(exc):
    def command(args):
        raise exc

    return command


CLOSED = ["bounds", "closed", "--s", "1", "--d", "2"]
# Each case: argv, what the replaced ``cmd_bounds`` raises (None: the real
# command runs), and the exit code or the exception that escapes ``main``.
COLLECTOR_EXITS = {
    "ok": (CLOSED, None, 0),
    "input_error": (["betti", "MISSING"], None, 1),
    "usage_error": (["bounds", "no-such-bound", "--s", "1", "--d", "2"], None, SystemExit),
    "budget": (
        ["bounds", "reeb", "--s", "10", "--d", "10", "--n", "3", "--m", "3", "-c", "8"], None, 3
    ),
    "invariant": (CLOSED, InvariantError("ridge 0 lies in 3 facets, not 2"), 4),
    "unexpected": (CLOSED, RuntimeError("not a reebforge error"), RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["caller_enabled", "caller_disabled"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_EXITS))
def test_a_command_leaves_the_callers_collector_as_it_found_it(
    tmp_path, capsys, monkeypatch, case, enabled
):
    argv, raised, outcome = COLLECTOR_EXITS[case]
    argv = [str(tmp_path / "absent.json") if a == "MISSING" else a for a in argv]
    if raised is not None:
        monkeypatch.setattr(cli, "cmd_bounds", _raising(raised))
    if not enabled:
        gc.disable()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome) as info:
                main(argv)
            if outcome is SystemExit:
                assert info.value.code == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


def test_the_cyclic_garbage_a_command_leaves_does_not_grow_with_its_input(tmp_path, capsys):
    paths = {}
    for name, f in (("disk", disk_collapse(2)), ("product", product_power(disk_collapse(2), 2))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps_report(map_to_doc(f)), encoding="utf-8")

    def unreachable_left(path):
        gc.collect()
        gc.disable()  # so that no automatic collection takes any of it first
        try:
            assert run_cli(["reeb", str(path), "--space"], capsys)[0] == 0
            return gc.collect()
        finally:
            gc.enable()

    unreachable_left(paths["disk"])  # warm: a first call leaves one-time garbage of its own
    assert unreachable_left(paths["disk"]) == unreachable_left(paths["product"])


def _shuffled_torus(m):
    values = list(range(m * m))
    random.Random(f"reeb_graph_mesh:0:{m}").shuffle(values)
    return PLFunction(grid_torus(m, m), [Fraction(v) for v in values])


# The table-building entry points pause the collector as ``main`` does
# (``errors._collector_paused``), and leave the caller's setting as they
# found it.  Each case: the call that returns, and the call that raises
# with the exception it raises.
_HEIGHT, _HEIGHT_MAP = torus_height()
_DISK = disk_collapse(2)
_EMPTY = PLFunction(SimplicialComplex(0, []), [])
PAUSED_CALLS = {
    "reeb_graph": (lambda: reeb.reeb_graph(_HEIGHT), lambda: reeb.reeb_graph(None), AttributeError),
    "pl_as_simplicial_map": (
        lambda: reeb.pl_as_simplicial_map(_HEIGHT),
        lambda: reeb.pl_as_simplicial_map(_EMPTY),
        reebforge.EmptyComplexError,
    ),
    "reeb_space": (lambda: reeb.reeb_space(_DISK), lambda: reeb.reeb_space(None), AttributeError),
    "verify_quotient": (
        lambda: reeb.verify_quotient(_DISK),
        lambda: reeb.verify_quotient(_DISK, cell_cap=0),
        reebforge.InvalidParamsError,
    ),
    "b1_inequality_check": (
        lambda: reeb.b1_inequality_check(_HEIGHT_MAP),
        lambda: reeb.b1_inequality_check(None),
        AttributeError,
    ),
    "descent_check": (
        lambda: fiberprod.descent_check(_DISK, p_max=2),
        lambda: fiberprod.descent_check(_DISK, p_max=-1),
        reebforge.InvalidParamsError,
    ),
    "fiber_power_betti": (
        lambda: fiberprod.fiber_power_betti(_DISK, 1),
        lambda: fiberprod.fiber_power_betti(_DISK, -1),
        reebforge.InvalidParamsError,
    ),
    "betti": (lambda: homology.betti(_DISK.domain), lambda: homology.betti(None), AttributeError),
}


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["caller_enabled", "caller_disabled"])
@pytest.mark.parametrize("name", sorted(PAUSED_CALLS))
def test_an_entry_point_leaves_the_callers_collector_as_it_found_it(name, enabled, raises):
    returning, raising, error = PAUSED_CALLS[name]
    if not enabled:
        gc.disable()
    try:
        if raises:
            with pytest.raises(error):
                raising()
        else:
            returning()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("build", ["graph", "slice"])
def test_a_mesh_op_starts_no_automatic_collection(build):
    # The shuffled m = 20 graph and the m = 10 slice of the mesh benchmark;
    # the same calls unpaused do set collections off, so the hook sees them.
    g = _shuffled_torus(20 if build == "graph" else 10)
    op = reeb.reeb_graph if build == "graph" else reeb.pl_as_simplicial_map
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()  # so that no allocation before the pause sets one off
    gc.callbacks.append(hook)
    try:
        op(g)
        paused = len(started)  # an int: no tracked allocation, so no collection
        op.__wrapped__(g)
    finally:
        gc.callbacks.remove(hook)
    assert paused == 0
    assert started
    assert gc.isenabled()


@pytest.mark.parametrize("name", ["main", *sorted(PAUSED_CALLS)])
def test_a_paused_entry_point_keeps_its_signature(name):
    fn = cli.main if name == "main" else getattr(reebforge, name)
    assert fn.__wrapped__ is not fn and fn.__name__ == name
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)
    assert "args" not in inspect.signature(fn).parameters


# The pause is safe only while the tables stay acyclic: what cyclic garbage
# an entry point leaves must not grow with its input.
GARBAGE_INPUTS = {
    "reeb_graph": (reeb.reeb_graph, lambda: _shuffled_torus(5), lambda: _shuffled_torus(10)),
    "pl_as_simplicial_map": (
        reeb.pl_as_simplicial_map, lambda: _shuffled_torus(5), lambda: _shuffled_torus(10)
    ),
    "reeb_space": (reeb.reeb_space, lambda: _DISK, lambda: product_power(disk_collapse(2), 2)),
    "descent_check": (
        lambda f: fiberprod.descent_check(f, p_max=0),
        lambda: _DISK,
        lambda: product_power(disk_collapse(2), 2),
    ),
}


@pytest.mark.parametrize("name", sorted(GARBAGE_INPUTS))
def test_the_cyclic_garbage_an_entry_point_leaves_does_not_grow_with_its_input(name):
    op, small, large = GARBAGE_INPUTS[name]
    small, large = small(), large()

    def unreachable_left(x):
        gc.collect()
        gc.disable()  # so that no automatic collection takes any of it first
        try:
            op(x)
            return gc.collect()
        finally:
            gc.enable()

    unreachable_left(small)  # warm: a first call leaves one-time garbage of its own
    assert unreachable_left(small) == unreachable_left(large)


# The parser is built once per process and holds no command function, so a
# command replaced after the first call is the one that runs, and no flag
# carries over from one parse to the next.


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    assert run_cli(["fixtures", "list"], capsys)[0] == 0
    seen = []

    def replaced(args):
        seen.append(args.name)
        return 0

    monkeypatch.setattr(cli, "cmd_bounds", replaced)
    code, out, _ = run_cli(["bounds", "closed", "--s", "1", "--d", "2"], capsys)
    assert (code, out, seen) == (0, "", ["closed"])


def test_flags_do_not_leak_from_one_parse_to_the_next(tmp_path):
    parse = build_parser().parse_args
    emit = ["fixtures", "emit", "disk_collapse", "-o", str(tmp_path)]
    assert parse([*emit, "--param", "n=2"]).param == ["n=2"]
    assert parse([*emit, "--param", "n=2"]).param == ["n=2"]
    assert parse(emit).param is None
    assert parse(["verify", "f.map.json", "--b1"]).b1
    args = parse(["verify", "f.map.json", "--quotient"])
    assert (args.b1, args.quotient) == (False, True)


def run_cli_process(args, env=None):
    """The CLI in a fresh interpreter, where an uncaught exception would
    print a traceback."""
    src = os.path.dirname(os.path.dirname(reebforge.__file__))
    full_env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    proc = subprocess.run(
        [sys.executable, "-m", "reebforge.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


BAD_NUMBERS = {
    "fiber_power_p_negative": (["fiber-power", "MAP", "-p", "-1"], None),
    "verify_descent_negative": (["verify", "MAP", "--descent", "-1"], None),
    "cell_cap_env_not_integer": (["fiber-power", "MAP", "-p", "1"], {"REEBFORGE_CELL_CAP": "abc"}),
    "cell_cap_zero": (["fiber-power", "MAP", "-p", "1", "--cell-cap", "0"], None),
    "cell_cap_negative": (["fiber-power", "MAP", "-p", "1", "--cell-cap", "-5"], None),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_cli_rejects_bad_number(tmp_path, case):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(1))), encoding="utf-8")
    argv, env = BAD_NUMBERS[case]
    code, out, err = run_cli_process([str(path) if a == "MAP" else a for a in argv], env)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("reebforge: error:")


# A flag value out of range is refused by the API's own check, with its
# text, before the file is read: a missing file gets the same refusal.
EARLY_FLAG_REFUSALS = {
    "fiber_power_p_negative": (["fiber-power", "MISSING", "-p", "-1"], "p must be >= 0, got -1"),
    "verify_descent_negative": (
        ["verify", "MISSING", "--descent", "-1"], "p_max must be >= 0, got -1"
    ),
    "verify_quotient_cap_zero": (
        ["verify", "MISSING", "--quotient", "--cell-cap", "0"], "cell cap must be >= 1, got 0"
    ),
    "reeb_realization_cap_zero": (
        ["reeb", "MISSING", "--space", "--emit-realization", "--cell-cap", "0"],
        "cell cap must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(EARLY_FLAG_REFUSALS))
def test_cli_refuses_a_flag_value_out_of_range_before_the_file_is_read(tmp_path, capsys, case):
    argv, message = EARLY_FLAG_REFUSALS[case]
    missing = str(tmp_path / "absent.json")
    code, out, err = run_cli([missing if a == "MISSING" else a for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"reebforge: error: {message}\n"


def test_cli_verify_resolves_the_cap_only_for_the_checks_that_take_one(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "disk.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "abc")
    code, out, _ = run_cli(["verify", str(path), "--b1"], capsys)
    assert code == 0
    assert json.loads(out)["checks"]["b1"]["ok"]
    code, out, err = run_cli(["verify", str(tmp_path / "absent.json"), "--quotient"], capsys)
    assert (code, out) == (1, "")
    assert err == "reebforge: error: cell cap must be an integer, got 'abc'\n"


def test_cli_reeb_resolves_the_realization_cap_before_the_file_is_read(
    tmp_path, capsys, monkeypatch
):
    missing = str(tmp_path / "absent.json")
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "abc")
    code, out, err = run_cli(["reeb", missing, "--space", "--emit-realization"], capsys)
    assert (code, out) == (1, "")
    assert err == "reebforge: error: cell cap must be an integer, got 'abc'\n"
    # Without --emit-realization no cap is resolved: the file error stands.
    code, out, err = run_cli(["reeb", missing, "--space"], capsys)
    assert (code, out) == (1, "")
    assert "cell cap" not in err
    assert "absent.json" in err


def test_cli_reeb_realization_honours_the_cell_cap_flag(tmp_path, capsys, monkeypatch):
    path = tmp_path / "disk.map.json"
    path.write_text(dumps_report(map_to_doc(disk_collapse(2))), encoding="utf-8")
    # The flag wins over the environment, as it does for fiber-power and verify.
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "abc")
    argv = ["reeb", str(path), "--space", "--emit-realization", "--cell-cap"]
    code, out, err = run_cli([*argv, "73"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "reebforge: budget exceeded: 74 simplices of the realization exceed the cap of 73\n"
    )
    code, out, _ = run_cli([*argv, "74"], capsys)
    assert code == 0
    assert len(json.loads(out)["realization"]["simplices"]) == 74


BAD_DOCUMENTS = {
    "vertex_entry_not_an_array": (["betti", "FILE"], b'{"simplices": [[0]], "vertices": [5]}'),
    "vertex_entry_a_string": (["betti", "FILE"], b'{"simplices": [[0]], "vertices": ["12"]}'),
    "complex_not_utf8": (["betti", "FILE"], b'{"simplices": [[0]], "vertices": [["\xff"]]}'),
    "map_not_utf8": (["reeb", "FILE", "--space"], b'{"vertex_images": "\xff"}'),
    "nested_too_deeply": (["betti", "FILE"], b"[" * 100000 + b"]" * 100000),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_cli_rejects_malformed_document(tmp_path, case):
    argv, data = BAD_DOCUMENTS[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli_process([str(path) if a == "FILE" else a for a in argv])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("reebforge: error:")


def test_cli_rejects_slicing_an_empty_complex(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"complex": {"simplices": []}, "values": []}', encoding="utf-8")
    code, out, err = run_cli_process(["reeb", str(path), "--space"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == "reebforge: error: cannot slice an empty complex\n"


# A parsed complex is built on the canonical simplices that the validator
# made, without canonicalising them again.  Every malformed complex still
# raises its error, and every emitted fixture parses to the complex that the
# checked constructor builds.

MALFORMED_COMPLEXES = {
    "duplicate": (
        {"simplices": [[0], [1], [0, 1], [1, 0]]}, False,
        DuplicateSimplexError, "simplex (0, 1) listed twice",
    ),
    "repeated_vertex": (
        {"simplices": [[0], [0, 0]]}, False,
        InvalidSimplexError, "repeated vertex id 0 in simplex (0, 0)",
    ),
    "empty_simplex": ({"simplices": [[0], []]}, False, InvalidSimplexError, "empty simplex"),
    "out_of_range": (
        {"num_vertices": 2, "simplices": [[0], [1], [0, 2]]}, False,
        VertexOutOfRangeError, "simplex (0, 2) outside 0..1",
    ),
    "negative_id": (
        {"num_vertices": 2, "simplices": [[-1], [0]]}, False,
        VertexOutOfRangeError, "simplex (-1,) outside 0..1",
    ),
    "out_of_range_closing_faces": (
        {"num_vertices": 2, "simplices": [[2, 0]]}, True,
        VertexOutOfRangeError, "simplex (0, 2) outside 0..1",
    ),
    "missing_face": (
        {"simplices": [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]]}, False,
        MissingFaceError, "face (1, 2) of (0, 1, 2) is missing",
    ),
    "coordinate_arity": (
        {"simplices": [[0]], "vertices": [["1", "2"]], "ambient_dim": 3}, False,
        FormatError, "coordinate arity disagrees with 'ambient_dim'",
    ),
    "ambient_dim_bool": (
        {"simplices": [[0]], "vertices": [["1"]], "ambient_dim": True}, False,
        FormatError, "'ambient_dim' must be a non-negative integer",
    ),
    "ambient_dim_negative": (
        {"simplices": [], "vertices": [], "ambient_dim": -3}, False,
        FormatError, "'ambient_dim' must be a non-negative integer",
    ),
    "ambient_dim_string": (
        {"simplices": [[0]], "vertices": [["1"]], "ambient_dim": "1"}, False,
        FormatError, "'ambient_dim' must be a non-negative integer",
    ),
    "coordinate_count": (
        {"num_vertices": 2, "simplices": [[0], [1]], "vertices": [["1"]]}, False,
        ValueCountMismatchError, "one coordinate point per vertex required",
    ),
    "mixed_dimensions": (
        {"simplices": [[0], [1]], "vertices": [["1"], ["1", "2"]]}, False,
        InvalidSimplexError, "coordinate points have mixed ambient dimensions",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEXES))
def test_malformed_complex_raises_its_error_and_message(case):
    doc, close_faces, error, message = MALFORMED_COMPLEXES[case]
    with pytest.raises(error) as info:
        complex_from_doc(json.loads(json.dumps(doc)), close_faces=close_faces)
    assert type(info.value) is error
    assert str(info.value) == message


def checked_rebuild(complex_):
    return SimplicialComplex(
        complex_.num_vertices, complex_.simplex_set, coordinates=complex_.coordinates
    )


FIXTURE_SPECS = [
    FixtureSpec("disk_collapse", {"n": 1}),
    FixtureSpec("disk_collapse", {"n": 2}),
    FixtureSpec("product_power", {"n": 1, "k": 3}),
    FixtureSpec("product_power", {"n": 2, "k": 2}),
    FixtureSpec("torus_height"),
    *(FixtureSpec("random_map", {"seed": seed}) for seed in range(5)),
]


def spec_id(spec):
    return "-".join([spec.name, *map(str, spec.parameters.values())])


@pytest.mark.parametrize("spec", FIXTURE_SPECS, ids=spec_id)
def test_parsed_fixtures_equal_the_checked_constructor(spec):
    for kind, artifact in build_fixture(spec).items():
        text = dumps_report((map_to_doc if kind == "map" else function_to_doc)(artifact))
        doc = parse_document(text)
        if kind == "map":
            parsed = map_from_doc(doc)
            complexes = [(parsed.domain, doc["domain"]), (parsed.codomain, doc["codomain"])]
        else:
            parsed = function_from_doc(doc)
            complexes = [(parsed.complex, doc["complex"])]
        assert parsed == artifact
        for complex_, complex_doc in complexes:
            want = SimplicialComplex(
                complex_doc["num_vertices"],
                complex_doc["simplices"],
                coordinates=complex_.coordinates,
            )
            assert complex_ == want == checked_rebuild(complex_)
            assert complex_.simplices == want.simplices


@pytest.mark.parametrize("spec", FIXTURE_SPECS, ids=spec_id)
def test_emitted_files_are_their_report_serialization(spec, tmp_path, capsys):
    params = [arg for k, v in spec.parameters.items() for arg in ("--param", f"{k}={v}")]
    code, _, _ = run_cli(["fixtures", "emit", spec.name, *params, "-o", str(tmp_path)], capsys)
    assert code == 0
    for kind, artifact in build_fixture(spec).items():
        text = dumps_report((map_to_doc if kind == "map" else function_to_doc)(artifact))
        assert (tmp_path / f"{spec.name}.{kind}.json").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("entry", [True, False, 1.0, "1", None])
def test_non_integer_simplex_entries_are_named(entry):
    with pytest.raises(FormatError) as err:
        complex_from_doc({"simplices": [[0], [1], [0, 1], [0, entry]]})
    assert str(err.value) == f"simplex entry {entry!r} is not an integer"


def test_the_first_non_integer_simplex_entry_is_named():
    with pytest.raises(FormatError, match=r"^simplex entry 'a' is not an integer$"):
        complex_from_doc({"simplices": [["a", None], [1, 2.5], [0]]})


@pytest.mark.parametrize("close_faces", [False, True])
def test_a_parsed_document_gets_one_type_pass(monkeypatch, close_faces):
    # io's pass over the entries' types is the only one: the complex is
    # checked past it.  The constructor keeps its own for every other caller.
    doc = complex_to_doc(disk_collapse(2).domain)
    want = complex_from_doc(doc, close_faces=close_faces)

    def refuse(*args):
        raise AssertionError("a second type pass")

    monkeypatch.setattr(complexes, "_int_listing", refuse)
    assert complex_from_doc(doc, close_faces=close_faces) == want
    with pytest.raises(AssertionError, match="a second type pass"):
        SimplicialComplex(want.num_vertices, want.simplices)


def test_int_subclass_simplex_entries_are_accepted():
    class Id(int):
        pass

    k = complex_from_doc({"simplices": [[Id(0)], [Id(1)], [Id(0), Id(1)]]})
    assert k == complex_from_doc({"simplices": [[0], [1], [0, 1]]})


# The report writer gives the text of json.dumps(doc, indent=2,
# sort_keys=True) and a newline, byte for byte, for every document a report
# can hold, and refuses every other value.


def reference_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def streamed_text(doc):
    fh = io.StringIO()
    dump_report(doc, fh)
    return fh.getvalue()


_STRINGS = st.text(max_size=4) | st.text(
    st.sampled_from('a"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'), max_size=4
)
# The largest ints below the 4,300-digit limit on int-to-str conversion.
_INTS = st.integers(-(10**30), 10**30) | st.sampled_from([10**4299 - 1, -(10**4299) + 1])
_LISTINGS = st.lists(
    st.lists(st.integers(-3, 10**6), min_size=1, max_size=5).map(
        lambda s: s if len(s) % 2 else tuple(s)  # tuples as well as lists
    ),
    min_size=1,
    max_size=8,
)
# Lists that look like a fast shape and must leave it.
_MIXES = st.sampled_from([[1, True], [[1], []], [[1], 2], [[True]], [(0, 1), [2, False]]])
_LEAVES = (
    st.none()
    | st.booleans()
    | _INTS
    | _STRINGS
    | st.lists(_INTS, max_size=6)
    | st.lists(st.booleans() | st.none(), max_size=3)
    | st.lists(_STRINGS, max_size=3)
    | _LISTINGS
    | _LISTINGS.map(lambda listing: listing * 70)  # runs past one batch
    | _MIXES
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_reports_are_the_text_of_json_dumps(doc):
    want = reference_text(doc)
    assert dumps_report(doc) == want
    assert streamed_text(doc) == want


@pytest.fixture(scope="module")
def product_map_doc():
    return map_to_doc(product_power(disk_collapse(2), 2))


def _grid_torus_function_doc():
    values = list(range(400))
    random.Random(20).shuffle(values)
    return {"complex": complex_to_doc(grid_torus(20, 20)), "values": values}


# Each case: the input file's document and the command whose report is
# captured as the CLI builds it.
CLI_REPORTS = {
    "product_space_realization": (
        "product", ["reeb", "FILE", "--space", "--emit-realization"]
    ),
    "grid_torus_graph": (_grid_torus_function_doc, ["reeb", "FILE", "--graph"]),
    "disk_descent": (
        lambda: map_to_doc(disk_collapse(2)), ["verify", "FILE", "--descent", "2"]
    ),
}


def cli_report(case, product_map_doc, tmp_path, capsys, monkeypatch):
    """The document that ``case``'s command hands to ``dumps_report``."""
    make_input, argv = CLI_REPORTS[case]
    path = tmp_path / "input.json"
    doc = product_map_doc if make_input == "product" else make_input()
    path.write_text(dumps_report(doc), encoding="utf-8")
    seen = []

    def record(report):
        seen.append(report)
        return dumps_report(report)

    monkeypatch.setattr(cli, "dumps_report", record)
    code, out, _ = run_cli([str(path) if a == "FILE" else a for a in argv], capsys)
    assert code == 0 and len(seen) == 1 and out == dumps_report(seen[0])
    return seen[0]


@pytest.mark.parametrize("case", ["product_map", *CLI_REPORTS])
def test_large_reports_are_the_text_of_json_dumps(
    case, product_map_doc, tmp_path, capsys, monkeypatch
):
    if case == "product_map":
        doc = product_map_doc
    else:
        doc = cli_report(case, product_map_doc, tmp_path, capsys, monkeypatch)
    want = reference_text(doc)
    assert dumps_report(doc) == want
    assert streamed_text(doc) == want


def test_int_subclass_ids_are_written_as_ints():
    class Id(int):
        pass

    doc = complex_to_doc(complex_from_doc({"simplices": [[Id(0)], [Id(1)], [Id(0), Id(1)]]}))
    assert dumps_report(doc) == reference_text(doc)


@pytest.mark.parametrize(
    "value, name",
    [
        (1.5, "float"),
        (Fraction(1, 2), "Fraction"),
        ({1, 2}, "set"),
        ({1: 2}, "int"),
        (object(), "object"),
    ],
    ids=["float", "Fraction", "set", "int_key", "object"],
)
def test_a_value_no_report_holds_is_refused_by_type(value, name):
    for doc in (value, {"rows": [value]}, [[0, 1], value]):
        for write in (dumps_report, streamed_text):
            with pytest.raises(InvariantError, match=rf"\b{name}\b"):
                write(doc)


def test_a_refused_report_exits_4_with_nothing_on_stdout(capsys, monkeypatch):
    monkeypatch.setattr(cli, "bound_report", lambda name, value, **params: {"value": 0.5})
    code, out, err = run_cli(["bounds", "closed", "--s", "1", "--d", "2"], capsys)
    assert (code, out) == (4, "")
    assert "float" in err


def test_a_document_is_written_in_bounded_chunks(product_map_doc):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    dump_report(product_map_doc, Recorder())
    assert len(writes) > 1
    assert max(map(len, writes)) <= 64 * 1024
    assert "".join(writes) == dumps_report(product_map_doc)


def test_writing_a_report_leaves_no_cyclic_garbage(
    product_map_doc, tmp_path, capsys, monkeypatch
):
    space = cli_report(
        "product_space_realization", product_map_doc, tmp_path, capsys, monkeypatch
    )
    del space["realization"]  # the product's `reeb --space` report
    gc.collect()
    gc.disable()
    try:
        dumps_report(space)
        dump_report(product_map_doc, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()
