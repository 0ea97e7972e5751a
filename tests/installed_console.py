"""Checks on the output of the installed ``reebforge`` console script.

The CI step "Installed console script runs on generated fixtures" installs
the package, runs the console script in a scratch directory, and calls
each check here by name on the files it wrote:

    python /path/to/tests/installed_console.py <check> <file>...

Run by path, this module puts only its own directory ahead of the
installed package, so ``reebforge`` is the installed copy, not ``src/``.
A check either writes an input file for a later command or asserts on an
output and exits nonzero when the assertion fails.  The module name does
not match ``test_*.py``, so pytest does not collect it.
"""

import json
import sys

CHECKS = {}


def check(fn):
    CHECKS[fn.__name__.replace("_", "-")] = fn
    return fn


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _b1_rows(path):
    components = _load(path)["checks"]["b1"]["components"]
    return [tuple(r[k] for k in ("vertices", "b1_domain", "b1_reeb", "holds")) for r in components]


@check
def disk_reeb_power_betti(out):
    assert _load(out)["checks"]["descent"]["power_betti"] == [[1], [1, 1, 1], [1, 2, 3, 1]]


@check
def random_power_betti(out):
    assert _load(out)["checks"]["descent"]["power_betti"] == [[1, 12], [1, 24, 144], [1, 36, 432, 1728]]


@check
def write_thirds(function_json, thirds_json):
    doc = _load(function_json)
    doc["values"] = [f"{v}/3" for v in doc["values"]]
    _dump(doc, thirds_json)


@check
def same_graph_shape(first, second):
    a, b = _load(first), _load(second)
    assert (len(a["nodes"]), a["edges"], a["betti"]) == (len(b["nodes"]), b["edges"], b["betti"])


@check
def dot_labels_match_graph(graph_out, dot_out):
    import re

    with open(dot_out, encoding="utf-8") as fh:
        labels = re.findall(r'^  n(\d+) \[label="value=([^"]*)"\];$', fh.read(), re.M)
    nodes = [(str(n["id"]), n["value"]) for n in _load(graph_out)["nodes"]]
    assert labels == nodes, (labels, nodes)
    assert any("/3" in value for _, value in labels), labels


@check
def plain_equals_realization(plain_out, full_out):
    plain, full = _load(plain_out), _load(full_out)
    assert full.pop("realization")["simplices"]
    assert plain == full, (plain_out, full_out)


@check
def product_betti(out):
    assert _load(out)["betti"] == [1, 0, 2, 0, 1]


@check
def reeb_space_without_gc_pause(map_json):
    import gc

    from reebforge.cli import main

    started = []
    gc.callbacks.append(lambda phase, info: phase == "start" and started.append(info["generation"]))
    code = main(["reeb", map_json, "--space"])
    assert (code, started, gc.isenabled()) == (0, [], True), (code, started)


@check
def mesh_ops_without_gc_pause(function_json):
    import gc
    import os

    from reebforge.io import function_from_doc, read_document
    from reebforge.reeb import pl_as_simplicial_map, reeb_graph

    g = function_from_doc(read_document(function_json), base_dir=os.path.dirname(function_json))
    started = []
    gc.callbacks.append(lambda phase, info: phase == "start" and started.append(info["generation"]))
    counts = []
    for op in (reeb_graph, pl_as_simplicial_map):
        gc.collect()  # so that no allocation before the pause sets one off
        before = len(started)
        op(g)
        counts.append(len(started) - before)
    assert (counts, gc.isenabled()) == ([0, 0], True), (counts, started)


@check
def mesh_ops_without_fraction_hash(function_json):
    import os
    from fractions import Fraction

    from reebforge.io import function_from_doc, read_document
    from reebforge.reeb import _slice_strata, pl_as_simplicial_map, reeb_graph

    g = function_from_doc(read_document(function_json), base_dir=os.path.dirname(function_json))
    assert any(t.denominator == 3 for t in g.values), function_json
    want = reeb_graph(g)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    Fraction.__hash__ = refuse
    for op in (reeb_graph, _slice_strata, pl_as_simplicial_map):
        op(g)
    assert reeb_graph(g) == want


@check
def written_as_dumps(*paths):
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


@check
def write_two_component_map(path):
    _dump({
        "domain": {"simplices": [
            [0], [1], [2], [3], [4], [5], [6],
            [0, 2], [0, 4], [2, 4], [1, 3], [1, 6], [3, 5], [5, 6],
        ]},
        "codomain": {"simplices": [[0], [1], [2], [0, 1], [0, 2], [1, 2]]},
        "vertex_images": [0, 0, 1, 0, 2, 0, 0],
    }, path)


@check
def two_component_b1_rows(out):
    rows = _b1_rows(out)
    assert rows == [(3, 1, 1, True), (4, 1, 0, True)], rows


@check
def product_b1_rows(out):
    rows = _b1_rows(out)
    assert rows == [(169, 0, 0, True)], rows


@check
def product_realization_size(out):
    assert len(_load(out)["realization"]["simplices"]) == 73012


@check
def staircase_refused():
    # The cube of the 2-disk's collapse is counted, 7,694,749 simplices,
    # and refused before any is built.
    from reebforge import BudgetExceededError
    from reebforge.fixtures import disk_collapse, product_power

    try:
        product_power(disk_collapse(2), 3)
    except BudgetExceededError as exc:
        message = "7694749 simplices of the staircase product exceed the cap of 200000"
        assert (str(exc), exc.stage, exc.count) == (message, "staircase product", 7694749), exc
    else:
        raise AssertionError("the cube of the 2-disk was built")


@check
def product_map_by_construction(n, k, map_json):
    # The product map is built unchecked; the emitted file, loaded through
    # the checked constructor, gives the same map and image table.
    from reebforge.fixtures import disk_collapse, product_power
    from reebforge.io import map_from_doc, read_document

    built = product_power(disk_collapse(int(n)), int(k))
    loaded = map_from_doc(read_document(map_json))
    assert loaded == built, map_json
    assert loaded.simplex_images == built.simplex_images, map_json


@check
def cold_import():
    # Run under ``python -S``: site-packages is added by hand, so nothing
    # but this module's own imports comes before the package's.
    import sysconfig

    lib = sysconfig.get_paths()["purelib"]
    sys.path.append(lib)
    import reebforge
    import reebforge.cli  # noqa: F401

    assert reebforge.__file__.startswith(lib), reebforge.__file__
    loaded = {"dataclasses", "inspect", "typing"} & set(sys.modules)
    assert not loaded, loaded


@check
def write_domain(map_json, domain_json, reversed_json):
    doc = _load(map_json)["domain"]
    _dump(doc, domain_json)
    doc["simplices"].reverse()
    _dump(doc, reversed_json)


@check
def write_shuffled(domain_json, shuffled_json):
    import random

    doc = _load(domain_json)
    random.Random(0).shuffle(doc["simplices"])
    _dump(doc, shuffled_json)


@check
def write_twice(domain_json, twice_json):
    doc = _load(domain_json)
    doc["simplices"].append(doc["simplices"][0])
    _dump(doc, twice_json)


@check
def write_open(domain_json, open_json):
    doc = _load(domain_json)
    doc["simplices"].remove(next(s for s in doc["simplices"] if len(s) == 2))
    _dump(doc, open_json)


@check
def ends_with_newline(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("}\n")
    json.loads(text)


@check
def write_bad_map(path):
    from reebforge.fixtures import boundary_delta3, path_complex
    from reebforge.io import complex_to_doc

    _dump({
        "domain": complex_to_doc(boundary_delta3()),
        "codomain": complex_to_doc(path_complex(3)),
        "vertex_images": [0, 1, 2, 1],
    }, path)


@check
def write_identity_map(path):
    from reebforge import SimplicialMap
    from reebforge.fixtures import boundary_delta3
    from reebforge.io import map_to_doc

    k = boundary_delta3()
    _dump(map_to_doc(SimplicialMap(k, k, list(range(4)))), path)


@check
def expect_exit(code, *argv):
    """Run the console command given after ``--`` and assert its exit code.
    Each ``--text`` (a fixed string) and ``--regex`` (searched line by line)
    must occur in its stderr; with ``--empty-stdout`` it writes no stdout.
    What it writes is passed on, so the log shows it."""
    import argparse
    import re
    import subprocess

    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="expect-exit")
    parser.add_argument("--text", action="append", default=[])
    parser.add_argument("--regex", action="append", default=[])
    parser.add_argument("--empty-stdout", action="store_true")
    opts = parser.parse_args(argv[:split])
    proc = subprocess.run(argv[split + 1:], capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    assert proc.returncode == int(code), (proc.returncode, code)
    for text in opts.text:
        assert text in proc.stderr, text
    for pattern in opts.regex:
        assert re.search(pattern, proc.stderr, re.M), pattern
    if opts.empty_stdout:
        assert not proc.stdout, proc.stdout


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    CHECKS[name](*args)
