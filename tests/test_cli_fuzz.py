"""Mutated fixture documents end in a documented exit code, never a traceback.

The documents are the ones ``reebforge fixtures emit`` writes, plus the
domain of the disk map as a complex document.  Each example mutates one of
them once: a value replaced by one of a wrong type, a negative or huge
integer, a float or NaN; a key or list entry deleted; or the file cut
short.  Then one command runs on it in process under a small cell cap.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebforge.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, main
from reebforge.io import dumps_report

# What a bad document may end in: a report, a typed input or verification
# failure, or a refused budget.  EXIT_INVARIANT would be a bug.
DOCUMENTED = {EXIT_OK, EXIT_FAIL, EXIT_BUDGET}

FIXTURES = [
    ("disk_collapse", ["--param", "n=1"]),
    ("random_map", ["--param", "seed=1", "--param", "size=6"]),
    ("torus_height", []),
]

CAP = ["--cell-cap", "2000"]
MAP_COMMANDS = [
    ["reeb", "FILE", "--space"],
    ["reeb", "FILE", "--space", "--emit-realization", *CAP],
    ["reeb", "FILE", "--graph"],
    ["fiber-power", "FILE", "-p", "1", *CAP],
    ["verify", "FILE", "--descent", "1", *CAP],
    ["verify", "FILE", "--descent", "1", "--target", "reeb", *CAP],
    ["verify", "FILE", "--b1", "--quotient"],
]

WRONG_TYPES = ["7", "", [], {}, True, None, [[0]], {"simplices": []}]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The emitted files' directory, and (name, text, commands) for each
    document small enough to run every command on: the sliced torus map is
    left out, its function kept."""
    root = tmp_path_factory.mktemp("emitted")
    for name, params in FIXTURES:
        code, _, _ = run(["fixtures", "emit", name, *params, "-o", str(root)])
        assert code == EXIT_OK
    docs = []
    for name in ("disk_collapse.map", "random_map.map", "torus_height.function"):
        text = (root / f"{name}.json").read_text(encoding="utf-8")
        docs.append((name, text, MAP_COMMANDS))
    domain = json.loads(docs[0][1])["domain"]
    docs.append(("disk_collapse.domain", dumps_report(domain), [["betti", "FILE"]]))
    return root, docs


def paths(node, prefix=()):
    """The path of every value in a parsed document, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(value, prefix + (key,))


def replace(node, path, value):
    if not path:
        return value
    node[path[0]] = replace(node[path[0]], path[1:], value)
    return node


def delete(node, path):
    if len(path) == 1:
        del node[path[0]]
    else:
        delete(node[path[0]], path[1:])
    return node


@st.composite
def mutated(draw, docs):
    """(name, mutation, argv template, mutated text)."""
    name, text, commands = draw(st.sampled_from(docs))
    argv = draw(st.sampled_from(commands))
    kind = draw(st.sampled_from(
        ["wrong_type", "negative", "huge", "float", "nan", "delete", "truncate"]
    ))
    if kind == "truncate":
        return name, kind, argv, text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = draw(st.sampled_from(list(paths(doc))[1 if kind == "delete" else 0 :]))
    if kind == "delete":
        doc = delete(doc, path)
    else:
        value = {
            "wrong_type": lambda: draw(st.sampled_from(WRONG_TYPES)),
            "negative": lambda: -draw(st.integers(1, 10)),
            "huge": lambda: 10 ** draw(st.sampled_from([9, 18, 40, 400])),
            "float": lambda: draw(st.sampled_from([0.5, -1.5, 1e300])),
            "nan": lambda: math.nan,
        }[kind]()
        doc = replace(doc, path, value)
    return name, kind, argv, json.dumps(doc, indent=2)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_fixture_documents_end_in_a_documented_exit_code(documents, data):
    root, docs = documents
    name, kind, argv, text = data.draw(mutated(docs))
    path = root / "mutated.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run([str(path) if a == "FILE" else a for a in argv])
    assert code in DOCUMENTED, (name, kind, argv, err)
    assert "Traceback" not in err
    if err:
        assert err.startswith("reebforge: ") and not out, (name, kind, argv, err)
    else:
        # No message: a report, and a failing one exits EXIT_FAIL.
        assert json.loads(out)["ok" if argv[0] == "verify" else "betti"] is not None
        assert code == (EXIT_OK if argv[0] != "verify" or json.loads(out)["ok"] else EXIT_FAIL)
