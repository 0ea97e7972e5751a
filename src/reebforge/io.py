"""File formats, reports, and DOT output.

All documents are strict JSON, UTF-8.  Rational values travel as integer or
"p/q" strings; floating point literals are rejected outright.  Parsers check
field names exactly and refuse trailing garbage, reporting line/column
positions from the decoder.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter

from .complexes import PLFunction, SimplicialMap, _validated
from .errors import FormatError, InvariantError


def parse_rational(value):
    """Exact rational from an int or an integer/'p/q' string."""
    if isinstance(value, bool):
        raise FormatError(f"boolean {value!r} is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational literal {value!r}: {exc}") from None
    raise FormatError(f"expected integer or rational string, got {value!r}")


def rational_str(value):
    return str(value if type(value) is Fraction else Fraction(value))


def _no_floats(text):
    raise FormatError(f"floating point literal {text!r} not allowed; use rational strings")


def parse_document(text):
    """Strict JSON parse; trailing garbage, floats (NaN and the infinities
    too) and nesting past the recursion limit are format errors."""
    try:
        return json.loads(text, parse_float=_no_floats, parse_constant=_no_floats)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"invalid document: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except RecursionError:
        raise FormatError("invalid document: nested too deeply") from None


def read_document(path):
    """Parse the UTF-8 document at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_document(text)


def _check_fields(doc, kind, required, optional=()):
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} document must be an object")
    for name in required:
        if name not in doc:
            raise FormatError(f"{kind} document is missing field {name!r}")
    allowed = set(required) | set(optional)
    for name in doc:
        if name not in allowed:
            raise FormatError(f"{kind} document has unknown field {name!r}")


def complex_from_doc(doc, close_faces=False):
    _check_fields(
        doc, "complex", required=("simplices",), optional=("num_vertices", "vertices", "ambient_dim")
    )
    simplices = doc["simplices"]
    if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
        raise FormatError("'simplices' must be a list of integer arrays")
    if not set(map(type, itertools.chain.from_iterable(simplices))) <= {int}:
        for s in simplices:  # name the entry; an int subclass other than bool passes
            for v in s:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise FormatError(f"simplex entry {v!r} is not an integer")
    for name in ("num_vertices", "ambient_dim"):
        value = doc.get(name, 0)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FormatError(f"{name!r} must be a non-negative integer")

    coordinates = None
    if "vertices" in doc:
        raw = doc["vertices"]
        if not isinstance(raw, list) or not all(isinstance(point, list) for point in raw):
            raise FormatError("'vertices' must be a list of coordinate arrays")
        coordinates = [[parse_rational(c) for c in point] for point in raw]
        if "ambient_dim" in doc and any(len(p) != doc["ambient_dim"] for p in coordinates):
            raise FormatError("coordinate arity disagrees with 'ambient_dim'")
    elif "ambient_dim" in doc:
        raise FormatError("'ambient_dim' requires 'vertices'")

    if "num_vertices" in doc:
        num_vertices = doc["num_vertices"]
    elif coordinates is not None:
        num_vertices = len(coordinates)
    else:
        num_vertices = 1 + max((max(s) for s in simplices if s), default=-1)
    # The type pass above is the only one: the complex is checked past it.
    return _validated(num_vertices, list(map(tuple, simplices)), close_faces, coordinates)


def complex_to_doc(complex_):
    doc = {
        "num_vertices": complex_.num_vertices,
        "simplices": [list(s) for s in complex_.simplices],
    }
    if complex_.coordinates is not None:
        doc["vertices"] = [[rational_str(c) for c in p] for p in complex_.coordinates]
        if complex_.coordinates:
            doc["ambient_dim"] = len(complex_.coordinates[0])
    return doc


def _resolve_complex(value, base_dir, close_faces=False):
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir or ".", value)
        return load_complex(path, close_faces=close_faces)
    return complex_from_doc(value, close_faces=close_faces)


def map_from_doc(doc, base_dir=None, close_faces=False):
    _check_fields(doc, "map", required=("domain", "codomain", "vertex_images"))
    domain = _resolve_complex(doc["domain"], base_dir, close_faces)
    codomain = _resolve_complex(doc["codomain"], base_dir, close_faces)
    images = doc["vertex_images"]
    if not isinstance(images, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in images
    ):
        raise FormatError("'vertex_images' must be a list of integers")
    return SimplicialMap(domain, codomain, images)


def map_to_doc(f):
    return {
        "domain": complex_to_doc(f.domain),
        "codomain": complex_to_doc(f.codomain),
        "vertex_images": list(f.vertex_images),
    }


def function_from_doc(doc, base_dir=None, close_faces=False):
    _check_fields(doc, "function", required=("complex", "values"))
    complex_ = _resolve_complex(doc["complex"], base_dir, close_faces)
    if not isinstance(doc["values"], list):
        raise FormatError("'values' must be a list of rationals")
    values = [parse_rational(v) for v in doc["values"]]
    return PLFunction(complex_, values)


def function_to_doc(g):
    return {
        "complex": complex_to_doc(g.complex),
        "values": [rational_str(v) for v in g.values],
    }


def load_complex(path, close_faces=False):
    return complex_from_doc(read_document(path), close_faces=close_faces)


# The report writer.  Its text is that of json.dumps(doc, indent=2,
# sort_keys=True) and a newline, built from whole lines: a list of one
# scalar type is one str.join per batch of items, a listing of non-empty int
# lists one %d template per inner length.  Types are tested with ``type(x)
# is``, so a bool never takes an int path.  An int subclass is written as
# its int, as json writes it; any other type (a float, a Fraction, a set, a
# key that is not a str) is one no report holds, and is refused with
# InvariantError.
_SCALARS = {
    int: int.__repr__,
    str: _encode_str,  # json's own escaper under its default ensure_ascii
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}
_SEQUENCES = frozenset((list, tuple))
# Items of one list joined into one piece: 256 simplices of the product's
# listings take about 20 KiB.  One string or int is never split.
_BATCH = 256


def _refused(what, value):
    return InvariantError(f"a report cannot hold a {what} of type {type(value).__name__}")


def _pieces(value, nl):
    """The text of ``value``, in pieces; its inner lines begin with ``nl``."""
    kind = type(value)
    render = _SCALARS.get(kind)
    if render is not None:
        yield render(value)
    elif kind is dict:
        if not value:
            yield "{}"
            return
        inner = nl + "  "
        try:
            keys = sorted(value)
        except TypeError:  # keys of mixed types: the loop names one
            keys = value
        lead = "{" + inner
        for key in keys:
            if type(key) is not str:
                raise _refused("key", key)
            item = value[key]
            render = _SCALARS.get(type(item))
            if render is None:
                yield lead + _encode_str(key) + ": "
                yield from _pieces(item, inner)
            else:
                yield lead + _encode_str(key) + ": " + render(item)
            lead = "," + inner
        yield nl + "}"
    elif kind in _SEQUENCES:
        if not value:
            yield "[]"
            return
        inner = nl + "  "
        sep = "," + inner
        lead = "[" + inner
        types = set(map(type, value))
        render = _SCALARS.get(next(iter(types))) if len(types) == 1 else None
        if render is not None:
            for start in range(0, len(value), _BATCH):
                yield lead + sep.join(map(render, value[start:start + _BATCH]))
                lead = sep
        elif (
            types <= _SEQUENCES
            and all(value)
            and set(map(type, itertools.chain.from_iterable(value))) == {int}
        ):
            deeper = inner + "  "
            templates = {
                k: "[" + deeper + ("," + deeper).join(["%d"] * k) + inner + "]"
                for k in set(map(len, value))
            }
            for start in range(0, len(value), _BATCH):
                batch = value[start:start + _BATCH]
                yield lead + sep.join([templates[len(s)] % tuple(s) for s in batch])
                lead = sep
        else:
            for item in value:
                render = _SCALARS.get(type(item))
                if render is None:
                    yield lead
                    yield from _pieces(item, inner)
                else:
                    yield lead + render(item)
                lead = sep
        yield nl + "]"
    elif isinstance(value, int):  # a caller's vertex ids may subclass int
        yield int.__repr__(value)
    else:
        raise _refused("value", value)


def dumps_report(doc):
    """Canonical report serialization: sorted keys, two-space indent."""
    return "".join(itertools.chain(_pieces(doc, "\n"), ("\n",)))


def dump_report(doc, fh):
    """Write ``dumps_report(doc)`` to ``fh`` piece by piece, never whole."""
    for piece in _pieces(doc, "\n"):
        fh.write(piece)
    fh.write("\n")


def reeb_complex_to_doc(space):
    """The strata of a Reeb space; the realization is serialized on request
    with ``complex_to_doc(space.realization)``."""
    return {
        "strata": [
            {"tau": list(s.tau), "component": s.component} for s in space.strata
        ],
    }


def reeb_graph_to_doc(graph):
    bv = graph.betti()
    return {
        "nodes": [
            {"id": n.id, "value": rational_str(n.value), "component": n.component}
            for n in graph.nodes
        ],
        "edges": [list(e) for e in graph.edges],
        "betti": bv.as_list(),
        "total": bv.total,
    }


def reeb_graph_to_dot(graph):
    """DOT rendering with stable node ids n0, n1, ...; each kind of line is
    formatted by one ``map`` over its rows."""
    ids = map(attrgetter("id"), graph.nodes)
    values = map(rational_str, map(attrgetter("value"), graph.nodes))
    lines = ["graph reeb {"]
    lines += map('  n%s [label="value=%s"];'.__mod__, zip(ids, values))
    lines += map("  n%s -- n%s;".__mod__, graph.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
