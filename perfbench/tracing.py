"""In-process span recorder for the traced benchmark run.

Timing wrappers are installed over public names of the reebforge layer
modules.  A name imported with ``from .x import y`` is bound separately in
every importing module, so each wrapper replaces every binding of the same
function object across the package.  Nothing under ``src/`` changes; the
wrappers are removed again when the traced phase ends.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out by the caller when the run ends.  Counts
(cells, columns, strata, ...) are computed from the arguments and results
at the same boundaries, after the span's end time is taken, so counting is
never billed to the layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time

from reebforge import bounds, cli, complexes, fiberprod, fixtures, homology, io, reeb
from reebforge.errors import BudgetExceededError

# Public functions wrapped per layer module.  Methods are given as
# "Class.method".
TARGETS = {
    complexes: (
        "barycentric_subdivision",
        "connected_components",
        "staircase_product",
        "Poset.order_complex",
    ),
    homology: (
        "betti",
        "betti_report",
        "free_face_collapse",
        "rank_fraction_free",
        "regular_cw_betti",
        "euler_characteristic",
    ),
    fiberprod: ("descent_check", "fiber_power_betti", "fiber_power_nerve", "image_subcomplex"),
    reeb: (
        "reeb_space",
        "reeb_graph",
        "pl_as_simplicial_map",
        "verify_quotient",
        "b1_inequality_check",
        "fiber_components_at",
    ),
    bounds: (
        "bound_closed",
        "bound_general",
        "bound_sign_components",
        "bound_reeb",
        "bound_report",
    ),
    io: (
        "parse_document",
        "complex_from_doc",
        "map_from_doc",
        "function_from_doc",
        "load_complex",
        "dumps_report",
        "complex_to_doc",
        "map_to_doc",
        "function_to_doc",
        "reeb_complex_to_doc",
        "reeb_graph_to_doc",
        "reeb_graph_to_dot",
    ),
    cli: ("cmd_betti", "cmd_reeb", "cmd_fiber_power", "cmd_verify", "cmd_bounds", "cmd_fixtures"),
    fixtures: (
        "random_map",
        "grid_torus",
        "disk_collapse",
        "product_power",
        "torus_height",
        "build_fixture",
    ),
}

IO_PARSE = {
    "io.parse_document",
    "io.complex_from_doc",
    "io.map_from_doc",
    "io.function_from_doc",
    "io.load_complex",
}
IO_DUMP = {
    "io.dumps_report",
    "io.complex_to_doc",
    "io.map_to_doc",
    "io.function_to_doc",
    "io.reeb_complex_to_doc",
    "io.reeb_graph_to_doc",
    "io.reeb_graph_to_dot",
}
BOUND_EVAL = {
    "bounds.bound_closed",
    "bounds.bound_general",
    "bounds.bound_sign_components",
    "bounds.bound_reeb",
}
FIXTURE_GEN = {f"fixtures.{name}" for name in TARGETS[fixtures]}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "ok", "counts", "children")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.ok = True
        self.counts = None
        self.children = []


class Recorder:
    """Collects spans of one traced phase; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._originals = []

    # -- span bookkeeping -------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def finish(self, idx, ok):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.ok = ok
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def op(self, op_id):
        """One benchmark op: its root span carries the op id."""
        self._op = op_id
        idx = self.begin(f"op:{op_id}")
        ok = False
        try:
            yield
            ok = True
        finally:
            self.finish(idx, ok)
            self._op = None

    # -- wrapper installation ---------------------------------------------
    def install(self):
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "reebforge" or name.startswith("reebforge."))
        ]
        for module, names in TARGETS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    wrapped = self._wrap(f"{layer}.{attr}", original)
                    self._originals.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(module, dotted)
                wrapped = self._wrap(f"{layer}.{dotted}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = recorder.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span = recorder.finish(idx, False)
                if isinstance(exc, BudgetExceededError):
                    span.counts = {"overrun": 1}
                raise
            span = recorder.finish(idx, True)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result, span, recorder)
            return result

        return wrapper

    # -- derived numbers ---------------------------------------------------
    def self_time(self, span):
        inner = sum(self.spans[c].end - self.spans[c].start for c in span.children)
        return (span.end - span.start) - inner

    def has_ancestor_in(self, span, names):
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self):
        """Spans as plain lists: name, start, end, parent, op, ok, counts."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.start - t0, s.end - t0, s.parent, s.op, s.ok, s.counts]
            for s in self.spans
        ]


def decimal_digits(value):
    """Exact decimal digit count of an integer, without str() (which is
    limited to 4300 digits by default)."""
    value = abs(int(value))
    if value == 0:
        return 1
    digits = max(1, int(value.bit_length() * math.log10(2)))
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


def cells_enumerated(f, p):
    """Cells the fiber-power cell model enumerates: sum over exact images
    tau of |group_tau| ** (p + 1), computed from the input."""
    groups = {}
    for s in f.domain.simplices:
        img = f.image_simplex(s)
        groups[img] = groups.get(img, 0) + 1
    return sum(n ** (p + 1) for n in groups.values())


def _count_rank(args, result, span, rec):
    cols = args["columns"]
    return {"cols": len(cols), "nnz": sum(len(c) for c in cols), "rank": result}


def _count_collapse(args, result, span, rec):
    return {"in": len(args["simplices"]), "out": len(result)}


def _count_cw(args, result, span, rec):
    return {"cells": len(args["dims"])}


def _count_power(args, result, span, rec):
    nerve_used = any(
        rec.spans[c].name == "fiberprod.fiber_power_nerve" and rec.spans[c].ok
        for c in span.children
    )
    counts = {"p": args["p"]}
    if not nerve_used and args["engine"] in ("auto", "cells"):
        counts["cells_enumerated"] = cells_enumerated(args["f"], args["p"])
    return counts


def _count_reeb_space(args, result, span, rec):
    return {"strata": len(result.strata)}


def _count_order_complex(args, result, span, rec):
    return {"simplices": len(result.simplex_set)}


def _count_sd(args, result, span, rec):
    return {"simplices": len(result[0].simplex_set)}


def _count_reeb_graph(args, result, span, rec):
    return {
        "levels": len({n.level for n in result.nodes}),
        "nodes": len(result.nodes),
        "edges": len(result.edges),
    }


def _count_slice(args, result, span, rec):
    return {"simplices": len(result.map.domain.simplex_set)}


def _count_bytes(args, result, span, rec):
    return {"bytes": len(result.encode("utf-8"))}


def _count_bound(args, result, span, rec):
    return {"digits": decimal_digits(result)}


COUNTERS = {
    "homology.rank_fraction_free": _count_rank,
    "homology.free_face_collapse": _count_collapse,
    "homology.regular_cw_betti": _count_cw,
    "fiberprod.fiber_power_betti": _count_power,
    "reeb.reeb_space": _count_reeb_space,
    "complexes.order_complex": _count_order_complex,
    "complexes.barycentric_subdivision": _count_sd,
    "reeb.reeb_graph": _count_reeb_graph,
    "reeb.pl_as_simplicial_map": _count_slice,
    "io.dumps_report": _count_bytes,
    "io.reeb_graph_to_dot": _count_bytes,
    "bounds.bound_closed": _count_bound,
    "bounds.bound_general": _count_bound,
    "bounds.bound_sign_components": _count_bound,
    "bounds.bound_reeb": _count_bound,
}


def layer_metrics(rec, metric_names):
    """Per-layer metrics of one traced phase, keyed by metric name.

    Every name in ``metric_names`` is present; layers the workload does not
    reach report 0.  Times are seconds, counts are exact integers.
    """
    out = {name: 0 for name in metric_names}

    def add(name, value):
        if name in out:
            out[name] += value

    nerve_ok = 0
    for span in rec.spans:
        if span.end is None:
            continue
        dur = span.end - span.start
        counts = span.counts or {}
        name = span.name
        if name.startswith("op:"):
            add(f"cli.cmd_s.{span.op}", dur)
            continue
        if name == "fiberprod.fiber_power_betti":
            if "p" in counts:
                add(f"fiberprod.power_s.p{counts['p']}", dur)
            add("fiberprod.cells_enumerated", counts.get("cells_enumerated", 0))
        elif name == "fiberprod.fiber_power_nerve":
            add("fiberprod.nerve_calls", 1)
            add("fiberprod.nerve_s", dur)
            add("fiberprod.nerve_overruns", counts.get("overrun", 0))
            nerve_ok += span.ok
        elif name == "homology.regular_cw_betti":
            add("homology.cw_betti_s", rec.self_time(span))
            add("fiberprod.cells_core", counts.get("cells", 0))
        elif name == "homology.rank_fraction_free":
            add("homology.rank_s", dur)
            add("homology.rank_calls", 1)
            add("homology.rank_cols", counts.get("cols", 0))
            add("homology.rank_nnz", counts.get("nnz", 0))
            add("homology.rank_value", counts.get("rank", 0))
        elif name == "homology.betti":
            add("homology.betti_s", rec.self_time(span))
        elif name == "homology.free_face_collapse":
            add("homology.collapse_s", dur)
            add("homology.collapse_in", counts.get("in", 0))
            add("homology.collapse_out", counts.get("out", 0))
        elif name == "reeb.reeb_space":
            add("reeb.reeb_space_s", dur)
            add("reeb.strata", counts.get("strata", 0))
        elif name == "complexes.order_complex":
            add("complexes.order_complex_s", dur)
            add("complexes.order_complex_simplices", counts.get("simplices", 0))
        elif name == "complexes.barycentric_subdivision":
            add("complexes.barycentric_subdivision_s", dur)
            add("complexes.sd_simplices", counts.get("simplices", 0))
        elif name == "reeb.reeb_graph":
            add("reeb.reeb_graph_s", dur)
            if span.op and span.op.startswith("reeb_graph."):
                add(f"reeb.reeb_graph_s.{span.op[len('reeb_graph.'):]}", dur)
            add("reeb.levels", counts.get("levels", 0))
            add("reeb.graph_nodes", counts.get("nodes", 0))
            add("reeb.graph_edges", counts.get("edges", 0))
        elif name == "reeb.pl_as_simplicial_map":
            add("reeb.slice_s", dur)
            add("reeb.slice_simplices", counts.get("simplices", 0))
        # io.* covers the ops only: the set-up's `fixtures emit` report
        # names the work directory, whose path varies between checkouts and
        # processes, and set-up has fixtures.gen_s.
        if span.op != "setup":
            if name in IO_PARSE and not rec.has_ancestor_in(span, IO_PARSE):
                add("io.parse_s", dur)
            if name in IO_DUMP and not rec.has_ancestor_in(span, IO_DUMP):
                add("io.dumps_s", dur)
            if "bytes" in counts:
                add("io.bytes_out", counts["bytes"])
        if name in BOUND_EVAL or name == "bounds.bound_report":
            add("bounds.eval_s", dur)
            add("bounds.value_digits", counts.get("digits", 0))
        if name in FIXTURE_GEN and not rec.has_ancestor_in(span, FIXTURE_GEN):
            add("fixtures.gen_s", dur)

    calls = out.get("fiberprod.nerve_calls", 0)
    if "fiberprod.nerve_useful_ratio" in out:
        out["fiberprod.nerve_useful_ratio"] = nerve_ok / calls if calls else 0
    enumerated = out.get("fiberprod.cells_enumerated", 0)
    if "fiberprod.core_ratio" in out:
        out["fiberprod.core_ratio"] = out["fiberprod.cells_core"] / enumerated if enumerated else 0
    return out
