"""Command-line interface.

Exit codes: 0 all computations and checks succeeded, 1 input or verification
failure, 2 usage error, 3 cell-cap budget exceeded, 4 an internal invariant
failed (a bug in reebforge, not in the input).  Identical inputs and flags
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fixtures as fixtures_mod
from .bounds import (
    bound_closed,
    bound_general,
    bound_reeb,
    bound_report,
    bound_sign_components,
)
from .complexes import _chain_count
from .errors import (
    BudgetExceededError,
    InvariantError,
    ReebForgeError,
    _collector_paused,
    _refuse_past_cap,
    _require_at_least,
    resolve_cell_cap,
)
from .fiberprod import descent_check, fiber_power_betti
from .homology import betti_report
from .io import (
    complex_to_doc,
    dump_report,
    dumps_report,
    function_from_doc,
    function_to_doc,
    load_complex,
    map_from_doc,
    map_to_doc,
    read_document,
    reeb_complex_to_doc,
    reeb_graph_to_doc,
    reeb_graph_to_dot,
)
from .reeb import (
    _slice_strata,
    b1_inequality_check,
    pl_as_simplicial_map,
    reeb_graph,
    reeb_space,
    verify_quotient,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_map_or_function(path, close_faces):
    """(map, None) for a map file, which carries 'vertex_images'; (None, g)
    for a function file, which carries 'values'."""
    doc = read_document(path)
    base = os.path.dirname(path)
    if isinstance(doc, dict) and "vertex_images" in doc:
        return map_from_doc(doc, base_dir=base, close_faces=close_faces), None
    if isinstance(doc, dict) and "values" in doc:
        g = function_from_doc(doc, base_dir=base, close_faces=close_faces)
        return None, g
    raise ReebForgeError(f"{path} is neither a map file nor a function file")


def _as_map(f, g):
    """The loaded map f, or else the simplicial map slicing the function g."""
    return pl_as_simplicial_map(g).map if f is None else f


def cmd_betti(args):
    complex_ = load_complex(args.file, close_faces=args.close_faces)
    _write_output(dumps_report(betti_report(complex_)), args.output)
    return EXIT_OK


def cmd_reeb(args):
    if args.dot and not args.graph:
        raise ReebForgeError("--dot renders Reeb graphs; combine it with --graph")
    if args.emit_realization and args.graph:
        raise ReebForgeError(
            "--emit-realization inlines a Reeb space's realization; combine it with --space"
        )
    # The API's own check, run before the file is read.
    cap = resolve_cell_cap(args.cell_cap) if args.emit_realization else None
    f, g = _load_map_or_function(args.file, args.close_faces)
    if args.graph:
        if g is None:
            raise ReebForgeError("--graph needs a PL function file")
        graph = reeb_graph(g)
        if args.dot:
            _write_output(reeb_graph_to_dot(graph), args.output)
        else:
            _write_output(dumps_report(reeb_graph_to_doc(graph)), args.output)
        return EXIT_OK
    if g is not None and not args.emit_realization:
        # The slice's strata, counted off the Reeb graph (reeb module docstring).
        space = _slice_strata(g)
    else:
        space = reeb_space(_as_map(f, g))
    bv = space.betti()
    report = {
        "betti": bv.as_list(),
        "total": bv.total,
        "euler": bv.euler,
        "num_strata": len(space.strata),
        **reeb_complex_to_doc(space),
    }
    if args.emit_realization:
        _refuse_past_cap(
            _chain_count(space.facets), cap, "simplices of the realization", "realization"
        )
        report["realization"] = complex_to_doc(space.realization)
    _write_output(dumps_report(report), args.output)
    return EXIT_OK


def cmd_fiber_power(args):
    # The API's own checks, run before the file is read; the API repeats them.
    _require_at_least("p", args.p, 0)
    resolve_cell_cap(args.cell_cap)
    f = _as_map(*_load_map_or_function(args.file, args.close_faces))
    bv = fiber_power_betti(f, args.p, engine=args.engine, cell_cap=args.cell_cap)
    report = {
        "p": args.p,
        "engine": args.engine,
        "betti": bv.as_list(),
        "total": bv.total,
    }
    _write_output(dumps_report(report), args.output)
    return EXIT_OK


def cmd_verify(args):
    if args.descent is None and not (args.b1 or args.quotient):
        raise ReebForgeError("choose at least one of --descent, --b1, --quotient")
    # The API's own checks, run before the file is read; the API repeats them.
    # The cap is resolved only for the checks that take one.
    if args.descent is not None:
        _require_at_least("p_max", args.descent, 0)
    if args.descent is not None or args.quotient:
        resolve_cell_cap(args.cell_cap)
    f = _as_map(*_load_map_or_function(args.file, args.close_faces))
    checks = {}
    if args.descent is not None:
        checks["descent"] = descent_check(
            f, target=args.target, p_max=args.descent, cell_cap=args.cell_cap
        )
    if args.b1:
        checks["b1"] = b1_inequality_check(f)
    if args.quotient:
        checks["quotient"] = verify_quotient(f, cell_cap=args.cell_cap)
    ok = all(section["ok"] for section in checks.values())
    report = {"checks": checks, "ok": ok}
    _write_output(dumps_report(report), args.output)
    return EXIT_OK if ok else EXIT_FAIL


# Bound name -> (name of its evaluator in this module, parameter names).
# The evaluator is looked up in the module globals when the command runs,
# so that a wrapped or replaced evaluator is the one called.
_BOUNDS = {
    "closed": ("bound_closed", ("s", "d", "k")),
    "general": ("bound_general", ("s", "d", "k")),
    "sign-components": ("bound_sign_components", ("s", "d", "k")),
    "reeb": ("bound_reeb", ("s", "d", "n", "m", "c")),
}


def cmd_bounds(args):
    evaluator, names = _BOUNDS[args.name]
    params = {key: getattr(args, key) for key in names}
    report = bound_report(args.name, globals()[evaluator](*params.values()), **params)
    _write_output(dumps_report(report), args.output)
    return EXIT_OK


def cmd_fixtures(args):
    if args.action == "list":
        listing = {
            name: {k: list(v) for k, v in params.items()}
            for name, params in fixtures_mod.FIXTURE_PARAMS.items()
        }
        _write_output(dumps_report({"fixtures": listing}), None)
        return EXIT_OK
    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise ReebForgeError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            raise ReebForgeError(f"parameter {key!r} needs an integer, got {value!r}") from None
    spec = fixtures_mod.FixtureSpec(args.name, params)
    artifacts = fixtures_mod.build_fixture(spec)
    os.makedirs(args.output, exist_ok=True)
    written = []
    for kind, to_doc in (("map", map_to_doc), ("function", function_to_doc)):
        if kind in artifacts:
            path = os.path.join(args.output, f"{args.name}.{kind}.json")
            # Popped, so that the fixture, facet tables and all, is freed
            # before its document is serialized; streamed, so that the
            # serialized text is never held whole.
            with open(path, "w", encoding="utf-8") as fh:
                dump_report(to_doc(artifacts.pop(kind)), fh)
            written.append(path)
    _write_output(dumps_report({"written": written}), None)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="reebforge",
        description="Exact Reeb graphs/spaces of simplicial maps, Betti numbers, "
        "descent checks, and quantitative bound evaluators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", help="write the report to this path instead of stdout")
        p.add_argument(
            "--close-faces",
            action="store_true",
            help="complete missing faces of input simplices instead of rejecting them",
        )

    p = sub.add_parser("betti", help="Betti numbers of a complex file")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("reeb", help="Reeb graph or Reeb space of a map/function file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", action="store_true", help="Reeb graph of a PL function")
    group.add_argument("--space", action="store_true", help="Reeb space of a simplicial map")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a report (--graph only)")
    p.add_argument("--emit-realization", action="store_true", help="inline the realization complex")
    p.add_argument("--cell-cap", type=int, default=None, help="cap on the realization's simplices")
    add_common(p)

    p = sub.add_parser("fiber-power", help="Betti numbers of an iterated fiber power")
    p.add_argument("file")
    p.add_argument("-p", type=int, required=True, help="fold count minus one (p >= 0)")
    p.add_argument("--engine", choices=("auto", "cells"), default="auto")
    p.add_argument("--cell-cap", type=int, default=None)
    add_common(p)

    p = sub.add_parser("verify", help="run verification checks on a map file")
    p.add_argument("file")
    p.add_argument("--descent", type=int, default=None, metavar="P_MAX")
    p.add_argument("--b1", action="store_true")
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--target", choices=("image", "reeb"), default="image")
    p.add_argument("--cell-cap", type=int, default=None)
    add_common(p)

    p = sub.add_parser("bounds", help="evaluate a quantitative bound exactly")
    p.add_argument("name", choices=tuple(_BOUNDS))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("-c", type=int, default=1, help="exponent constant for the reeb bound")
    p.add_argument("-o", "--output", help="write the report to this path instead of stdout")

    p = sub.add_parser("fixtures", help="list fixtures or emit one as files")
    fsub = p.add_subparsers(dest="action", required=True)
    fsub.add_parser("list")
    pe = fsub.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("--param", action="append", metavar="KEY=VALUE")
    pe.add_argument("-o", "--output", required=True, help="directory for the emitted files")

    return parser


@_collector_paused
def main(argv=None):
    # The command, parse included, runs with the cyclic garbage collector
    # paused; the caller's setting is restored on every exit path.
    try:
        args = build_parser().parse_args(argv)
        # Found by name when it runs, as the tracer swaps module attributes:
        # a wrapped or replaced command is the one called.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BudgetExceededError as exc:
        print(f"reebforge: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"reebforge: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ReebForgeError, OSError) as exc:
        print(f"reebforge: error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
