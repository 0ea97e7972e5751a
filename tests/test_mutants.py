"""A standing mutant table.

Each row names one function of the package, a piece of its source and the
mutant text that replaces it, and the cheapest check that kills the mutant:
the check passes on the package as it is and fails with the mutant
installed.  The mutant is the function's own source with that one piece
replaced, compiled under a name outside ``src/`` (so the line tracer never
counts it) and installed in the function's ``__code__`` with monkeypatch, so
every caller, recursion included, runs it until the test ends.  A row whose
piece no longer occurs once in its function fails here, so a change that
rewrites a mutated function ports its row.
"""

import gc
import inspect
import json
import textwrap

import pytest

from reebforge import NotSimplicialError, complexes, errors, fiberprod, homology, io, reeb
from reebforge.fixtures import boundary_delta3, disk_collapse

from . import test_complexes, test_errors, test_fiberprod, test_homology, test_reeb, test_records


def install_mutant(monkeypatch, func, piece, mutant):
    """Run ``func`` with ``piece`` of its source, which must occur exactly
    once, replaced by ``mutant``.  For a function under ``_collector_paused``
    pass its ``__wrapped__``; the wrapper itself gives the wrapper's code."""
    code = func.__code__
    source = textwrap.dedent("".join(inspect.getsourcelines(code)[0]))
    assert source.count(piece) == 1, f"{piece!r} does not occur once in {code.co_name}"
    source = source.replace(piece, mutant)
    source = source[source.index("def "):]  # decorators were applied once already
    if code.co_freevars:  # a closure's free variables: an enclosing function's locals
        source = (
            "def enclosing():\n"
            + "".join(f"    {name} = None\n" for name in code.co_freevars)
            + textwrap.indent(source, "    ")
            + f"    return {code.co_name}\n"
            + f"{code.co_name} = enclosing()\n"
        )
    namespace = {}
    exec(compile(source, f"<mutant of {code.co_name}>", "exec"), namespace)
    mutated = namespace[code.co_name].__code__
    assert mutated.co_freevars == code.co_freevars
    monkeypatch.setattr(func, "__code__", mutated)


def collector_on_after_a_paused_call():
    assert gc.isenabled()
    homology.betti(boundary_delta3())
    assert gc.isenabled()


def writer_sorts_keys():
    doc = {"b": [1, 2], "a": {"d": "x", "c": True}}
    assert io.dumps_report(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# (id, function, piece, mutant, check, the exception the check raises under it)
ROWS = [
    (
        "collapse_lifo",  # keeps 7,211 of the product domain's 13,729 cells
        homology.collapse_face_poset,
        "for i in free:  # grows as it is walked: first in, first out",
        "while free:\n        i = free.pop()",
        lambda: test_homology.test_collapse_keeps_the_pinned_cell_counts("product_domain"),
        AssertionError,
    ),
    (
        "relabel_keeps_first_part",  # PR 28
        reeb.reeb_graph.__wrapped__,
        "for part in component_classes(survivors, cofaces, parent):",
        "for part in component_classes(survivors, cofaces, parent)[:1]:",
        test_reeb.test_reeb_graph_of_circle_height_is_a_four_cycle,
        KeyError,
    ),
    (
        "collector_never_restored",  # PR 44
        homology.betti,
        "gc.enable()",
        "pass",
        collector_on_after_a_paused_call,
        AssertionError,
    ),
    (
        "fractions_isinstance",  # PR 42
        errors._fractions,
        "v if type(v) is Fraction else",
        "v if isinstance(v, Fraction) else",
        lambda: test_errors.test_fractions_convert_ints_and_subclasses_to_exact_fractions(
            [test_errors._Tagged(1, 2)]
        ),
        AssertionError,
    ),
    (
        "writer_unsorted_keys",  # PR 39
        io._pieces,
        "keys = sorted(value)",
        "keys = list(value)",
        writer_sorts_keys,
        AssertionError,
    ),
    (
        "rational_str_plain",
        io.rational_str,
        "str(value if type(value) is Fraction else Fraction(value))",
        "str(value)",
        lambda: test_errors.test_rational_str_writes_the_exact_fraction(True),
        AssertionError,
    ),
    (
        "b1_vertices_every_simplex",
        reeb.b1_inequality_check.__wrapped__,
        "[dims[i] for i in cls].count(0)",
        "len(cls)",
        test_reeb.test_b1_inequality_examples,
        AssertionError,
    ),
    (
        "staircase_walks_without_diagonal",
        complexes._staircase_walks,
        ", (i - 1, j - 1))",
        ")",
        lambda: test_complexes.test_staircase_product_lists_what_the_closure_of_its_tops_lists(
            "circle_path"
        ),
        AssertionError,
    ),
    (
        "staircase_positions_unsorted",
        complexes.staircase_product,
        "sorted([pos[v] for v in s])",
        "[pos[v] for v in s]",
        lambda: test_complexes.test_staircase_product_builds_the_checked_closure(
            lambda: complexes.staircase_product(*(disk_collapse(2).domain,) * 2,
                                                *(disk_collapse(2),) * 2)
        ),
        NotSimplicialError,  # the checked rebuild of the product map sees a descending chain
    ),
    (
        "no_union_for_a_swap",
        reeb.reeb_space.__wrapped__,
        "parent[b] = a\n",
        "pass\n",
        lambda: test_complexes.test_kunneth_relations_hold_on_staircase_products("random0"),
        AssertionError,
    ),
    (
        "empty_edge_run",
        complexes._edge_checked_map,
        ": bisect.bisect_right(simps, 2, key=len)]",
        ": bisect.bisect_left(simps, 2, key=len)]",
        test_complexes.test_edge_check_names_the_edge_and_its_images,
        pytest.fail.Exception,  # the edge's InvariantError is never raised
    ),
    (
        "entering_ascending",  # a face joins a coface whose heap is not made yet
        reeb.reeb_graph.__wrapped__,
        "for s in reversed(starts[i]):",
        "for s in starts[i]:",
        test_reeb.test_reeb_graph_of_circle_height_is_a_four_cycle,
        KeyError,
    ),
    (
        "quotient_keys_always_appended",  # PR 35
        fiberprod._quotient_group_sizes,
        "key if key[-1] == top else key + (top,)",
        "key + (top,)",
        lambda: test_fiberprod.test_quotient_group_sizes_equal_the_sorted_key_reference(
            lambda: disk_collapse(2)
        ),
        AssertionError,
    ),
    (
        "nodes_as_tuples",  # PR 44
        reeb.reeb_graph.__wrapped__,
        "repeat(ReebNode)",
        "repeat(tuple)",
        lambda: test_records.test_record_keeps_its_fields_and_repr("ReebNode"),
        AssertionError,
    ),
]


@pytest.mark.parametrize("func, piece, mutant, check, killed_by", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_the_check_passes_and_kills_the_mutant(monkeypatch, func, piece, mutant, check, killed_by):
    check()
    install_mutant(monkeypatch, func, piece, mutant)
    collector_was_on = gc.isenabled()
    try:
        with pytest.raises(killed_by):
            check()
    finally:
        if collector_was_on:
            gc.enable()
