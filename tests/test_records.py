"""The package's record types: named tuples with the fields, repr,
immutability and constructor checks of the frozen dataclasses they replace,
so that importing reebforge loads neither ``dataclasses`` nor ``typing``."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import reebforge
from reebforge import (
    InvalidParamsError,
    InvalidSimplexError,
    Poset,
    SimplicialComplex,
    ValueCountMismatchError,
)
from reebforge.complexes import PLFunction, StaircaseProduct, staircase_product
from reebforge.fixtures import FixtureSpec
from reebforge.reeb import (
    LevelSliceModel,
    ReebGraph,
    ReebNode,
    Stratum,
    _SliceStrata,
    _slice_strata,
    pl_as_simplicial_map,
    reeb_graph,
)

EDGE = SimplicialComplex(2, [(0,), (1,), (0, 1)])
POINT = SimplicialComplex(1, [(0,)])
STEP = PLFunction(EDGE, [0, 1])

NODES = (
    "(ReebNode(id=0, value=Fraction(0, 1), level=0, component=0), "
    "ReebNode(id=1, value=Fraction(1, 1), level=1, component=0))"
)
GRAPH = f"ReebGraph(nodes={NODES}, edges=((0, 1),), vertex_to_node={{0: 0, 1: 1}})"

# (record type, one small instance, its fields, its repr as the frozen
# dataclasses and typing.NamedTuples before it printed them).
RECORDS = {
    "PLFunction": (
        PLFunction,
        lambda: STEP,
        ("complex", "values"),
        "PLFunction(complex=SimplicialComplex(v=2, simplices=3, dim=1), "
        "values=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    "Poset": (
        Poset,
        lambda: Poset("ab", [(0, 1)]),
        ("elements", "covers"),
        "Poset(elements=('a', 'b'), covers=((0, 1),))",
    ),
    "StaircaseProduct": (
        StaircaseProduct,
        lambda: staircase_product(POINT, POINT),
        ("complex", "vertex_pairs", "product_map", "codomain_pairs"),
        "StaircaseProduct(complex=SimplicialComplex(v=1, simplices=1, dim=0), "
        "vertex_pairs=((0, 0),), product_map=None, codomain_pairs=None)",
    ),
    "Stratum": (
        Stratum,
        lambda: Stratum((0,), 0),
        ("tau", "component"),
        "Stratum(tau=(0,), component=0)",
    ),
    "ReebNode": (
        ReebNode,
        lambda: reeb_graph(STEP).nodes[0],
        ("id", "value", "level", "component"),
        "ReebNode(id=0, value=Fraction(0, 1), level=0, component=0)",
    ),
    "ReebGraph": (
        ReebGraph,
        lambda: reeb_graph(STEP),
        ("nodes", "edges", "vertex_to_node"),
        GRAPH,
    ),
    "_SliceStrata": (
        _SliceStrata,
        lambda: _slice_strata(STEP),
        ("strata", "graph"),
        "_SliceStrata(strata=(Stratum(tau=(0,), component=0), "
        "Stratum(tau=(1,), component=0), Stratum(tau=(2,), component=0), "
        "Stratum(tau=(0, 1), component=0), Stratum(tau=(1, 2), component=0)), "
        f"graph={GRAPH})",
    ),
    "LevelSliceModel": (
        LevelSliceModel,
        lambda: pl_as_simplicial_map(STEP),
        ("map", "codomain_levels"),
        "LevelSliceModel(map=SimplicialMap(SimplicialComplex(v=3, simplices=5, dim=1) "
        "-> SimplicialComplex(v=3, simplices=5, dim=1)), "
        "codomain_levels=(('value', Fraction(0, 1)), "
        "('gap', Fraction(0, 1), Fraction(1, 1)), ('value', Fraction(1, 1))))",
    ),
    "FixtureSpec": (
        FixtureSpec,
        lambda: FixtureSpec("torus_height"),
        ("name", "parameters"),
        "FixtureSpec(name='torus_height', parameters={})",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_keeps_its_fields_and_repr(name):
    cls, make, fields, text = RECORDS[name]
    record = make()
    assert type(record) is cls
    assert cls._fields == fields
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    cls, make, fields, _ = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict: __slots__ = () all the way down


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equals_the_tuple_of_its_fields(name):
    cls, make, fields, _ = RECORDS[name]
    record = make()
    assert record == tuple(getattr(record, field) for field in fields)
    assert cls._make(record) == record


@pytest.mark.parametrize(
    "build",
    [
        lambda values: PLFunction(EDGE, values),
        lambda values: PLFunction._make((EDGE, values)),
        lambda values: STEP._replace(values=values),
    ],
    ids=["new", "make", "replace"],
)
def test_pl_function_checks_its_values_on_every_constructor(build):
    with pytest.raises(ValueCountMismatchError, match="3 values for 2 vertices"):
        build([0, 1, 2])
    with pytest.raises(InvalidParamsError):
        build([0, 1.5])
    g = build([3, Fraction(1, 2)])
    assert g.values == (Fraction(3), Fraction(1, 2))
    assert all(type(v) is Fraction for v in g.values)


def test_poset_checks_and_reduces_on_replace_too():
    p = Poset("abc", [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))
    with pytest.raises(InvalidSimplexError, match="reflexive"):
        p._replace(covers=[(1, 1)])
    assert p._replace(covers=[(0, 2), (0, 1), (1, 2)]) == p


def test_poset_equality_and_hash_are_on_elements_and_covers():
    p = Poset("abc", [(0, 1), (1, 2), (0, 2)])
    q = Poset(["a", "b", "c"], [(1, 2), (0, 1), (0, 1)])
    assert p == q and hash(p) == hash(q)
    assert p == (("a", "b", "c"), ((0, 1), (1, 2)))
    assert p != Poset("abc", [(0, 1)])
    assert len({p, q}) == 1


def test_fixture_specs_do_not_share_a_parameters_dict():
    a, b = FixtureSpec("torus_height"), FixtureSpec("torus_height")
    assert a.parameters == b.parameters == {}
    assert a.parameters is not b.parameters
    given = {"n": 1}
    assert FixtureSpec("disk_collapse", given).parameters is given


def test_importing_the_package_loads_neither_dataclasses_nor_typing():
    # -S keeps site's .pth preloads from loading either module first.
    src = os.path.dirname(os.path.dirname(reebforge.__file__))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reebforge, reebforge.cli; "
        "print(reebforge.__file__); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [reebforge.__file__, "[]"]
