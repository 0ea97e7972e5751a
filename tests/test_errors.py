"""The budget policy: one refusal routine, one cell cap and one check of
numeric parameters, all in ``reebforge.errors``; and the one path every
rational value takes in (``_fractions``) and out (``io.rational_str``)."""

from decimal import Decimal
from fractions import Fraction

import pytest

from reebforge import (
    BudgetExceededError,
    InvalidParamsError,
    PLFunction,
    SimplicialMap,
    bound_closed,
    bound_general,
    bound_reeb,
    bound_sign_components,
    descent_check,
    fiber_power_betti,
    fiber_power_nerve,
    verify_quotient,
)
from reebforge import errors, fiberprod, reeb
from reebforge.cli import build_parser
from reebforge.errors import DEFAULT_CELL_CAP
from reebforge.fiberprod import _check_cell_cap
from reebforge.fixtures import boundary_delta3, disk_collapse, path_complex, random_map
from reebforge.io import dump_report, map_to_doc, rational_str


def _identity_map():
    k = boundary_delta3()
    return SimplicialMap(k, k, list(range(4)))


def _emit_realization(tmp_path, monkeypatch):
    path = tmp_path / "disk.map.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(map_to_doc(disk_collapse(2)), fh)
    monkeypatch.setenv("REEBFORGE_CELL_CAP", "73")
    args = build_parser().parse_args(["reeb", str(path), "--space", "--emit-realization"])
    args.func(args)


CRITICAL = "components of critical fiber-power cells"

# (id, refusal, message, stage, count, cap): every count-first refusal,
# each called with a scratch directory and the monkeypatch fixture.
REFUSALS = [
    (
        "realization",
        _emit_realization,
        "74 simplices of the realization exceed the cap of 73",
        "realization", 74, 73,
    ),
    (
        "quotient_subdivision",
        lambda *_: verify_quotient(disk_collapse(2), cell_cap=336),
        "337 simplices of the quotient map's sd(X) exceed the cap of 336",
        "quotient subdivision", 337, 336,
    ),
    (
        "reeb_target_sd",
        lambda *_: descent_check(disk_collapse(2), target="reeb", cell_cap=336),
        "337 fiber-power cells exceed the cap of 336",
        "fiber-power cells", 337, 336,
    ),
    (
        "unreduced_count",
        lambda *_: fiber_power_betti(random_map(1), 2, cell_cap=30_000),
        "50653 fiber-power cells exceed the cap of 30000",
        "fiber-power cells", 50_653, 30_000,
    ),
    (
        "unreduced_no_count",
        lambda *_: fiber_power_betti(disk_collapse(2), 10_000_000),
        "fiber-power cells exceed the cap of 200000",
        "fiber-power cells", None, DEFAULT_CELL_CAP,
    ),
    (
        "critical_count",
        lambda *_: descent_check(_identity_map(), p_max=10_000_000),
        "200004 components of critical fiber-power cells exceed the cap of 200000",
        "fiber-power cells", 200_004, DEFAULT_CELL_CAP,
    ),
    (
        # Unreachable through the API, where the unreduced count, never
        # smaller, is refused first; the routine still leaves it out.
        "critical_no_count",
        lambda *_: _check_cell_cap([2], 100, 30_000, 101, CRITICAL),
        "components of critical fiber-power cells exceed the cap of 30000",
        "fiber-power cells", None, 30_000,
    ),
    (
        "nerve_cover_cells",
        lambda *_: fiber_power_nerve(disk_collapse(1), 1, cell_cap=8),
        "9 cover cells exceed the cap of 8",
        "nerve cover", 9, 8,
    ),
    (
        "bound_digits",
        lambda *_: bound_reeb(10, 10, 3, 3, 8),
        "bound digits exceed the cap of 1000000",
        "bound digits", None, 1_000_000,
    ),
]


@pytest.mark.parametrize(
    "refusal, message, stage, count, cap",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_every_count_first_refusal_names_its_stage_count_and_cap(
    refusal, message, stage, count, cap, tmp_path, monkeypatch
):
    with pytest.raises(BudgetExceededError) as info:
        refusal(tmp_path, monkeypatch)
    exc = info.value
    assert (str(exc), exc.stage, exc.count, exc.cap) == (message, stage, count, cap)


def test_the_cell_cap_resolves_in_one_place():
    assert reeb.resolve_cell_cap is fiberprod.resolve_cell_cap is errors.resolve_cell_cap


@pytest.mark.parametrize(
    "evaluate, arity",
    [(bound_closed, 3), (bound_general, 3), (bound_sign_components, 3), (bound_reeb, 5)],
    ids=["closed", "general", "sign_components", "reeb"],
)
def test_bounds_refuse_a_bool_for_every_parameter(evaluate, arity):
    # True == 1, so only the type tells it from a count.
    for place in range(arity):
        params = [2] * arity
        params[place] = True
        with pytest.raises(InvalidParamsError, match="must be an integer, got True"):
            evaluate(*params)


class _Tagged(Fraction):
    """A ``Fraction`` subclass that prints differently, so one kept as it is
    shows in a writer's output."""

    __slots__ = ()

    def __str__(self):
        return "tagged"


def test_fractions_keep_exact_fractions_as_the_same_objects():
    given = [Fraction(1, 3), Fraction(-4, 6), Fraction(5)]
    out = errors._fractions("value", given)
    assert type(out) is tuple
    assert all(a is b for a, b in zip(out, given, strict=True))
    assert errors._fractions("value", ()) == ()


@pytest.mark.parametrize(
    "given",
    [[3, -1, 0], [_Tagged(1, 2)], [Fraction(1, 3), _Tagged(1, 2)], [2, _Tagged(-5, 3), Fraction(7)]],
    ids=["ints", "subclass", "fraction_then_subclass", "int_subclass_fraction"],
)
def test_fractions_convert_ints_and_subclasses_to_exact_fractions(given):
    out = errors._fractions("value", given)
    assert out == tuple(Fraction(v) for v in given)
    assert all(type(v) is Fraction for v in out)


@pytest.mark.parametrize(
    "bad, shown",
    [(1.5, "1.5"), (True, "True"), ("1/2", "'1/2'"), (Decimal("0.5"), "Decimal('0.5')")],
    ids=["float", "bool", "str", "decimal"],
)
@pytest.mark.parametrize("before", [0, 1, 5], ids=["first", "after_one", "after_five"])
def test_fractions_refuse_what_is_not_an_exact_rational_wherever_it_stands(bad, shown, before):
    values = [Fraction(k, 2) for k in range(before)] + [bad, Fraction(1)]
    with pytest.raises(InvalidParamsError) as info:
        errors._fractions("value", values)
    assert str(info.value) == f"value must be a rational, got {shown}"


def test_pl_function_replace_refuses_a_float_after_fractions():
    g = PLFunction(path_complex(3), [Fraction(0), Fraction(1), Fraction(2)])
    with pytest.raises(InvalidParamsError, match=r"^value must be a rational, got 1\.5$"):
        g._replace(values=[Fraction(1), 1.5, Fraction(2)])


@pytest.mark.parametrize(
    "value",
    [0, 7, -12, True, False, Fraction(-3, 4), Fraction(6, 4), Fraction(-8, 4), _Tagged(2, 6), 0.5],
    ids=["zero", "int", "negative_int", "true", "false", "negative", "reduced", "reduced_to_int",
         "subclass", "half_float"],
)
def test_rational_str_writes_the_exact_fraction(value):
    assert rational_str(value) == str(Fraction(value))
