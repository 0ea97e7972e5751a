"""The budget policy: one refusal routine, one cell cap and one check of
numeric parameters, all in ``reebforge.errors``."""

import pytest

from reebforge import (
    BudgetExceededError,
    InvalidParamsError,
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
from reebforge.fixtures import boundary_delta3, disk_collapse, random_map
from reebforge.io import dump_report, map_to_doc


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
