"""Exception types shared across the package, the budget policy, and the
collector policy.

A construction that can blow up (sd(X), the realization, a fiber power,
the nerve's cover, a bound's digits) is counted, before it is built
wherever the count can be had without it, and ``_refuse_past_cap``
refuses a count past its cap with "<count> <what> exceed the cap of
<cap>", naming the stage, the count and the cap.  Only the nerve's two
refusals, its per-vertex estimate and its simplex count, are made inside
a loop and build their own error; no CLI command reaches them, only the
API's ``fiber_power_nerve``.  The cell cap is an explicit cap, else
``REEBFORGE_CELL_CAP``, else ``DEFAULT_CELL_CAP``; it and every other
numeric parameter are checked by ``_require_at_least``, and every integer
that the checked constructors and the fixture generators (``path_complex``,
``circle``, ``full_simplex``, ``grid_torus``, ``disk_collapse``,
``product_power``, ``random_map``, ``random_function`` and
``build_fixture``) take by ``_require_ints``: each takes only an ``int``
that is not a ``bool``.
Every rational, a coordinate, a PL value or a polynomial coefficient, goes
through ``_fractions``, which takes only a ``numbers.Rational`` that is not
a ``bool``.
"""

import functools
import gc
import numbers
import os
from fractions import Fraction

DEFAULT_CELL_CAP = 200_000
CELL_CAP_ENV = "REEBFORGE_CELL_CAP"


class ReebForgeError(Exception):
    """Base class for all reebforge errors."""


class MissingFaceError(ReebForgeError):
    """A listed simplex has a face that is absent and face completion was not requested."""


class VertexOutOfRangeError(ReebForgeError):
    """A simplex references a vertex id outside 0..num_vertices-1."""


class DuplicateSimplexError(ReebForgeError):
    """The same simplex was listed more than once."""


class InvalidSimplexError(ReebForgeError):
    """A simplex is empty or repeats a vertex id."""


class NotSimplicialError(ReebForgeError):
    """A vertex assignment fails to carry some simplex onto a codomain simplex."""

    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"image of simplex {self.simplex} is not a codomain simplex")


class ValueCountMismatchError(ReebForgeError):
    """A vertex-value array does not match the vertex count of its complex."""


class UnknownSimplexError(ReebForgeError):
    """A queried simplex does not belong to the complex."""


class BudgetExceededError(ReebForgeError):
    """A construction grew past its cap: the cell cap, or for a bound's
    value the bound-digit cap (``bounds.MAX_BOUND_DIGITS``).

    ``cap`` is the cap, ``stage`` names the construction that hit it and
    ``count`` is how many cells it would have built; each may be None.
    """

    def __init__(self, message, cap=None, stage=None, count=None):
        self.cap = cap
        self.stage = stage
        self.count = count
        super().__init__(message)


def _refuse_past_cap(count, cap, what, stage):
    """Raise BudgetExceededError when ``count`` of ``what`` passes ``cap``.

    A ``count`` of None is one too large to write out: it is always refused,
    and left out of the message.
    """
    if count is None:
        raise BudgetExceededError(f"{what} exceed the cap of {cap}", cap=cap, stage=stage)
    if count > cap:
        raise BudgetExceededError(
            f"{count} {what} exceed the cap of {cap}", cap=cap, stage=stage, count=count
        )


class InvalidParamsError(ReebForgeError):
    """A parameter is out of range, of the wrong type or unknown: a bound
    parameter, a fold count, a cell cap, a thread count, an engine name, a
    descent target, a fixture parameter, a polynomial coefficient, or an
    input of a checked constructor."""


def _require_ints(name, values):
    """Raise InvalidParamsError naming the first of ``values`` that is not an
    ``int`` or is a ``bool``; one pass over their types settles most calls."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")


def _fractions(name, values):
    """``values`` as Fractions, each given as a ``numbers.Rational`` that is
    not a ``bool``: a float, which ``Fraction`` would take as its binary
    fraction, or a string raises InvalidParamsError.  A ``Fraction`` is
    immutable, so one whose type is exactly ``Fraction`` is kept as it is;
    one pass over the types returns an all-``Fraction`` tuple unchanged."""
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    for value in values:
        if not isinstance(value, numbers.Rational) or isinstance(value, bool):
            raise InvalidParamsError(f"{name} must be a rational, got {value!r}")
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _require_at_least(name, value, low):
    _require_ints(name, (value,))
    if value < low:
        raise InvalidParamsError(f"{name} must be >= {low}, got {value}")


def resolve_cell_cap(cell_cap=None):
    """Explicit cap, else the environment override, else the default.

    The cap must be a positive int; the environment's string is parsed as
    one.  Anything else raises InvalidParamsError.
    """
    if cell_cap is None:
        raw = os.environ.get(CELL_CAP_ENV)
        try:
            cell_cap = int(raw) if raw else DEFAULT_CELL_CAP
        except ValueError:
            raise InvalidParamsError(f"cell cap must be an integer, got {raw!r}") from None
    _require_at_least("cell cap", cell_cap, 1)
    return cell_cap


def _collector_paused(func):
    """``func`` run with the cyclic garbage collector paused, turned back on
    only if it was on before, so a nested call changes nothing.  The
    engine's tables are acyclic and freed by reference counting, so the
    collections their allocations would set off find nothing."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class EmptyComplexError(ReebForgeError):
    """A construction that needs at least one simplex got an empty complex."""


class InvariantError(ReebForgeError):
    """An internal invariant failed; the input is fine, the engine is not."""


class ZeroPolynomialError(ReebForgeError):
    """The zero polynomial was supplied where a nonzero one is required."""


class UnsupportedDimensionError(ReebForgeError):
    """A fixture was requested in a dimension it does not support."""


class FormatError(ReebForgeError):
    """An input document violates the file-format grammar."""
