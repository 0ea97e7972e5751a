"""Exception types shared across the package."""


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
    """A construction grew past the configured cell cap.

    ``cap`` is the cap, ``stage`` names the construction that hit it and
    ``count`` is how many cells it would have built; each may be None.
    """

    def __init__(self, message, cap=None, stage=None, count=None):
        self.cap = cap
        self.stage = stage
        self.count = count
        super().__init__(message)


class InvalidParamsError(ReebForgeError):
    """A parameter is out of range or unknown: a bound parameter, a fold
    count, a cell cap, a thread count, an engine name or a descent target."""


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
