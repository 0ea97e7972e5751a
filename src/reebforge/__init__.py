"""reebforge: exact Reeb graphs and Reeb spaces of simplicial maps.

Everything is computed over exact rationals / arbitrary-precision integers;
no floating point appears anywhere in the pipeline or its outputs.
"""

from .bounds import (
    bound_closed,
    bound_general,
    bound_reeb,
    bound_sign_components,
    count_distinct_real_roots,
    univariate_sign_components,
)
from .complexes import (
    PLFunction,
    Poset,
    SimplicialComplex,
    SimplicialMap,
    StaircaseProduct,
    barycentric_subdivision,
    connected_components,
    staircase_product,
    validate_complex,
)
from .errors import (
    BudgetExceededError,
    DuplicateSimplexError,
    EmptyComplexError,
    FormatError,
    InvalidParamsError,
    InvalidSimplexError,
    InvariantError,
    MissingFaceError,
    NotSimplicialError,
    ReebForgeError,
    UnknownSimplexError,
    UnsupportedDimensionError,
    ValueCountMismatchError,
    VertexOutOfRangeError,
    ZeroPolynomialError,
)
from .fiberprod import (
    descent_check,
    fiber_power_betti,
    fiber_power_nerve,
    image_subcomplex,
)
from .fixtures import (
    FixtureSpec,
    build_fixture,
    disk_collapse,
    product_power,
    random_function,
    random_map,
    torus_height,
)
from .homology import (
    BettiVector,
    betti,
    betti_report,
    euler_characteristic,
    rank_fraction_free,
)
from .reeb import (
    ReebComplex,
    ReebGraph,
    b1_inequality_check,
    fiber_components_at,
    pl_as_simplicial_map,
    reeb_graph,
    reeb_space,
    verify_quotient,
)

__version__ = "0.1.0"
