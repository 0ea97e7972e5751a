"""Deterministic generators for test maps and seeded random instances."""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction

from .complexes import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    staircase_product,
)
from .errors import (
    InvalidParamsError,
    InvariantError,
    UnsupportedDimensionError,
    _require_at_least,
    _require_ints,
)
from .reeb import pl_as_simplicial_map


def path_complex(n):
    """A path on n vertices."""
    _require_ints("n", (n,))
    simplices = [(i,) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    return SimplicialComplex(n, simplices)


def circle(n=3):
    """An n-gon circle."""
    _require_ints("n", (n,))
    if n < 3:
        raise InvalidParamsError("a circle needs at least 3 vertices")
    simplices = [(i,) for i in range(n)] + [
        tuple(sorted((i, (i + 1) % n))) for i in range(n)
    ]
    return SimplicialComplex(n, simplices)


def full_simplex(dim):
    """The full simplex on dim+1 vertices, with all faces.

    ``combinations`` lists each size lexicographically, so the listing is
    canonical as written and is built through ``_from_canonical``.
    """
    _require_at_least("dim", dim, 0)
    vertices = range(dim + 1)
    listing = [s for k in range(1, dim + 2) for s in itertools.combinations(vertices, k)]
    return SimplicialComplex._from_canonical(dim + 1, listing, ordered=True)


def boundary_delta3():
    """The boundary of the tetrahedron: a triangulated 2-sphere, the
    2-skeleton of ``full_simplex(3)``."""
    return full_simplex(3).skeleton(2)


def grid_torus(m, n):
    """Torus as an m x n periodic grid with consistent diagonals.

    Vertex (i, j) is i * n + j, and each grid square is cut along its
    (i + 1, j)-(i, j + 1) diagonal.  The listing is written closed: the
    m * n vertices, the 3 * m * n horizontal, vertical and diagonal edges
    and the 2 * m * n triangles.  Each edge is oriented as it is written,
    only the triangles that wrap around the torus are sorted one by one,
    and each size is sorted once, so the listing is canonical and is built
    through ``_from_canonical`` with no re-check.  ``tests/oracles.py``
    keeps the checked build, which closes the triangles' faces.
    """
    _require_ints("grid torus side", (m, n))
    if m < 3 or n < 3:
        raise InvalidParamsError("grid torus needs m, n >= 3")
    rows = ((i * n, (i + 1) % m * n) for i in range(m))
    squares = [(r + j, r + (j + 1) % n, s + j, s + (j + 1) % n) for r, s in rows for j in range(n)]
    edges = [(x, y) if x < y else (y, x)
             for a, b, c, _ in squares for x, y in ((a, b), (a, c), (b, c))]
    edges.sort()
    triangles = [t if t[0] < t[1] < t[2] else tuple(sorted(t))
                 for a, b, c, d in squares for t in ((a, b, c), (b, c, d))]
    triangles.sort()
    listing = [(v,) for v in range(m * n)] + edges + triangles
    return SimplicialComplex._from_canonical(m * n, listing, ordered=True)


def disk_collapse(n):
    """The disk-to-sphere boundary collapse, as an explicit simplicial map.

    n=1: a 4-vertex path wrapped once around the triangle circle, both
    endpoints landing on the same vertex.  n=2: the domain is the barycentric
    subdivision of the tetrahedral sphere with the open star of one original
    vertex w removed (a triangulated disk bounded by the hexagonal link of
    w); each barycenter goes to w when its carrier simplex contains w and to
    the least carrier vertex otherwise, so the whole boundary hexagon lands
    on w and the map realizes the quotient collapsing the disk boundary.
    """
    _require_ints("n", (n,))
    if n == 1:
        path = path_complex(4)
        return SimplicialMap(path, circle(3), [0, 1, 2, 0])
    if n == 2:
        sphere = boundary_delta3()
        w = 3
        sd, carrier = barycentric_subdivision(sphere)
        keep = [i for i, s in enumerate(carrier) if s != (w,)]
        disk, _ = sd.restrict_to_vertices(keep)
        kept_carrier = [carrier[i] for i in keep]
        images = [w if w in s else s[0] for s in kept_carrier]
        return SimplicialMap(disk, sphere, images)
    raise UnsupportedDimensionError(f"disk_collapse supports n in {{1, 2}}, got {n}")


def product_power(f, k):
    """The k-fold staircase product map f x ... x f."""
    _require_ints("k", (k,))
    if k < 1:
        raise InvalidParamsError("k must be >= 1")
    result = f
    for _ in range(k - 1):
        result = staircase_product(result.domain, f.domain, result, f).product_map
    return result


def torus_height():
    """A vertically standing grid torus with an exact height function.

    Returns (height, sliced_map): the PL height and its simplicial-map form
    onto the subdivided segment of its sorted values.  The height traces
    z = (R + r cos phi) sin theta on an 8 x 3 grid with a tiny symmetry-
    breaking perturbation, so the sweep sees the classic one-loop Reeb graph.
    The values are distinct: each is a multiple of 1000 plus its vertex
    index i * n + j, and the 24 indices leave 24 remainders mod 1000.
    """
    m, n = 8, 3
    torus = grid_torus(m, n)
    swing = [0, 3, 4, 3, 0, -3, -4, -3]
    tube = [2, -1, -1]
    values = []
    for i in range(m):
        for j in range(n):
            values.append(Fraction((8 + tube[j]) * swing[i] * 1000 + (i * n + j)))
    height = PLFunction(torus, values)
    return height, pl_as_simplicial_map(height).map


_CODOMAINS = {
    "point": lambda: SimplicialComplex(1, [(0,)]),
    "segment": lambda: path_complex(2),
    "circle": lambda: circle(3),
    "triangle": lambda: full_simplex(2),
    "sphere": lambda: boundary_delta3(),
}


def random_map(seed, size=12):
    """Reproducible random connected 2-complex with a simplicial map.

    The domain is grown as a walk on the codomain (so the vertex images make
    every backbone edge simplicial and the domain connected), then decorated
    with image-compatible chords and triangles.  The listing is closed and
    canonical by construction (every vertex, sorted backbone and chord
    pairs, each triangle with its three edges), so the domain is built
    through ``_from_canonical`` with no re-check; ``tests/oracles.py`` keeps
    the checked build.  The map itself is checked.  A negative seed is
    refused: ``random.Random`` seeds from its absolute value.
    """
    _require_at_least("seed", seed, 0)
    _require_ints("size", (size,))
    if size < 6 or size > 64:
        raise InvalidParamsError("size must be between 6 and 64")
    rng = random.Random(seed)
    codomain = _CODOMAINS[rng.choice(sorted(_CODOMAINS))]()
    n = rng.randint(6, size)

    cod_vertices = [s[0] for s in codomain.by_dim()[0]]
    images = [rng.choice(cod_vertices)]
    for _ in range(1, n):
        here = images[-1]
        nbrs = [here] + [
            u for u in cod_vertices if u != here and tuple(sorted((here, u))) in codomain.simplex_set
        ]
        images.append(rng.choice(sorted(nbrs)))

    simplices = set((i,) for i in range(n))
    simplices.update((i - 1, i) for i in range(1, n))

    def image_of(ids):
        return tuple(sorted({images[i] for i in ids}))

    # Keep the total simplex count small enough that third fiber powers of a
    # constant map stay under the default cell cap (count**3 cells).
    budget = 40
    for _ in range(n):
        if len(simplices) >= budget:
            break
        i, j = sorted(rng.sample(range(n), 2))
        if image_of((i, j)) in codomain.simplex_set:
            simplices.add((i, j))
    for _ in range(2 * n):
        if len(simplices) + 4 > budget:
            break
        i, j, k = sorted(rng.sample(range(n), 3))
        if image_of((i, j, k)) in codomain.simplex_set:
            simplices.add((i, j, k))
            simplices.update(((i, j), (i, k), (j, k)))
    domain = SimplicialComplex._from_canonical(n, simplices)
    return SimplicialMap(domain, codomain, images)


def random_function(seed, size=12):
    """Reproducible random 2-complex with distinct integer vertex values."""
    domain = random_map(seed, size=size).domain  # checks seed and size
    rng = random.Random(seed ^ 0x5EED)
    values = list(range(domain.num_vertices))
    rng.shuffle(values)
    return PLFunction(domain, [Fraction(v) for v in values])


class FixtureSpec(namedtuple("FixtureSpec", "name parameters")):
    """A named fixture with integer parameters; each spec gets its own
    empty ``parameters`` when none are given."""

    __slots__ = ()

    def __new__(cls, name, parameters=None):
        return super().__new__(cls, name, {} if parameters is None else parameters)


FIXTURE_PARAMS = {
    "disk_collapse": {"n": (1, 2)},
    "product_power": {"n": (1, 2), "k": (1, 4)},
    "torus_height": {},
    "random_map": {"seed": (0, 2**32), "size": (6, 64)},
}

# Staircase powers of the 2-disk collapse grow by a factor of ~300 per k;
# k >= 3 is only reasonable over the 1-dimensional base.
MAX_PRODUCT_K = {1: 4, 2: 2}


def build_fixture(spec):
    """Build the artifacts of a fixture spec.

    Returns a dict with a "map" entry and, for function-backed fixtures, a
    "function" entry as well.
    """
    if spec.name not in FIXTURE_PARAMS:
        raise InvalidParamsError(f"unknown fixture {spec.name!r}")
    allowed = FIXTURE_PARAMS[spec.name]
    for key, value in spec.parameters.items():
        if key not in allowed:
            raise InvalidParamsError(f"fixture {spec.name!r} has no parameter {key!r}")
        _require_ints(key, (value,))
        lo, hi = allowed[key]
        if not (lo <= value <= hi):
            raise InvalidParamsError(f"{key}={value} outside {lo}..{hi} for {spec.name!r}")
    params = dict(spec.parameters)
    if spec.name == "disk_collapse":
        return {"map": disk_collapse(params.get("n", 2))}
    if spec.name == "product_power":
        n = params.get("n", 2)
        k = params.get("k", 2)
        if k > MAX_PRODUCT_K[n]:
            raise InvalidParamsError(f"k={k} too large for the n={n} base (max {MAX_PRODUCT_K[n]})")
        return {"map": product_power(disk_collapse(n), k)}
    if spec.name == "torus_height":
        height, sliced = torus_height()
        return {"function": height, "map": sliced}
    if spec.name == "random_map":
        return {"map": random_map(params.get("seed", 0), size=params.get("size", 12))}
    raise InvariantError(f"fixture {spec.name!r} is listed but has no builder")
