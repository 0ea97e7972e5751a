"""Finite abstract simplicial complexes, simplicial maps, and constructions.

Simplices are stored as sorted tuples of dense integer vertex ids.  The
canonical order on simplices is (dimension, lexicographic), which makes every
derived object deterministic.  Optional vertex coordinates are exact rationals
(fractions.Fraction); nothing in the pipeline ever touches floating point.
"""

from __future__ import annotations

import bisect
import graphlib
import itertools
import operator
from collections import namedtuple
from functools import cached_property

from .errors import (
    DuplicateSimplexError,
    InvalidParamsError,
    InvalidSimplexError,
    InvariantError,
    MissingFaceError,
    NotSimplicialError,
    UnknownSimplexError,
    ValueCountMismatchError,
    VertexOutOfRangeError,
    _fractions,
    _refuse_past_cap,
    _require_ints,
)


def simplex_key(simplex):
    """Canonical sort key: dimension first, then lexicographic."""
    return (len(simplex), simplex)


def canonical_simplex(vertices):
    """Sorted tuple form of a simplex; rejects empty or repeated entries."""
    t = tuple(sorted(vertices))
    if not t:
        raise InvalidSimplexError("empty simplex")
    for a, b in zip(t, t[1:]):
        if a == b:
            raise InvalidSimplexError(f"repeated vertex id {a} in simplex {t}")
    return t


def label_components(members, neighbors, parent):
    """Union-find over ids; returns the sorted roots of the classes.

    Every member is joined to each id in ``neighbors[member]``, and each of
    those must itself be a member.  ``parent`` is an id-indexed array that is
    reset for the members only, so one array can serve many disjoint or
    successive calls.  The smaller root wins each union, so a class's root is
    its smallest id and the sorted roots give the classes in id order.
    Every pointer it leaves on a member goes to that member or to a smaller
    one: the reset, each union and each halving step (union-find as in
    Tarjan, J. ACM 22(2), 1975) all keep ``parent[s] <= s``.  So when the
    members are listed in ascending order, one pass over them,
    ``parent[s] = parent[parent[s]]``, takes each to its root with no find:
    each pointer lands on an earlier member, rooted already.
    Callers that label their members so must list them ascending.
    The path-halving find is inlined, as this loop is hot: it runs in the
    Reeb-graph sweep both the local no-split tests and the relabels of the
    components that may have split.
    """
    for s in members:
        parent[s] = s
    for s in members:
        for c in neighbors[s]:
            a = s
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = c
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    return sorted(s for s in members if parent[s] == s)


def component_classes(members, neighbors, parent):
    """The classes of ``label_components`` as id lists, in class order.

    ``members`` must be ascending: one ascending pass labels them (see
    ``label_components``), and each class lists its members ascending.
    """
    classes = {root: [] for root in label_components(members, neighbors, parent)}
    for s in members:
        root = parent[s] = parent[parent[s]]
        classes[root].append(s)
    return list(classes.values())


class SimplicialComplex:
    """A finite abstract simplicial complex.

    A complex is its canonical listing, ``simplices``: ids are positions in
    it, and ``simplex_set`` is derived from it on demand.
    Immutable after construction: treat all attributes as read-only.
    ``coordinates``, when present, is one rational point per vertex id, all
    with a common ambient dimension.  The constructor is the one checked
    way in: ``validate_complex`` without face closure.
    """

    def __init__(self, num_vertices, simplices, coordinates=None):
        self._fill_checked(num_vertices, _int_listing(num_vertices, simplices), coordinates)

    def _fill_checked(self, num_vertices, listing, coordinates):
        """The constructor past its type pass (``_int_listing``), which the
        caller has made: every check but the types."""
        listing, ordered = _checked_listing(num_vertices, listing)
        self._fill(num_vertices, listing, ordered)
        self.facets  # the face check: a failed facet lookup raises MissingFaceError
        self.coordinates = _rational_points(num_vertices, coordinates)

    @classmethod
    def _from_canonical(cls, num_vertices, simplices, coordinates=None, ordered=False):
        """A complex on simplices already known to be canonical and in range.

        Nothing is re-checked; the caller vouches for the input, and with
        ``ordered`` for its canonical order.  Only the listing is stored,
        sorted once unless ``ordered``; ``simplex_set`` is derived on demand.
        """
        self = cls.__new__(cls)
        self._fill(num_vertices, simplices, ordered)
        self.coordinates = coordinates
        return self

    def _fill(self, num_vertices, simplices, ordered):
        self.num_vertices = num_vertices
        # A lexicographic sort followed by a stable sort on length gives the
        # order of ``simplex_key`` without building a key tuple per simplex.
        if not ordered:
            simplices = sorted(simplices)
            simplices.sort(key=len)
        self.simplices = tuple(simplices)

    @cached_property
    def simplex_set(self):
        """The simplices as a frozenset, derived from the listing on first read."""
        return frozenset(self.simplices)

    @cached_property
    def _by_dim(self):
        return {len(run[0]) - 1: run for run in _runs(self.simplices)}

    def by_dim(self):
        """dict dimension -> canonical list of simplices of that dimension."""
        return self._by_dim

    @property
    def dim(self):
        return len(self.simplices[-1]) - 1 if self.simplices else -1

    @cached_property
    def facets(self):
        """The facet table, laid out as ``ReebComplex.facets``: ``facets[i][u]``
        is the id, a position in ``simplices``, of simplex i minus vertex u.

        It is built one dimension at a time.  The simplices of one size are
        read as columns, and for each omitted vertex u one ``map`` looks up
        the rows of the other columns; the per-u ids are zipped into rows.
        Building it is the face check (facet closure implies face closure by
        induction on dimension): when a lookup fails, the first simplex in
        canonical order that misses a facet raises MissingFaceError, naming
        the first missing facet in ``combinations`` order."""
        index = dict(zip(self.simplices, range(len(self.simplices))))
        get = index.__getitem__
        table = []
        for run in self.by_dim().values():
            if len(run[0]) == 1:
                table += [()] * len(run)
                continue
            cols = list(zip(*run))
            try:
                table += zip(*[
                    map(get, zip(*cols[:u], *cols[u + 1 :])) for u in range(len(cols))
                ])
            except KeyError:
                s, face = next(
                    (s, face)
                    for s in run
                    for face in itertools.combinations(s, len(s) - 1)
                    if face not in index
                )
                raise MissingFaceError(f"face {face} of {s} is missing") from None
        return tuple(table)

    @cached_property
    def cofaces(self):
        """Ids of each simplex's codimension-one cofaces, ascending: ``facets`` inverted."""
        table = [[] for _ in self.facets]
        for i, fs in enumerate(self.facets):
            for g in fs:
                table[g].append(i)
        return tuple(map(tuple, table))

    @cached_property
    def maximal_simplices(self):
        """Simplices that are not proper faces of any other simplex."""
        return tuple(s for s, up in zip(self.simplices, self.cofaces) if not up)

    def simplex_counts(self):
        """Tuple of simplex counts per dimension 0..dim."""
        table = self.by_dim()
        return tuple(len(table.get(d, ())) for d in range(self.dim + 1))

    def skeleton(self, k):
        """Sub-complex of all simplices of dimension <= k.

        Canonical order is dimension first, so its listing is a prefix of
        this one.  A complex is its own k-skeleton once k reaches its
        dimension, and is returned as it is: it is immutable, so sharing it
        (and its cached facet and coface tables) is safe.
        """
        if k >= self.dim:
            return self
        prefix = self.simplices[: bisect.bisect_right(self.simplices, k + 1, key=len)]
        return SimplicialComplex._from_canonical(self.num_vertices, prefix, self.coordinates, ordered=True)

    def restrict_to_vertices(self, keep):
        """Full subcomplex on ``keep`` with dense reindexing.

        Returns (subcomplex, old_to_new dict).  The reindexing keeps vertex
        order, so each simplex and the listing, filtered in order, stay canonical.
        """
        keep = sorted(set(keep))
        old_to_new = {v: i for i, v in enumerate(keep)}
        kept_set = set(keep)
        simplices = [
            tuple(old_to_new[v] for v in s)
            for s in self.simplices
            if kept_set.issuperset(s)
        ]
        coords = None
        if self.coordinates is not None:
            coords = tuple(self.coordinates[v] for v in keep)
        return SimplicialComplex._from_canonical(len(keep), simplices, coords, ordered=True), old_to_new

    def __contains__(self, simplex):
        return tuple(sorted(simplex)) in self.simplex_set

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.num_vertices == other.num_vertices
            and self.simplices == other.simplices
            and self.coordinates == other.coordinates
        )

    def __hash__(self):
        return hash((self.num_vertices, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex(v={self.num_vertices}, simplices={len(self.simplices)}, dim={self.dim})"


def validate_complex(num_vertices, simplices, close_faces=False, coordinates=None):
    """Build a SimplicialComplex from raw input, loudly.

    Without ``close_faces`` this is the checked constructor.  With it, the
    listing gets the same checks and its faces are added, with no face check.
    """
    return _validated(num_vertices, _int_listing(num_vertices, simplices), close_faces, coordinates)


def _validated(num_vertices, listing, close_faces, coordinates):
    """``validate_complex`` past its type pass, which the caller has made:
    ``num_vertices`` and every vertex id are ints and ``listing`` is a list
    of tuples.  A parsed document's own type pass vouches for it."""
    if not close_faces:
        complex_ = SimplicialComplex.__new__(SimplicialComplex)
        complex_._fill_checked(num_vertices, listing, coordinates)
        return complex_
    listing, _ = _checked_listing(num_vertices, listing)
    closed = set(listing)
    for s in listing:
        for k in range(1, len(s)):
            closed.update(itertools.combinations(s, k))
    return SimplicialComplex._from_canonical(
        num_vertices, closed, _rational_points(num_vertices, coordinates)
    )


def _int_listing(num_vertices, simplices):
    """The type pass: the simplices as a list of tuples.  The vertex count
    and every vertex id must be an ``int``, not merely convertible."""
    _require_ints("vertex count", (num_vertices,))
    listing = list(map(tuple, simplices))
    _require_ints("vertex id", list(itertools.chain.from_iterable(listing)))
    return listing


def _checked_listing(num_vertices, listing):
    """(listing, ordered): a listing past its type pass as canonical tuples,
    checked, and whether it came in canonical order, which it then keeps."""
    ordered = _is_canonical_listing(listing)
    if not ordered:
        listing = [canonical_simplex(s) for s in listing]
        seen = set()
        for s in listing:
            if s in seen:
                raise DuplicateSimplexError(f"simplex {s} listed twice")
            seen.add(s)
    for s in listing:
        if s[0] < 0 or s[-1] >= num_vertices:
            raise VertexOutOfRangeError(f"simplex {s} outside 0..{num_vertices - 1}")
    if num_vertices < 0:
        raise VertexOutOfRangeError("negative vertex count")
    return listing, ordered


def _rational_points(num_vertices, coordinates):
    """Coordinates as rational points, one per vertex, of one ambient dimension."""
    if coordinates is None:
        return None
    points = tuple(_fractions("coordinate", point) for point in coordinates)
    if len(points) != num_vertices:
        raise ValueCountMismatchError("one coordinate point per vertex required")
    if len({len(p) for p in points}) > 1:
        raise InvalidSimplexError("coordinate points have mixed ambient dimensions")
    return points


def _runs(simplices):
    """The maximal runs of neighbouring simplices of one size, as lists."""
    return (list(run) for _, run in itertools.groupby(simplices, len))


def _is_canonical_listing(simplices):
    """Whether each simplex is non-empty and strictly ascending, and each
    neighbouring pair strictly increases under ``simplex_key``: then the
    listing is in canonical order and holds no duplicate.  It is read one
    run of equal sizes at a time: the sizes ascend from one, each run
    ascends lexicographically, and each of its columns lies below the next."""
    size = 0
    for run in _runs(simplices):
        if len(run[0]) <= size:
            return False
        size = len(run[0])
        # The run test first: a run that does not ascend is refused before
        # it is transposed.
        if not all(map(operator.lt, run, run[1:])):
            return False
        cols = list(zip(*run))
        if not all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:])):
            return False
    return True


class SimplicialMap:
    """A vertex assignment carrying every simplex of K onto a simplex of L.

    Dimension-collapsing images are allowed; constant maps are legal.
    """

    def __init__(self, domain, codomain, vertex_images):
        self.domain, self.codomain = domain, codomain
        self.vertex_images = tuple(vertex_images)
        _require_ints("vertex image", self.vertex_images)
        if len(self.vertex_images) != domain.num_vertices:
            raise ValueCountMismatchError(
                f"{len(self.vertex_images)} images for {domain.num_vertices} vertices"
            )
        for w in self.vertex_images:
            if w < 0 or w >= codomain.num_vertices:
                raise VertexOutOfRangeError(f"image vertex {w} outside codomain")
        # The error names the first failure in canonical order.
        targets = codomain.simplex_set
        if not targets.issuperset(self.simplex_images):
            raise NotSimplicialError(next(
                s for s, t in zip(domain.simplices, self.simplex_images) if t not in targets
            ))

    @cached_property
    def simplex_images(self):
        """The image table: ``simplex_images[i]`` is the image of domain
        simplex i as a canonical simplex.  Simplex i is its facet
        ``facets[i][0]`` plus its first vertex, so its image is that facet's
        image, the same tuple when the vertex's image is already in it."""
        images = self.vertex_images
        table = []
        for s, fs in zip(self.domain.simplices, self.domain.facets):
            w = images[s[0]]
            if not fs:
                table.append((w,))
                continue
            below = table[fs[0]]
            if w in below:
                table.append(below)
            else:
                k = bisect.bisect_left(below, w)
                table.append(below[:k] + (w,) + below[k:])
        return tuple(table)

    def image_simplex(self, simplex):
        """Image vertex set of a domain simplex, as a canonical simplex."""
        return tuple(sorted({self.vertex_images[v] for v in simplex}))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.vertex_images == other.vertex_images
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.vertex_images))

    def __repr__(self):
        return f"SimplicialMap({self.domain!r} -> {self.codomain!r})"


def _edge_checked_map(domain, codomain, vertex_images):
    """A vertex map the package built into a flag complex, checked edge by edge.

    The edges are the domain's 1-simplices: in canonical order they are one
    run of the listing, right after the vertices, found by bisection on
    size.  The codomain must be flag: a vertex set whose members are pairwise
    joined by edges is a simplex.  Then the map is simplicial exactly when
    every image is a codomain vertex and every domain edge maps onto a vertex
    or an edge.  One way is plain.  For the other, two distinct image
    vertices of a domain simplex are the images of two of its vertices,
    which span one of its edges; so the image is a set of codomain vertices
    pairwise joined by edges, and a simplex since the codomain is flag.  A
    failure is the engine's, not the input's, so it raises InvariantError
    naming the edge and its images.
    """
    f = SimplicialMap.__new__(SimplicialMap)  # built here, with int images; checked below
    f.domain, f.codomain = domain, codomain
    f.vertex_images = images = tuple(vertex_images)
    targets = codomain.simplex_set
    if len(images) != domain.num_vertices:
        raise InvariantError(f"{len(images)} images for {domain.num_vertices} domain vertices")
    for w in set(images):
        if (w,) not in targets:
            raise InvariantError(
                f"domain vertex {images.index(w)} maps to {w}, not a codomain vertex"
            )
    simps = domain.simplices
    for i, j in simps[bisect.bisect_left(simps, 2, key=len) : bisect.bisect_right(simps, 2, key=len)]:
        a, b = images[i], images[j]
        if a != b and ((a, b) if a < b else (b, a)) not in targets:
            raise InvariantError(
                f"domain edge ({i}, {j}) maps to {a} and {b}, not a codomain simplex"
            )
    return f


class PLFunction(namedtuple("PLFunction", "complex values")):
    """A piecewise-linear function given by one rational value per vertex."""

    __slots__ = ()

    def __new__(cls, complex, values):
        values = _fractions("value", values)
        if len(values) != complex.num_vertices:
            raise ValueCountMismatchError(f"{len(values)} values for {complex.num_vertices} vertices")
        return super().__new__(cls, complex, values)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks too
        return cls(*iterable)


def connected_components(complex_, subset):
    """Partition ``subset`` under the equivalence generated by the face relation.

    Two simplices are joined whenever one is a face of the other and both lie
    in the subset; the subset need not be up-closed, so every proper face is
    a neighbour, not only the facets.  Returns the classes as lists in
    canonical order.
    """
    members = sorted({canonical_simplex(s) for s in subset}, key=simplex_key)
    for s in members:
        if s not in complex_.simplex_set:
            raise UnknownSimplexError(f"{s} is not a simplex of the complex")
    index = {s: i for i, s in enumerate(members)}
    faces = [
        [index[f] for k in range(1, len(s)) for f in itertools.combinations(s, k) if f in index]
        for s in members
    ]
    ids = range(len(members))
    return [[members[i] for i in cls] for cls in component_classes(ids, faces, list(ids))]


def barycentric_subdivision(complex_):
    """Barycentric subdivision.

    Returns (sd, carrier) where sd has one vertex per simplex of the input and
    one simplex per chain of the face relation, and ``carrier[i]`` is the
    input simplex behind sd vertex i.
    """
    return _face_order_complex(complex_.facets), complex_.simplices


def _face_order_complex(facets):
    """The order complex of a facet table's face poset, on its ids."""
    return _complex_of_chains(_face_ups(facets))


def _face_ups(facets):
    """Each cell's proper cofaces, ascending, in a facet table whose ids
    ascend along the face order."""
    ups = [[] for _ in facets]
    for i, j in _face_pairs(facets):
        ups[i].append(j)
    return ups


def _face_pairs(facets):
    """(face id, coface id) for each proper face pair of a facet table whose ids
    ascend along the face order: each cell's down-set, its facets' united, is
    yielded ascending, so cofaces come in id order, each after all its faces.
    A down-set is kept, as a sorted list, only until the last cell that
    lists it as a facet, and not at all for a cell with no coface."""
    last = {g: j for j, fs in enumerate(facets) for g in fs}
    below = []
    for j, fs in enumerate(facets):
        down = sorted(set(fs).union(*map(below.__getitem__, fs)))
        for g in fs:
            if last[g] == j:
                below[g] = None
        below.append(down if j in last else None)
        for i in down:
            yield i, j


def _chain_count(facets):
    """The chains of a facet table's face poset, without them: ``ending[j]``
    counts those ending at cell j, j alone or extended from a face's."""
    ending = [1] * len(facets)
    for i, j in _face_pairs(facets):
        ending[j] += ending[i]
    return sum(ending)


def _complex_of_chains(ups):
    """The order complex of a poset on ids 0..n-1, given by its n up-sets.

    ``ups`` is as ``_enumerate_chains`` takes it, and is verified there, so
    every chain is a strictly ascending tuple of ids in range: canonical and
    distinct, and the complex is built without re-sorting any of them; the
    up-sets are transitive, so the chains are closed under faces.  The
    chains come out in canonical order, and the complex is that listing,
    kept as its ``simplices``; no set of them is built unless
    ``simplex_set`` is read.
    """
    return SimplicialComplex._from_canonical(len(ups), _enumerate_chains(ups), ordered=True)


def _check_up_sets(ups):
    """Raise InvariantError unless ``ups`` are the up-sets of a poset on 0..n-1.

    Each ``ups[i]`` must ascend strictly within i+1..n-1, and hold ``ups[j]``
    for each j in it: the relation is transitive, so every subsequence of a
    chain is a chain and the chains are closed under faces.
    """
    n = len(ups)
    for i, up in enumerate(ups):
        prev = i
        for j in up:
            if j <= prev:
                raise InvariantError(f"up-set of {i} is not strictly ascending above {i}: {up}")
            prev = j
        if prev >= n:
            raise InvariantError(f"up-set of {i} names {prev}, outside 0..{n - 1}")
    for i, up in enumerate(ups):
        if up:
            above = set(up)
            for j in up:
                if not above.issuperset(ups[j]):
                    raise InvariantError(
                        f"up-set of {i} holds {j} but not all of its up-set {ups[j]}"
                    )


def _enumerate_chains(ups):
    """All nonempty chains of a poset on ids 0..n-1, n = len(ups), in canonical order.

    ``ups[i]`` must list, in strictly ascending order, every id above i, and
    each must be greater than i and in range (id order is a linear
    extension); anything else raises InvariantError.  Chains come out as
    ascending tuples, each once, one length at a time: each chain of one
    length is extended by every id above its top, in up-set order, so a
    length's chains are lexicographic when the shorter ones are; those of
    length 2 and 3 are built whole, as tuple displays of the 1-chains' and
    up-sets' own int objects.  A cap is the caller's, checked on
    ``_chain_count`` before this runs.
    """
    _check_up_sets(ups)
    chains = [(i,) for i in range(len(ups))]
    level = [(i, j) for (i,), up in zip(chains, ups) for j in up]
    chains += level
    level = [(a, b, j) for a, b in level for j in ups[b]]
    while level:
        chains += level
        level = [c + (j,) for c in level for j in ups[c[-1]]]
    return chains


class Poset(namedtuple("Poset", "elements covers")):
    """A finite poset stored as elements plus covering pairs.

    Covers are (lower, higher) index pairs and are reduced to the transitive
    reduction at construction time.  Indices need not be a linear extension:
    ranked in a topological order, the covers are a facet table whose ids
    ascend along the order, and the chains are counted and built from it as
    sd(K)'s are from K's.
    """

    __slots__ = ()

    def __new__(cls, elements, covers):
        elements = tuple(elements)
        pairs = [tuple(pair) for pair in covers]
        _require_ints("poset relation id", list(itertools.chain.from_iterable(pairs)))
        covers = tuple(sorted(set(pairs)))
        n = len(elements)
        for a, b in covers:
            if a == b:
                raise InvalidSimplexError(f"reflexive relation ({a}, {b})")
            if not (0 <= a < n and 0 <= b < n):
                raise VertexOutOfRangeError(f"relation ({a}, {b}) outside 0..{n - 1}")
        order = _topological_order(n, covers)  # raises on cycles
        reduced = _transitive_reduction(_rank_facets(order, covers))
        return super().__new__(cls, elements, tuple(sorted((order[i], order[j]) for i, j in reduced)))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks too
        return cls(*iterable)

    def order_complex(self, cap=None):
        """The simplicial complex of chains of this poset.

        The chains are counted and enumerated on ranks in a topological
        order of the reduced covers, whose transitive closure is the
        relation's, so ids ascend along them; with a ``cap``, a count past
        it raises BudgetExceededError (stage "chains") before any chain is
        built.  Each chain is renamed back to element ids and sorted again.
        """
        order = _topological_order(len(self.elements), self.covers)
        facets = _rank_facets(order, self.covers)
        if cap is not None:
            _refuse_past_cap(_chain_count(facets), cap, "chains", "chains")
        chains = [tuple(sorted(order[i] for i in c)) for c in _enumerate_chains(_face_ups(facets))]
        return SimplicialComplex._from_canonical(len(order), chains)


def _topological_order(n, edges):
    """The ids 0..n-1, each pair's lower id first; a cycle raises."""
    below = {i: [] for i in range(n)}
    for a, b in edges:
        below[b].append(a)
    try:
        return list(graphlib.TopologicalSorter(below).static_order())
    except graphlib.CycleError:
        raise InvalidSimplexError("relation has a cycle") from None


def _rank_facets(order, covers):
    """The relation ``covers`` as a facet table on ranks in ``order``, a
    topological order of it: ``facets[r]`` lists the ranks of the elements
    below the element of rank r, so ids ascend along the order."""
    rank = {e: r for r, e in enumerate(order)}
    facets = [[] for _ in order]
    for a, b in covers:
        facets[rank[b]].append(rank[a])
    return facets


def _transitive_reduction(facets):
    """The covering pairs (i, j) of a facet table's relation: each facet i
    of j that lies below no other facet of j, read off ``_face_ups``."""
    above = list(map(set, _face_ups(facets)))
    return [(i, j) for j, fs in enumerate(facets) for i in fs if above[i].isdisjoint(fs)]


class StaircaseProduct(
    namedtuple(
        "StaircaseProduct",
        "complex vertex_pairs product_map codomain_pairs",
        defaults=(None, None),
    )
):
    """Result of a staircase triangulation of a product.

    ``vertex_pairs[i]`` is the (vertex-of-K1, vertex-of-K2) pair behind
    product vertex i.  ``product_map`` is the product simplicial map when
    factor maps were supplied, with ``codomain_pairs`` describing its codomain
    vertices.
    """

    __slots__ = ()


def staircase_product(k1, k2, f1=None, f2=None):
    """Staircase (order-complex-of-product-poset) triangulation of |K1| x |K2|.

    Simplices are chains of vertex pairs, monotone in both coordinates with
    respect to total vertex orders, whose coordinate projections are simplices
    of the factors.  When maps ``f1: K1 -> L1`` and ``f2: K2 -> L2`` are given,
    domain vertices are ordered by image, so both maps are monotone by
    construction, and the product map onto the staircase triangulation of
    L1 x L2 is returned.
    """
    if (f1 is None) != (f2 is None):
        raise InvalidParamsError("supply both factor maps or neither")
    if f1 is not None and (f1.domain != k1 or f2.domain != k2):
        raise InvalidParamsError("factor maps must be defined on the factor complexes")

    def _order_for(k, f):
        verts = [s[0] for s in k.by_dim().get(0, ())]
        if f is None:
            return verts
        return sorted(verts, key=lambda v: (f.vertex_images[v], v))

    o1 = _order_for(k1, f1)
    o2 = _order_for(k2, f2)
    pos1 = {v: i for i, v in enumerate(o1)}
    pos2 = {v: i for i, v in enumerate(o2)}

    # The nested loop over o1, then o2, yields the pairs in (pos1, pos2) order.
    pairs = [(u, v) for u in o1 for v in o2]
    pair_id = {p: i for i, p in enumerate(pairs)}

    tops = []
    for sigma in k1.maximal_simplices:
        a = sorted(sigma, key=pos1.__getitem__)
        for tau in k2.maximal_simplices:
            b = sorted(tau, key=pos2.__getitem__)
            for path in _lattice_paths(len(a), len(b)):
                tops.append(tuple(pair_id[(a[i], b[j])] for i, j in path))

    coords = None
    if k1.coordinates is not None and k2.coordinates is not None:
        coords = tuple(k1.coordinates[u] + k2.coordinates[v] for u, v in pairs)
    # Built unchecked: a lattice path steps to pairs of larger id, so each
    # top ascends strictly within range, and its faces, sorted size by size,
    # are the closure in canonical order.  The factors' points are rational
    # and of one dimension each, and so are their concatenations.
    by_size = {}
    for top in tops:
        for k in range(1, len(top) + 1):
            by_size.setdefault(k, set()).update(itertools.combinations(top, k))
    listing = [s for k in sorted(by_size) for s in sorted(by_size[k])]
    product = SimplicialComplex._from_canonical(len(pairs), listing, coords, ordered=True)

    if f1 is None:
        return StaircaseProduct(product, tuple(pairs))

    cod = staircase_product(f1.codomain, f2.codomain)
    cod_id = {p: i for i, p in enumerate(cod.vertex_pairs)}
    images = [
        cod_id[(f1.vertex_images[u], f2.vertex_images[v])] for u, v in pairs
    ]
    prod_map = SimplicialMap(product, cod.complex, images)
    return StaircaseProduct(product, tuple(pairs), prod_map, cod.vertex_pairs)


def _lattice_paths(rows, cols):
    """Monotone unit-step paths through a rows x cols grid of indices, one
    for each choice of the rows - 1 down-steps among the rows + cols - 2."""
    steps = rows + cols - 2
    paths = []
    for down in itertools.combinations(range(steps), rows - 1):
        i = j = 0
        path = [(0, 0)]
        for t in range(steps):
            if t in down:
                i += 1
            else:
                j += 1
            path.append((i, j))
        paths.append(tuple(path))
    return paths
