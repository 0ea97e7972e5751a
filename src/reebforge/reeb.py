"""Exact Reeb graphs and Reeb spaces of simplicial maps.

The Reeb space of a simplicial map f: K -> L is realized combinatorially.
Points of |L| are stratified by the open simplices of L; over a codomain
simplex tau the fiber components of f correspond to the connected components
of S_tau = {sigma in K : tau is contained in f(sigma)} under the face
relation.  The pairs (tau, component), the strata, are the cells of a
Delta-complex structure on the Reeb space (below): its cellular homology
gives the Betti numbers, the order complex of its facet table, built as
sd(K) is from K's, triangulates the Reeb space, and the quotient map is a
genuine simplicial map from sd(K) onto that triangulation.

The components of S_tau are found inside E_tau = {sigma : f(sigma) = tau}.
For sigma in S_tau let sigma|tau be the face spanned by the vertices of
sigma over tau; it is a face of sigma with image exactly tau, so it lies in
E_tau and in sigma's component.  If sigma <= sigma' inside S_tau, then
sigma|tau <= sigma'|tau.  Inside E_tau, rho < rho' is a chain of
image-keeping facets, each dropping a vertex whose image repeats, since
every simplex between rho and rho' has image tau.  So a path in S_tau
restricts to a path in E_tau under the image-keeping facet relation, and
the components of S_tau are those of E_tau, one to one.  An image-keeping
facet lies in its simplex's E_tau, so joining every domain simplex to its
image-keeping facets finds the components of every E_tau at once.  Simplex
ids follow the canonical order, dimension first, in which sigma|tau comes
no later than sigma, so the components keep their order, and each one's
smallest member has one vertex over each vertex of tau: a member of E_tau
stays in its component when a vertex whose image repeats is dropped.  The
stratum below stratum (tau, c) over a facet tau' of tau holds every
member's restriction to tau', the smallest member's facet among them.  So
(tau, c) has one facet d_u over tau minus tau[u], and for u < w both
d_(w-1) d_u and d_u d_w are the stratum over tau minus tau[u] and tau[w]
that holds the restriction of c's smallest member: the face maps commute,
and the strata form a Delta-complex.  The signs (-1)**u orient it with no
propagation, as for a simplicial complex: the two paths to a face of
codimension two carry (-1)**(u+w-1) and (-1)**(u+w), so d d = 0.

Most joins of a simplex to its image-keeping facets are redundant (the swap
rule).  Call a member of E_tau transversal if it has one vertex over each
vertex of tau, and a swap if it has exactly one vertex more.  A swap has
two vertices over one vertex of tau; its image-keeping facets are the two
that drop one of them, and both are transversal.  Two transversal faces of
a member sigma that differ over one vertex of tau, in v and v', are the two
image-keeping facets of their union, a swap face of sigma; exchanging one
vertex at a time, all the transversal faces of sigma are linked through
swap faces of sigma.  So, by induction in canonical order, which lists
every face first: a swap joins its two facets and holds their class; a
larger member sigma, with two or more vertices beyond the transversal ones,
finds its swap faces already joined, so all its transversal faces share a
class; each of its image-keeping facets, a swap or larger, holds the class
of its own transversal faces, which are sigma's; so all those facets
already lie in one class, and joining sigma to any one of them is the full
join.  The classes are those of the full join, and each is still named by
its smallest id, a transversal member, as the smaller root wins each union.
Every pointer then goes to a smaller id, so one ascending pass,
parent[i] = parent[parent[i]], takes every id to its root.

For a real-valued function the classical sweep is implemented independently:
each simplex of the 2-skeleton, whose face relation determines level-set
connectivity exactly, enters an active set at its lowest vertex level and
leaves it after its highest.  One union-find carries the level and slab
components across levels: entering simplices are joined to their cofaces,
and a component that a leaving simplex touches is relabelled only when a
local test, over the survivors next to the leaving simplices, cannot rule
out a split.

The two meet in the slice of a function g (``pl_as_simplicial_map``): a
simplicial map onto the path whose vertex 2i is the i-th value level and
whose vertex 2i+1 is the open gap above it.  Over a vertex the fiber
components of the slice are the level-set components of g at that level,
or of any level inside that gap; over an open edge (2i, 2i+1) or
(2i+1, 2i+2) the fiber lies inside the slab between levels i and i+1, and
its components are that slab's.  The Reeb graph has one node per level-set
component at each level and one edge per slab component, from a node at
level i to one at i+1.  So the slice's Reeb space is the Reeb graph with
each edge subdivided, and each stratum's component index counts from 0
within its tau: the strata over value vertex 2i number the nodes at level
i, and those over gap vertex 2i+1 and over each of its two edges number the
edges whose lower node is at level i.  So ``reeb --space`` on a function
file counts its strata off ``reeb_graph`` (``_slice_strata``) and builds no
slice.  The slice stays for what needs the strata's facets in its own
order: the realization, fiber powers, the verifiers and the quotient map.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from operator import attrgetter

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    _chain_count,
    _complex_of_chains,
    _edge_checked_map,
    _face_order_complex,
    _face_ups,
    barycentric_subdivision,
    canonical_simplex,
    component_classes,
    label_components,
    simplex_key,
)
from .errors import (
    EmptyComplexError,
    InvariantError,
    UnknownSimplexError,
    _collector_paused,
    _refuse_past_cap,
    resolve_cell_cap,
)
from .homology import BettiVector, _delta_betti


class Stratum(namedtuple("Stratum", "tau component")):
    """A codomain simplex together with one fiber component over it."""

    __slots__ = ()


class ReebComplex:
    """The Reeb space of a simplicial map, with its quotient structure.

    ``strata[i]`` names stratum i; ``exact_strata[j]`` is the stratum of
    domain simplex j over its exact image; ``facets[i][u]`` is the stratum
    below stratum i over tau_i minus tau_i[u], a Delta-complex checked on
    construction (module docstring); ``codomain_projection[i]`` is tau_i.
    ``realization``, the order complex of the face order that ``facets``
    generate, and ``quotient_map``, from sd(domain) onto it, are built on
    first access (large inputs rarely need them).
    """

    def __init__(self, source_map, strata, exact_strata, facets):
        self.map = source_map
        self.strata = strata
        self.exact_strata = exact_strata
        self.facets = facets
        self.codomain_projection = tuple(s.tau for s in strata)
        _check_face_maps(self.codomain_projection, facets)

    @cached_property
    def realization(self):
        return _face_order_complex(self.facets)

    @cached_property
    def quotient_map(self):
        """The quotient map sd(domain) -> realization, sending sd vertex j,
        domain simplex j, to its stratum over its exact image.

        The realization is an order complex, and so flag: pairwise
        comparable strata form a chain.  So the map is checked on the edges
        of sd(domain), the face pairs rho < sigma, alone, and each maps
        onto one stratum or two comparable ones.  Let t = f(rho), a face of
        T = f(sigma).  Inside E_t, rho is a face of sigma|t, so both lie in
        the stratum over t that holds sigma (module docstring).  Along a
        chain of facets from T down to t, the stratum holding sigma over
        each face lies above the one over the next, since a stratum's cover
        over a facet holds the restrictions of all its members, sigma's too.
        """
        sd, _ = barycentric_subdivision(self.map.domain)
        return _edge_checked_map(sd, self.realization, self.exact_strata)

    def betti(self):
        """Reeb-space Betti numbers: cellular homology with the signs (-1)**u."""
        return _delta_betti([len(tau) - 1 for tau in self.codomain_projection], self.facets)

    def __repr__(self):
        return f"ReebComplex(strata={len(self.strata)})"


def _check_face_maps(taus, facets):
    """Raise InvariantError, naming the stratum, unless the u-th facet of
    stratum i over taus[i] lies over taus[i] minus its u-th vertex and, for
    u < w, facets[facets[i][u]][w - 1] == facets[facets[i][w]][u]."""
    for i, (tau, fs) in enumerate(zip(taus, facets)):
        faces = [tau[:u] + tau[u + 1 :] for u in range(len(tau))] if len(tau) > 1 else []
        if [taus[g] for g in fs] != faces:
            raise InvariantError(f"the facets of stratum {i} over {tau} do not lie over its faces")
    for i, fs in enumerate(facets):
        if len(fs) > 2 and any(
            facets[fs[u]][w - 1] != facets[fs[w]][u] for w in range(len(fs)) for u in range(w)
        ):
            raise InvariantError(f"the face maps of stratum {i} over {taus[i]} do not commute")


@_collector_paused
def reeb_space(f):
    """Construct the Reeb space of a simplicial map.

    The components of S_tau are those of E_tau (module docstring), found by
    the swap rule in one pass over the domain ids, in canonical order: a
    transversal member starts as its own root, a swap joins its two
    image-keeping facets, both transversal, with one union and points at
    the root, and a larger member points at any one of its image-keeping
    facets, whose class already holds all of them.  Such a facet has its
    simplex's image, so each class lies in one E_tau, and its root is its
    smallest id.  Every pointer goes to a smaller id, so one ascending pass
    labels every id with no find.  Strata are numbered by (tau in
    canonical order, root), so their facets are numbered before them; a
    stratum's component index counts the roots over its tau.  So
    ``exact_strata`` never decreases along a face pair: a face has a smaller
    image, whose strata come first, or the same image, reached by
    image-keeping facets and so in the same stratum.
    """
    simps = f.domain.simplices
    table = f.domain.facets
    images = f.vertex_images
    taus = f.simplex_images
    ids = range(len(simps))
    parent = list(ids)
    # A facet's image lies in its simplex's; they are equal, and the facet
    # image-keeping, exactly when the dropped vertex's image repeats, that
    # is, when the image sizes agree.  ``extra`` counts the vertices beyond
    # one over each vertex of tau (-1 for a vertex, which lists no facets).
    sizes = list(map(len, taus))
    for i, fs, n in zip(ids, table, sizes):
        extra = len(fs) - n
        if extra <= 0:
            continue
        if extra == 1:
            a, b = [g for g in fs if sizes[g] == n]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if b < a:
                a, b = b, a
            parent[b] = a
            parent[i] = a
            continue
        for g in fs:
            if sizes[g] == n:
                parent[i] = g
                break
    # Every pointer goes to a smaller id, so one ascending pass roots all.
    for i in ids:
        parent[i] = parent[parent[i]]
    # The roots come ascending and the sort is stable: (tau, root) order.
    roots = sorted([i for i, p in zip(ids, parent) if i == p], key=lambda r: simplex_key(taus[r]))
    index = {r: i for i, r in enumerate(roots)}
    exact_strata = tuple(map(index.__getitem__, parent))
    strata = []
    facets = []
    for tau, group in itertools.groupby(roots, key=taus.__getitem__):
        for ci, r in enumerate(group):
            strata.append(Stratum(tau, ci))
            over = [images[v] for v in simps[r]]
            facets.append(tuple(exact_strata[g] for _, g in sorted(zip(over, table[r]))))
    return ReebComplex(f, tuple(strata), exact_strata, tuple(facets))


def fiber_components_at(f, tau):
    """Partition of S_tau = {sigma : tau inside f(sigma)} into components.

    Over any point in the open simplex tau these classes correspond one-to-one
    with the connected components of the fiber.  The members are read off
    the image table in id order; every coface of a member is a member, so
    the coface index joins them.
    """
    tau = canonical_simplex(tau)
    if tau not in f.codomain.simplex_set:
        raise UnknownSimplexError(f"{tau} is not a simplex of the codomain")
    tau_set = set(tau)
    members = [i for i, image in enumerate(f.simplex_images) if tau_set.issubset(image)]
    simps = f.domain.simplices
    classes = component_classes(members, f.domain.cofaces, list(range(len(simps))))
    return [[simps[i] for i in cls] for cls in classes]


@_collector_paused
def verify_quotient(f, cell_cap=None):
    """Check the quotient structure of the Reeb space of f.

    Verifies that (a) projecting the quotient map to the codomain recovers the
    carrier image of f, (b) every point-fiber of the quotient map is connected
    and every realization simplex is hit, and (c) the quotient map covers all
    realization vertices.  Returns a report dict; nothing raises on failure.
    It is refused first when |sd(X)| passes the cap, resolved as by ``descent_check``.
    """
    cap = resolve_cell_cap(cell_cap)  # before the count, which builds the facet table
    _refuse_past_cap(
        _chain_count(f.domain.facets), cap,
        "simplices of the quotient map's sd(X)", "quotient subdivision",
    )
    space = reeb_space(f)
    q = space.quotient_map
    proj = space.codomain_projection
    commutes = tuple(proj[j] for j in q.vertex_images) == f.simplex_images

    # Each stratum of q lies over a realization simplex: one over each.
    taus = reeb_space(q).codomain_projection
    fibers_connected = len(taus) == len(set(taus)) == len(space.realization.simplices)

    vertex_surjective = set(q.vertex_images) == set(range(space.realization.num_vertices))

    report = {
        "commutes": commutes,
        "fibers_connected": fibers_connected,
        "vertex_surjective": vertex_surjective,
    }
    report["ok"] = all(report.values())
    return report


@_collector_paused
def b1_inequality_check(f):
    """Check b1(Reeb realization) <= b1(domain), per connected component.

    The components are the classes of ``component_classes`` over the
    domain's facet table, each listed in ascending id order: a whole
    complex is face-closed, and facets join what faces join.  One Reeb
    space of f serves every component.  A stratum's members are joined by
    image-keeping facets, so they lie in one component C; its facets are
    the strata of its root's facets, so they lie in C too.  So the strata
    whose members lie in C, the exact strata of C's simplices, are the
    Reeb space of f restricted to C and closed under facets, and each
    side's b1 is read off C's part of its own facet table (``_part_b1``).
    A row's ``vertices`` counts C's 0-simplices.
    """
    k = f.domain
    ids = range(len(k.simplices))
    dims = [len(s) - 1 for s in k.simplices]
    space = reeb_space(f)
    strata_dims = [len(tau) - 1 for tau in space.codomain_projection]
    rows = []
    for cls in component_classes(ids, k.facets, list(ids)):
        b1_domain = _part_b1(dims, k.facets, cls)
        strata = sorted({space.exact_strata[i] for i in cls})
        b1_reeb = _part_b1(strata_dims, space.facets, strata)
        rows.append({
            "vertices": [dims[i] for i in cls].count(0), "b1_domain": b1_domain,
            "b1_reeb": b1_reeb, "holds": b1_reeb <= b1_domain,
        })
    return {"components": rows, "ok": all(r["holds"] for r in rows)}


def _part_b1(dims, facets, part):
    """b1 of the part ``part`` of a Delta complex (``dims`` and ``facets``
    as ``_delta_betti`` takes them), a part closed under facets and listed
    in ascending id order.  Its cells are renumbered by their positions in
    it, a monotone renumbering, so the tables are those of a separate copy
    of the part: the collapse removes the same free pairs, and the part
    still lists its 0-cells first, so the degree-0 forest of
    ``_betti_numbers`` has a slot for 0-cells alone.
    """
    position = {c: i for i, c in enumerate(part)}
    return _delta_betti([dims[c] for c in part], [[position[g] for g in facets[c]] for c in part])[1]


class ReebNode(namedtuple("ReebNode", "id value level component")):
    """A Reeb graph node: one level-set component at one critical value."""

    __slots__ = ()


class ReebGraph(namedtuple("ReebGraph", "nodes edges vertex_to_node")):
    """The Reeb graph of a real-valued PL function, as a multigraph."""

    __slots__ = ()

    def betti(self):
        ids = range(len(self.nodes))
        adjacent = [[] for _ in ids]
        for a, b in self.edges:
            adjacent[a].append(b)
        b0 = label_components(ids, adjacent, list(ids))
        b1 = len(self.edges) - len(self.nodes) + b0
        return BettiVector((b0, b1))


@_collector_paused
def reeb_graph(g):
    """Exact Reeb graph of the PL extension of g, by an incremental level sweep.

    Only the 2-skeleton matters: the level set of any simplex is convex and
    its edge graph lives in the simplex's 2-faces, so components of level and
    slab sets match those computed from simplices of dimension <= 2.  Level i
    is the i-th sorted vertex value; a simplex spanning levels lo..hi enters
    the active set at lo and leaves it after hi.  The simplices active at
    level i are those meeting its level set; those still active once the
    simplices ending at i are dropped meet the open slab up to level i+1.
    Both families are up-closed, so their components under the face relation
    are the level and slab components.

    One union-find carries the components across levels.  A coface of an
    active simplex started no later than it, so the only face pairs a level
    adds join an entering simplex to its cofaces, and unions suffice.  Each
    level walks its entering simplices once, highest id first, each still
    its own root, and makes each one's singleton heap as it goes: a coface
    has a larger id than its face, so the coface's heap, or its component's,
    exists before the face joins it.  It walks its leaving simplices once,
    finding each one's root.  A vertex enters and leaves at one level, and
    no union runs between the level's node assignment and that walk, so the
    vertex reads its node there.  Only
    a component holding a leaving simplex can split, and a local test rules
    the split out for most of them.  A face of a leaving simplex ends no
    later than it, so it is leaving too or already gone; so a survivor that
    touches the leaving set is a coface of a leaving simplex.  Call these
    survivors the near set.  Any path between two survivors through the old
    component enters and leaves the leaving set through the near set, so if
    the near set is connected among the survivors, they are still one
    component.  The test joins the near set to its own cofaces, survivors
    too (the cofaces of its edges are triangles, so the two are closed under
    cofaces), and asks for one class.  It is sufficient only and assumes no
    manifold.  When it fails, or when at least half the ids in the
    component's heap (below) leave at this level, so that scanning the heap
    costs at most twice the leaving ids, each of which leaves once, the
    survivors, closed under cofaces, are relabelled alone, each new part
    keeping the old component's node as the node below its slab edge; with
    no survivor the component dies.  Every other component keeps its node.

    The smaller root wins each union, so a root is its component's
    smallest active id; simplex ids follow the canonical order, and nodes
    inside a level come in root order.  A skipped relabel must still move
    the root off a leaving id.  So each component keeps its ids in a
    min-heap whose dead ids go only when they reach the top: a union pushes
    the smaller heap into the larger, and a skip pops the dead ids off the
    top and makes the new top the root.  A relabel hands the sorted
    survivors to ``component_classes``, whose parts come out ascending, each
    led by its root; a sorted list is already a heap.  Work is the output,
    the near sets and their cofaces, the relabels that run, and a
    logarithmic heap step per union, each simplex weighted by its coface
    count.  The sweep hands out node ids and counts each level's nodes; the
    nodes themselves are built after it, in one pass over those counts.
    """
    k2 = g.complex.skeleton(2)
    simps = k2.simplices
    levels, level_of = _vertex_levels(g)
    first, last = _level_spans(k2, level_of)

    cofaces = k2.cofaces
    starts = [[] for _ in levels]
    ends = [[] for _ in levels]
    for i, (lo, hi) in enumerate(zip(first, last)):
        starts[lo].append(i)
        ends[hi].append(i)

    parent = list(range(len(simps)))
    scratch = list(parent)  # the no-split test's own union-find
    members = {}  # live root -> min-heap of its component's ids, dead ones lazily kept
    node_of = {}  # live root -> its node at this level, or below its slab
    counts = []  # nodes per level, built after the sweep
    edges = []
    node_of_vertex = {}
    n = 0
    for i in range(len(levels)):
        open_slab = list(node_of.items())
        # The path-halving find is inlined in the loops below, the hot path.
        for s in reversed(starts[i]):
            members[s] = [s]
            a = s
            for c in cofaces[s]:
                b = c
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    if b < a:
                        a, b = b, a
                    parent[b] = a
                    kept, merged = members[a], members.pop(b)
                    if len(kept) < len(merged):
                        kept, merged = merged, kept
                        members[a] = kept
                    for x in merged:
                        heappush(kept, x)
        # One node per root, in root order.
        roots = sorted(members)
        node_of = dict(zip(roots, range(n, n + len(roots))))
        n += len(roots)
        counts.append(len(roots))
        for rep, a in open_slab:
            while parent[rep] != rep:
                parent[rep] = parent[parent[rep]]
                rep = parent[rep]
            # a is a node of an earlier level than the other end, so the pair is ordered.
            edges.append((a, node_of[rep]))
        leaving = {}
        for s in ends[i]:
            a = s
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            leaving.setdefault(a, []).append(s)
            if len(simps[s]) == 1:
                node_of_vertex[simps[s][0]] = node_of[a]
        for r, gone in leaving.items():
            below = node_of.pop(r)
            heap = members.pop(r)
            if 2 * len(gone) < len(heap) and _survivors_stay_connected(gone, cofaces, last, i, scratch):
                while last[heap[0]] <= i:
                    heappop(heap)
                root = heap[0]
                parent[root] = root
                parent[r] = root
                members[root] = heap
                node_of[root] = below
                continue
            survivors = sorted([s for s in heap if last[s] > i])
            for part in component_classes(survivors, cofaces, parent):
                members[part[0]] = part
                node_of[part[0]] = below
    edges.sort()

    # Every node in one C-level pass over the per-level counts: ReebNode
    # adds no check of its own, so tuple.__new__ builds the same objects.
    runs = itertools.chain.from_iterable
    columns = (range(n), runs(map(repeat, levels, counts)),
               runs(map(repeat, range(len(levels)), counts)), runs(map(range, counts)))
    nodes = tuple(map(tuple.__new__, repeat(ReebNode), zip(*columns)))
    vertex_to_node = {v: node_of_vertex[v] for v in level_of}
    return ReebGraph(nodes, tuple(edges), vertex_to_node)


def _survivors_stay_connected(gone, cofaces, last, i, parent):
    """Whether a component stays connected once its ids ``gone`` leave after
    level i, by the local test of ``reeb_graph``: the surviving cofaces of
    ``gone``, joined to their own cofaces in the scratch union-find
    ``parent``, form one class.  False when nothing survives."""
    near = {c for s in gone for c in cofaces[s] if last[c] > i}
    local = near.union(*[cofaces[c] for c in near])
    return label_components(local, cofaces, parent) == 1


def _vertex_levels(g):
    """(levels, level_of): the sorted distinct values of g at the vertices of
    its complex, its 0-simplices, and ``level_of[v]``, the position of v's
    value among them, for each such vertex v in ascending order.  Vertex ids
    that are no 0-simplex are not ranked.  No Fraction is hashed (a modular
    inverse in Python): in lowest terms, values are told apart by their
    (numerator, denominator), and sorted on floor(t * 2**64), which never
    decreases in t, so only values within 2**-64 compare as Fractions."""
    vertices = [s[0] for s in g.complex.by_dim().get(0, ())]
    values = list(map(g.values.__getitem__, vertices))
    pairs = list(map(attrgetter("numerator", "denominator"), values))
    keys = sorted([((n << 64) // d, t, (n, d)) for (n, d), t in dict(zip(pairs, values)).items()])
    position = {p: i for i, (_, _, p) in enumerate(keys)}
    return [t for _, t, _ in keys], dict(zip(vertices, map(position.__getitem__, pairs)))


def _level_spans(k, level_of):
    """(lo, hi): the lowest and highest level of each simplex of k, in id
    order, read one dimension at a time by folding its vertex columns."""
    get = level_of.__getitem__
    lo, hi = [], []
    for run in k.by_dim().values():
        cols = [list(map(get, col)) for col in zip(*run)]
        a = b = cols[0]
        for col in cols[1:]:
            a = [x if x < y else y for x, y in zip(a, col)]
            b = [x if x > y else y for x, y in zip(b, col)]
        lo += a
        hi += b
    return lo, hi


class _SliceStrata(namedtuple("_SliceStrata", "strata graph")):
    """The strata and Betti numbers of the Reeb space of a function's slice,
    counted off its Reeb graph by ``_slice_strata``."""

    __slots__ = ()

    def betti(self):
        return self.graph.betti()


def _slice_strata(g):
    """The strata of ``reeb_space(pl_as_simplicial_map(g).map)`` and its Betti
    numbers, read off ``reeb_graph(g)`` by the counting argument of the
    module docstring, with no slice built.  The Betti numbers are the
    graph's, whose Euler characteristic, nodes minus edges, is the strata's
    too: each edge adds one gap vertex and two edges."""
    if not g.complex.simplices:
        raise EmptyComplexError("cannot slice an empty complex")
    graph = reeb_graph(g)
    nodes = graph.nodes
    n = nodes[-1].level + 1
    at_level = [0] * n
    for node in nodes:
        at_level[node.level] += 1
    slabs = [0] * n
    for a, _ in graph.edges:
        slabs[nodes[a].level] += 1
    counts = [((c,), (slabs if c % 2 else at_level)[c // 2]) for c in range(2 * n - 1)]
    counts += [((c, c + 1), slabs[c // 2]) for c in range(2 * n - 2)]
    return _SliceStrata(tuple(Stratum(tau, i) for tau, k in counts for i in range(k)), graph)


class LevelSliceModel(namedtuple("LevelSliceModel", "map codomain_levels")):
    """A PL function re-expressed as a simplicial map onto a segment complex.

    The codomain path alternates value vertices and gap vertices for the open
    intervals between consecutive values; ``codomain_levels[i]`` describes
    vertex i as ("value", v) or ("gap", lo, hi).  The domain is the order
    complex of the level/slab cell decomposition of the original complex,
    and ``map`` sends each cell to its codomain vertex.
    """

    __slots__ = ()


@_collector_paused
def pl_as_simplicial_map(g):
    """Slice a PL function into an equivalent simplicial map (m=1 helper).

    The domain complex is subdivided along every level of a vertex value, so
    each new simplex maps into a single closed cell of the codomain path; the
    resulting map has the same Reeb space as g.

    The map is checked on the comparable cell pairs, the domain's edges,
    alone.  The path is flag: its only edges join c and c + 1, so no three
    vertices are pairwise joined.  A level cell's up-set holds cells at
    c - 1, c and c + 1 only, and a gap cell's at c only, so each edge maps
    onto a vertex or an edge of the path, and then every chain does.
    """
    k = g.complex
    if not k.simplices:
        raise EmptyComplexError("cannot slice an empty complex")
    levels, level_of = _vertex_levels(g)
    n = len(levels)

    codomain_levels = []
    for i, t in enumerate(levels):
        codomain_levels.append(("value", t))
        if i + 1 < n:
            codomain_levels.append(("gap", t, levels[i + 1]))
    # Built unchecked: the vertices, then the edges (j, j + 1), are a
    # canonical listing in range and closed under faces.
    path = SimplicialComplex._from_canonical(
        2 * n - 1,
        [(j,) for j in range(2 * n - 1)] + [(j, j + 1) for j in range(2 * n - 2)],
        ordered=True,
    )

    # Cells (sigma, c): c = 2i is the slice of sigma at level i, c = 2i+1 the
    # slice over the open gap (levels[i], levels[i+1]).  A simplex spanning
    # levels lo < hi has value cells strictly between them and gap cells from
    # lo up to hi; one spanning a single level has one value cell there.
    # Ids ascend along the face order: k.simplices is canonical, and each
    # simplex lists its value cells before its gap cells, each ascending.
    # So cell 2i of simplex s has id v0[s] + i and cell 2i+1 has g0[s] + i.
    # A cell's image is its c.
    lows, highs = _level_spans(k, level_of)
    images = []
    v0 = []
    g0 = []
    for lo, hi in zip(lows, highs):
        start = len(images)
        if lo == hi:
            images.append(2 * lo)
            v0.append(start - lo)
        else:
            images += range(2 * lo + 2, 2 * hi, 2)
            images += range(2 * lo + 1, 2 * hi, 2)
            v0.append(start - lo - 1)
        g0.append(start + hi - 2 * lo - 1)

    # A cell's up-set holds the other cells of its simplex and the cells of
    # the proper cofaces t of that simplex, at c - 1, c and c + 1 for a level
    # cell and at c for a gap cell.  A coface spans the levels of its face,
    # so it has a gap cell at every gap of the face.  At a level i of the
    # face it has a value cell when i lies strictly inside its span or is
    # its only level, a gap cell below unless i is its lowest level, and one
    # above unless i is its highest; strictly inside the face's span, all
    # three.  Ids index one shared list, so every chain holds the same int
    # objects.
    ids = list(range(len(images)))
    above = _face_ups(k.facets)
    ups = []
    for s, (lo, hi) in enumerate(zip(lows, highs)):
        up = above[s]
        if lo == hi:
            cell = []
            for t in up:
                if lows[t] < lo < highs[t]:
                    cell += (ids[v0[t] + lo], ids[g0[t] + lo - 1], ids[g0[t] + lo])
                elif lows[t] < lo:
                    cell.append(ids[g0[t] + lo - 1])
                elif lo < highs[t]:
                    cell.append(ids[g0[t] + lo])
                else:
                    cell.append(ids[v0[t] + lo])
            ups.append(tuple(cell))
            continue
        # Each place in these up-sets is a run of consecutive ids along the
        # span, so each run is one slice of ids and zip builds the tuples.
        runs = [ids[g0[s] + lo : g0[s] + hi - 1], ids[g0[s] + lo + 1 : g0[s] + hi]]
        for t in up:
            v, w = v0[t], g0[t]
            runs += (ids[v + lo + 1 : v + hi], ids[w + lo : w + hi - 1], ids[w + lo + 1 : w + hi])
        ups += zip(*runs)
        ups += zip(*[ids[g0[t] + lo : g0[t] + hi] for t in up]) if up else [()] * (hi - lo)

    f = _edge_checked_map(_complex_of_chains(ups), path, images)
    return LevelSliceModel(f, tuple(codomain_levels))
