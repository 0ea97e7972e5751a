"""Independent verification machinery for the test suite.

Everything in here is deliberately written from scratch against the math,
not against the package internals: naive dense linear algebra over exact
fractions, an integer Smith-form rank, geometric level-set component counts
from edge crossings, face-relation partitions over a dictionary union-find,
and a coordinate-level triangulation of fiber powers.  ``reeb_graph_rescan``
is the per-level rescan that the event sweep in ``reebforge.reeb`` replaced,
and ``partition_up_closed`` the per-family sort-and-index partition that the
package's coface-index union-find replaced; both are kept to check the
production paths against.  ``reeb_space_scan`` is the Reeb-space
construction that partitioned every S_tau = {sigma : tau inside f(sigma)},
before the strata came from the exact-image groups alone,
``reeb_space_by_keeping_facets`` the labeling of those groups that joined
every simplex to all of its image-keeping facets, before the swap rule, and
``b1_rows_by_face_components`` the b1 check's rows from a restricted copy
of the map on each domain component, before one Reeb space of the whole
map served every component.  Likewise
``fiber_power_cells_tuples`` is the tuple-keyed fiber-power cell enumerator
that mixed-radix cell ids replaced, ``_cell_poset`` the mixed-radix
enumerator of every cell of a power, whose regular cellular homology the
Morse complex in ``reebforge.fiberprod`` replaced, and
``collapse_face_poset_sets`` the collapse that kept a set of covers per
cell.  ``betti_numbers_uncleared`` is the
cellular Betti assembly that ranked every boundary matrix in full before
clearing on the coboundaries replaced it, and ``first_non_simplicial`` the
simplex check that walked the domain in canonical order before the map
check became sort-free.  ``poset_chains`` finds the chains of a poset by
brute force over pairwise-comparable subsets, for the order complexes that
the package enumerates from up-sets, and ``convolve`` the Kunneth product of
Betti vectors that product spaces are checked against.  ``facet_table`` is
the slicing definition of a simplicial complex's facet table and
``face_pairs_by_combinations`` the per-simplex listing of proper faces, both
of which the cached ``SimplicialComplex.facets`` replaced, and
``face_pairs_keeping_down_sets`` the face-pair walk that kept every cell's
down-set to the end.  ``is_canonical_listing_by_keys`` is the canonical-order
test by one key tuple per simplex, ``first_missing_face`` names the face that
the face check must report, ``levels_by_fraction_sort`` ranks vertex values
as Fractions, and ``slice_cells_and_up_sets`` with ``chains_by_stack`` is the
level slice as built from per-simplex cell dicts and a depth-first chain
stack, before the closed-form up-sets and chains in canonical order, and
``slice_up_sets_by_level`` the closed-form up-sets built one level at a
time, before each place became a run of ids; ``chains_by_extension`` is the
generic chain loop, before chains of length 2 and 3 were built whole,
``level_spans_per_simplex`` the level spans by one ``min`` and ``max`` per
simplex, before the columns were folded, and ``dot_by_fstrings`` the DOT
writer's per-line f-strings; ``find_root`` is the
path-halving find that the package's loops now inline;
``stratum_poset``
hands a Reeb space's face relation to the package's generic ``Poset``, whose
order complex the realization is checked against.
``morse_complex_unpruned`` is the gradient flow of the lifted matching over
every facet of every cell met, with ``morse_facets_unpruned`` generating
them from the Cayley-trick parity tables of ``cayley_tables``, that the
transferred complex of ``reebforge.fiberprod`` replaced; it reads only the
matching and the critical simplices of the package's ``_MorseModel``.
``koszul_signs`` gives each critical cell its sign sigma, which carries the
flow's complex to the package's.  ``quotient_group_sizes_sorted`` counts
the Reeb quotient map's groups with each key re-sorted and scanned, as
before the keys were appended in stratum order, and
``sign_condition_double_sum`` is the sign-condition bounds' double sum,
term by term.  ``minimal_torus``, the 7-vertex torus, is
a test complex, built by the package's checked ``validate_complex``, and
``grid_torus_checked``, ``random_map_checked``, ``full_simplex_checked``
and ``boundary_delta3_checked`` are those generators as built through it,
faces closed by ``validate_complex``, before each wrote its own closed,
canonical listing.
Otherwise only the result types and the internal-invariant error come from
the package.
"""

import functools
import heapq
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd
from itertools import combinations, product

from reebforge.complexes import Poset, SimplicialMap, connected_components, validate_complex
from reebforge.errors import InvariantError
from reebforge.fiberprod import _MorseModel
from reebforge.fixtures import random_map
from reebforge.homology import BettiVector, betti, regular_cw_betti
from reebforge.reeb import ReebComplex, ReebGraph, ReebNode, Stratum, reeb_space


def find_root(parent, x):
    """Root of x in a union-find parent array, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class UnionFind:
    """Union-find over arbitrary hashable items, kept in a dictionary."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def classes(self, order):
        """The classes as lists in ``order``, ordered by their first item."""
        groups = {}
        for x in order:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def _canonical(members):
    return sorted(set(members), key=lambda s: (len(s), s))


def minimal_torus():
    """The 7-vertex torus triangulation (every vertex pair is an edge)."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return validate_complex(7, faces, close_faces=True)


def grid_torus_checked(m, n):
    """``fixtures.grid_torus`` as it was built before it wrote its own closed
    listing: the triangles only, checked and closed by ``validate_complex``."""

    def v(i, j):
        return (i % m) * n + (j % n)

    faces = []
    for i in range(m):
        for j in range(n):
            faces.append(tuple(sorted((v(i, j), v(i + 1, j), v(i, j + 1)))))
            faces.append(tuple(sorted((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))))
    return validate_complex(m * n, faces, close_faces=True)


def full_simplex_checked(dim):
    """``fixtures.full_simplex``'s checked build: the top simplex, closed."""
    return validate_complex(dim + 1, [tuple(range(dim + 1))], close_faces=True)


def boundary_delta3_checked():
    """``fixtures.boundary_delta3``'s checked build: its four triangles, closed."""
    return validate_complex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], close_faces=True)


_CHECKED_CODOMAINS = {
    "point": lambda: validate_complex(1, [(0,)]),
    "segment": lambda: validate_complex(2, [(0, 1)], close_faces=True),
    "circle": lambda: validate_complex(3, [(0, 1), (1, 2), (0, 2)], close_faces=True),
    "triangle": lambda: full_simplex_checked(2),
    "sphere": boundary_delta3_checked,
}


def random_map_checked(seed, size=12):
    """``fixtures.random_map`` as it was built before it wrote its own closed
    listing: the same draws, with the codomain and the domain's simplex set
    each checked and closed by ``validate_complex``."""
    rng = random.Random(seed)
    codomain = _CHECKED_CODOMAINS[rng.choice(sorted(_CHECKED_CODOMAINS))]()
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
    domain = validate_complex(n, simplices, close_faces=True)
    return SimplicialMap(domain, codomain, images)


def first_non_simplicial(domain_simplices, codomain_simplices, vertex_images):
    """First domain simplex, in (dimension, lexicographic) order, whose image
    vertex set is not a codomain simplex; None when the map is simplicial."""
    targets = {tuple(sorted(t)) for t in codomain_simplices}
    for s in _canonical(domain_simplices):
        if tuple(sorted({vertex_images[v] for v in s})) not in targets:
            return s
    return None


def poset_chains(n, covers):
    """Every nonempty chain of the poset on 0..n-1 generated by ``covers``.

    The order is the transitive closure of the (lower, upper) pairs, by
    Warshall's algorithm on a boolean matrix; a chain is any subset of
    elements that are pairwise comparable.  Subsets grow one element at a
    time in id order, so each is met once; chains come back as sorted tuples
    in sorted order.
    """
    less = [[False] * n for _ in range(n)]
    for a, b in covers:
        less[a][b] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    if less[k][j]:
                        less[i][j] = True
    chains = []
    stack = [(i,) for i in range(n)]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        for x in range(chain[-1] + 1, n):
            if all(less[c][x] or less[x][c] for c in chain):
                stack.append(chain + (x,))
    return sorted(chains)


def facet_table(simplices):
    """The facet ids of each simplex of a face-closed canonical list, by
    slicing out one vertex at a time: entry u omits vertex u, and a vertex
    has none."""
    index = {s: i for i, s in enumerate(simplices)}
    return tuple(
        tuple(index[s[:u] + s[u + 1 :]] for u in range(len(s))) if len(s) > 1 else ()
        for s in simplices
    )


def is_canonical_listing_by_keys(simplices):
    """Whether each simplex is non-empty and strictly ascending and each
    neighbouring pair strictly increases under the (size, lexicographic)
    key, by one key tuple per simplex: the definition that the package's
    run-by-run check replaced."""
    keys = [(len(s), s) for s in simplices]
    return (
        all(simplices)
        and all(all(a < b for a, b in zip(s, s[1:])) for s in simplices)
        and all(a < b for a, b in zip(keys, keys[1:]))
    )


def first_missing_face(simplices):
    """(face, simplex) for the first simplex, in canonical order, with a
    facet outside ``simplices``, and its first such facet in the order that
    drops the last vertex first; None when every facet is present."""
    present = set(simplices)
    for s in _canonical(simplices):
        for u in reversed(range(len(s)) if len(s) > 1 else ()):
            face = s[:u] + s[u + 1 :]
            if face not in present:
                return face, s
    return None


def face_pairs_by_combinations(simplices):
    """(face id, coface id) for every proper face of every simplex of a
    face-closed canonical list, cofaces in id order and the faces of one
    coface by dimension, then lexicographically: in id order."""
    index = {s: i for i, s in enumerate(simplices)}
    return [
        (index[face], j)
        for j, s in enumerate(simplices)
        for k in range(1, len(s))
        for face in combinations(s, k)
    ]


def face_pairs_keeping_down_sets(facets):
    """(face id, coface id) pairs of a facet table whose ids ascend along the
    face order, each cell's down-set, its facets' united, kept to the end."""
    below = []
    for j, fs in enumerate(facets):
        below.append(set(fs).union(*map(below.__getitem__, fs)))
        for i in sorted(below[j]):
            yield i, j


def stratum_poset(space):
    """The face poset of a Reeb space's strata, generated by their facets."""
    return Poset(space.strata, [(g, i) for i, fs in enumerate(space.facets) for g in fs])


def partition_up_closed(members):
    """Components of an up-closed simplex family under the face relation.

    ``members`` must be closed under taking cofaces inside the ambient
    complex, so joining each simplex to its facets generates the full
    equivalence.  Classes come back as canonically ordered lists, in the
    canonical order of their first simplex.
    """
    members = _canonical(members)
    uf = UnionFind(members)
    for s in members:
        for facet in combinations(s, len(s) - 1):
            if facet in uf.parent:
                uf.union(s, facet)
    return uf.classes(members)


def partition_face_relation(members):
    """Components of any simplex family under the face relation.

    Every pair in which one simplex is a proper face of the other is joined
    directly, so the family need not be up-closed.  Classes are ordered as in
    ``partition_up_closed``.
    """
    members = _canonical(members)
    uf = UnionFind(members)
    for a, b in combinations(members, 2):
        if set(a) < set(b):
            uf.union(a, b)
    return uf.classes(members)


def gauss_rank_fractions(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def smith_rank(rows):
    """Rank via integer Smith-style diagonalization."""
    m = [[int(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    top = 0
    while top < min(nrows, ncols):
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    if pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                q = m[i][top] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if m[i][top]:
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, ncols):
                q = m[top][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[top]
                if m[top][j]:
                    for row in m:
                        row[top], row[j] = row[j], row[top]
                    dirty = True
                    break
            if not dirty:
                break
        rank += 1
        top += 1
    return rank


def boundary_matrix_dense(simplices_by_dim, d):
    """Dense boundary matrix from dimension d to d-1, standard signs."""
    lower = {s: i for i, s in enumerate(simplices_by_dim.get(d - 1, ()))}
    upper = simplices_by_dim.get(d, ())
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            rows[lower[face]][j] = -1 if i % 2 else 1
    return rows


def naive_betti(simplices):
    """Betti numbers from scratch: dense matrices, fraction Gaussian ranks."""
    by_dim = {}
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    if not by_dim:
        return []
    top = max(by_dim)
    ranks = {}
    for d in range(1, top + 1):
        ranks[d] = gauss_rank_fractions(boundary_matrix_dense(by_dim, d))
    out = []
    for d in range(top + 1):
        out.append(len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0))
    while out and out[-1] == 0:
        out.pop()
    return out


def level_component_count(complex_, values, t):
    """Components of the level set {g = t}, from geometric crossings.

    Atoms are vertices sitting at the level and interior crossing points of
    edges spanning it; atoms inside a common simplex are joined because the
    simplex's level slice is convex.
    """
    t = Fraction(t)
    atoms = set()
    for s in complex_.simplices:
        if len(s) == 1 and values[s[0]] == t:
            atoms.add(("v", s[0]))
        elif len(s) == 2:
            a, b = sorted(s, key=lambda v: values[v])
            if values[a] < t < values[b]:
                atoms.add(("e", s))
    uf = UnionFind(atoms)
    for s in complex_.simplices:
        local = [("v", v) for v in s if values[v] == t]
        for e in combinations(s, 2):
            if ("e", e) in atoms:
                local.append(("e", e))
        for a, b in zip(local, local[1:]):
            uf.union(a, b)
    return len({uf.find(a) for a in atoms})


def _centroid(points):
    n = len(points)
    dim = len(points[0])
    return tuple(sum(p[i] for p in points) / n for i in range(dim))


def fiber_power_cells_geometric(f, p):
    """Cells of the fiber power, certified by explicit rational points.

    Domain vertex v sits at e_v, codomain vertex w at e_w.  For every tuple
    of simplices with one common exact image a point of the open cell is
    constructed and checked: all barycentric coordinates positive exactly on
    the tuple's support, and all coordinates map to the same codomain point
    under the affine extension of f.

    Returns (cells, points): cells are (tau, tuple) pairs, points their
    witness coordinates in the (p+1)-fold product space.
    """
    n = f.domain.num_vertices
    m = f.codomain.num_vertices

    def evaluate(x):
        y = [Fraction(0)] * m
        for v, coeff in enumerate(x):
            y[f.vertex_images[v]] += coeff
        return tuple(y)

    groups = {}
    for s in f.domain.simplices:
        groups.setdefault(f.image_simplex(s), []).append(s)

    cells = []
    points = []
    for tau in sorted(groups, key=lambda s: (len(s), s)):
        for tup in product(groups[tau], repeat=p + 1):
            witness = []
            target = None
            for rho in tup:
                coords = [Fraction(0)] * n
                for t in tau:
                    over_t = [v for v in rho if f.vertex_images[v] == t]
                    assert over_t, "component does not cover its image"
                    for v in over_t:
                        coords[v] += Fraction(1, len(tau) * len(over_t))
                assert all((coords[v] > 0) == (v in rho) for v in range(n))
                y = evaluate(coords)
                if target is None:
                    target = y
                assert y == target, "components map to different points"
                witness.append(tuple(coords))
            cells.append((tau, tup))
            points.append(tuple(witness))
    return cells, points


def fiber_power_cells_tuples(f, p):
    """Cells of the fiber power with dimensions and facet (cover) relations.

    A cell is a tuple of simplices sharing one exact image tau; its polytope
    is the fiber product of the closed simplices, of dimension
    sum(dim rho_i) - p*dim(tau).  Its facets are (a) one component shrunk by
    a vertex whose image repeats inside it, and (b) for a codomain vertex t
    of tau covered exactly once in every component, all components shrunk by
    their vertex over t (the common image drops to tau minus t).  Every cell
    is keyed by (tau, tuple) in a dictionary and every facet looked up by its
    rebuilt key.  Returns (cells, dims, facets); ids are a linear extension
    of the face order.
    """
    groups = {}
    for s in f.domain.simplices:
        groups.setdefault(f.image_simplex(s), []).append(s)
    taus = sorted(groups, key=lambda s: (len(s), s))

    cells = []
    for tau in taus:
        for tup in product(groups[tau], repeat=p + 1):
            cells.append((tau, tup))
    cell_id = {c: i for i, c in enumerate(cells)}

    dims = []
    facets = []
    for tau, tup in cells:
        dims.append(sum(len(r) - 1 for r in tup) - p * (len(tau) - 1))
        found = []
        image_count = []
        for rho in tup:
            counts = {}
            for v in rho:
                w = f.vertex_images[v]
                counts[w] = counts.get(w, 0) + 1
            image_count.append(counts)
        for i, rho in enumerate(tup):
            if len(rho) == 1:
                continue
            counts = image_count[i]
            for j, v in enumerate(rho):
                if counts[f.vertex_images[v]] > 1:
                    shrunk = rho[:j] + rho[j + 1 :]
                    found.append(cell_id[(tau, tup[:i] + (shrunk,) + tup[i + 1 :])])
        if len(tau) > 1:
            for t in tau:
                if all(counts[t] == 1 for counts in image_count):
                    sub = tuple(x for x in tau if x != t)
                    trimmed = tuple(
                        tuple(v for v in rho if f.vertex_images[v] != t) for rho in tup
                    )
                    found.append(cell_id[(sub, trimmed)])
        facets.append(found)
    return cells, dims, facets


def _exact_image_groups(f, label=None):
    """The domain simplices of each group, in canonical order.

    A group is keyed (tau, label): the simplices of exact image tau with one
    ``label[i]``, i the simplex id, or all of them, keyed (tau, 0), when
    ``label`` is None.
    """
    groups = {}
    for i, s in enumerate(f.domain.simplices):
        key = (f.image_simplex(s), 0 if label is None else label[i])
        groups.setdefault(key, []).append(s)
    return groups


def _cell_poset(f, p, label=None):
    """Dimensions and facet (cover) relations of the fiber power's cells.

    A cell is a tuple (rho_0..rho_p) of simplices sharing one exact image
    tau, and one ``label`` when labels are given; its polytope is the fiber
    product of the closed simplices, of dimension sum(dim rho_k) -
    p*dim(tau).  Its facets are (a) one component shrunk by a vertex whose
    image repeats inside it, and (b) for a codomain vertex t of tau covered
    exactly once in every component, all components shrunk by their vertex
    over t (the common image drops to tau minus t).  With Reeb strata as
    labels the cells span the subcomplex of the power of the Reeb quotient
    map; the trims of one column must then land in one group, else
    InvariantError.

    Cells are numbered arithmetically: with ``groups[g]`` the simplices of
    group g = (tau, label) in canonical order, n = len(groups[g]) and pos_k
    the position of rho_k there, the cell's id is
    ``base[g] + sum_k pos_k * n**(p-k)``, groups in canonical order of tau,
    then by label.  Ids are a linear extension of the face order.  A
    type-(a) facet then differs from its cell in one digit, and a type-(b)
    facet is the Horner sum of the trimmed positions in the radix of the
    trims' group.  Returns (dims, facets).
    """
    images = f.vertex_images
    groups = _exact_image_groups(f, label)
    keys = sorted(groups, key=lambda g: (len(g[0]), g))

    position = {}
    group_of = {}
    base = {}
    start = 0
    for g in keys:
        base[g] = start
        start += len(groups[g]) ** (p + 1)
        for q, s in enumerate(groups[g]):
            position[s] = q
            group_of[s] = g

    dims = []
    facets = []
    for g in keys:
        tau = g[0]
        group = groups[g]
        n = len(group)
        # deltas[q]: group positions of the image-keeping shrinks of the
        # simplex at position q, minus q, in vertex order; shift[k][q]: the
        # same as cell-id offsets when that simplex is component k.
        deltas = []
        for q, rho in enumerate(group):
            over = [images[v] for v in rho]
            deltas.append(
                [
                    position[rho[:j] + rho[j + 1 :]] - q
                    for j, w in enumerate(over)
                    if over.count(w) > 1
                ]
            )
        shift = [[[d * n ** (p - k) for d in ds] for ds in deltas] for k in range(p + 1)]
        # One trim column per vertex t of tau: for each position, the
        # simplex without its vertex over t, or None when t is not covered
        # exactly once; then its position in the one group all trims share.
        columns = []
        for t in tau if len(tau) > 1 else ():
            trims = []
            for rho in group:
                over_t = [v for v in rho if images[v] == t]
                trims.append(
                    tuple(v for v in rho if v != over_t[0]) if len(over_t) == 1 else None
                )
            subs = {group_of[r] for r in trims if r is not None}
            if not subs:
                continue
            if len(subs) > 1:
                raise InvariantError(
                    f"the trims of group {g} over vertex {t} span groups {sorted(subs)}"
                )
            (sub,) = subs
            column = [None if r is None else position[r] for r in trims]
            columns.append((base[sub], len(groups[sub]), column))
        dim_of = [len(rho) - 1 for rho in group]
        drop = p * (len(tau) - 1)
        cid = base[g]
        for tup in product(range(n), repeat=p + 1):
            found = []
            for k, q in enumerate(tup):
                for d in shift[k][q]:
                    found.append(cid + d)
            for sub_base, radix, column in columns:
                h = 0
                for q in tup:
                    x = column[q]
                    if x is None:
                        break
                    h = h * radix + x
                else:
                    found.append(sub_base + h)
            dims.append(sum(dim_of[q] for q in tup) - drop)
            facets.append(found)
            cid += 1
    return dims, facets


@functools.cache
def cell_poset_betti(seed, p, labelled):
    """``regular_cw_betti`` of ``_cell_poset`` for the p-th fiber power of
    ``random_map(seed)``, over its Reeb strata when ``labelled``.  Cached:
    several tests compare an engine with the same reference."""
    f = random_map(seed)
    label = reeb_space(f).exact_strata if labelled else None
    return regular_cw_betti(*_cell_poset(f, p, label))


def collapse_face_poset_sets(facets):
    """Greedy elementary collapse keeping the set of live covers of each cell.

    Same contract as ``reebforge.homology.collapse_face_poset``: a cell with
    a single cover that is itself maximal is removed with it, smallest free
    id first.  Returns (kept, core_facets).
    """
    n = len(facets)
    covers = [set() for _ in range(n)]
    for c, fs in enumerate(facets):
        for g in fs:
            covers[g].add(c)
    alive = [True] * n
    heap = [i for i in range(n) if len(covers[i]) == 1]
    heapq.heapify(heap)
    while heap:
        i = heapq.heappop(heap)
        if not alive[i] or len(covers[i]) != 1:
            continue
        (j,) = covers[i]
        if not alive[j] or covers[j]:
            continue
        alive[i] = alive[j] = False
        for gone in (i, j):
            for g in facets[gone]:
                if not alive[g]:
                    continue
                group = covers[g]
                group.discard(gone)
                if len(group) == 1:
                    heapq.heappush(heap, g)
                elif not group:
                    for h in facets[g]:
                        if alive[h] and len(covers[h]) == 1:
                            heapq.heappush(heap, h)
    kept = [i for i in range(n) if alive[i]]
    position = [0] * n
    for k, i in enumerate(kept):
        position[i] = k
    return kept, [[position[g] for g in facets[i]] for i in kept]


def rank_fraction_free_uncleared(columns):
    """Rank of a sparse integer matrix given as row->value column dicts, by
    fraction-free elimination on the lowest row of each column."""
    pivots = {}
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            seen = pivots.get(low)
            if seen is None:
                pivots[low] = col
                break
            a, b = col[low], seen[low]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            merged = {r: v * ma for r, v in col.items()}
            for r, v in seen.items():
                merged[r] = merged.get(r, 0) - v * mb
            col = {r: v for r, v in merged.items() if v}
            if col:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return len(pivots)


def betti_numbers_uncleared(dims, boundaries):
    """Betti numbers of a cellular chain complex from the rank of every
    boundary matrix, with nothing skipped.

    ``dims[c]`` is the dimension of cell c and ``boundaries[c]`` maps each of
    its facet ids to the incidence.  Returns the list with trailing zeros
    trimmed.
    """
    by_dim = {}
    row = [0] * len(dims)
    for c, d in enumerate(dims):
        group = by_dim.setdefault(d, [])
        row[c] = len(group)
        group.append(c)
    top = max(by_dim, default=-1)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        ranks[d] = rank_fraction_free_uncleared(
            [{row[g]: e for g, e in boundaries[c].items()} for c in by_dim.get(d, ())]
        )
    out = [len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def fiber_power_triangulation_betti(f, p):
    """Betti numbers of an explicit triangulation of the fiber power.

    The cells from the geometric enumeration are ordered by componentwise
    inclusion; chains of that order, with the witness points as vertex
    coordinates, triangulate the fiber power.  Affine independence of every
    chain is verified over the rationals before the simplicial homology of
    the triangulation is computed with the naive dense machinery above.
    """
    cells, points = fiber_power_cells_geometric(f, p)
    flat = [tuple(c for x in pt for c in x) for pt in points]

    def below(a, b):
        return a != b and all(set(x).issubset(y) for x, y in zip(cells[a][1], cells[b][1]))

    n = len(cells)
    ups = [[j for j in range(n) if below(i, j)] for i in range(n)]

    # Chains of the inclusion order; extending past the top element is enough
    # because the order is transitive.
    chains = []
    stack = [(i,) for i in range(n)]
    while stack:
        chain = stack.pop()
        chains.append(tuple(sorted(chain)))
        for j in ups[chain[-1]]:
            stack.append(chain + (j,))
    chains = sorted(set(chains))

    for chain in chains:
        vectors = [
            [a - b for a, b in zip(flat[c], flat[chain[0]])] for c in chain[1:]
        ]
        if vectors:
            assert gauss_rank_fractions(vectors) == len(vectors), "degenerate chain"
    return naive_betti(chains)


def reeb_graph_rescan(g):
    """Exact Reeb graph of the PL extension of g, rescanning every level.

    Every level and every slab is rebuilt from all simplices of the
    2-skeleton: O(levels x simplices), kept as the reference for the event
    sweep.

    Only the 2-skeleton matters: the level set of any simplex is convex and
    its edge graph lives in the simplex's 2-faces, so components of level and
    slab sets match those computed from simplices of dimension <= 2.  Each
    sorted vertex value contributes one node per level-set component; each gap
    between consecutive values contributes one edge per slab component, and a
    slab component lies inside a single level component at both ends, which
    fixes the attachments.
    """
    k2 = g.complex.skeleton(2)
    simps = k2.simplices
    lo = {}
    hi = {}
    for s in simps:
        vals = [g.values[v] for v in s]
        lo[s] = min(vals)
        hi[s] = max(vals)
    vertices = [s[0] for s in k2.by_dim().get(0, ())]
    levels = sorted({g.values[v] for v in vertices})

    nodes = []
    node_id = {}
    level_class = []
    for i, t in enumerate(levels):
        members = [s for s in simps if lo[s] <= t <= hi[s]]
        classes = partition_up_closed(members)
        table = {}
        for ci, cls in enumerate(classes):
            node_id[(i, ci)] = len(nodes)
            nodes.append(ReebNode(len(nodes), t, i, ci))
            for s in cls:
                table[s] = ci
        level_class.append(table)

    edges = []
    for i in range(len(levels) - 1):
        lower_v, upper_v = levels[i], levels[i + 1]
        members = [s for s in simps if lo[s] <= lower_v and hi[s] >= upper_v]
        for cls in partition_up_closed(members):
            rep = cls[0]
            a = node_id[(i, level_class[i][rep])]
            b = node_id[(i + 1, level_class[i + 1][rep])]
            edges.append((a, b) if a <= b else (b, a))
    edges.sort()

    level_of_value = {t: i for i, t in enumerate(levels)}
    vertex_to_node = {}
    for v in vertices:
        i = level_of_value[g.values[v]]
        vertex_to_node[v] = node_id[(i, level_class[i][(v,)])]
    return ReebGraph(tuple(nodes), tuple(edges), vertex_to_node)


def reeb_space_scan(f):
    """The Reeb space of f from a partition of every S_tau.

    S_tau = {sigma : tau inside f(sigma)} is gathered for every face tau of
    every image and split into components under the face relation; stratum
    (tau, c) is the c-th class in the canonical order of first members.  A
    stratum's u-th facet is the stratum over tau minus tau[u] that holds its
    first member, and each simplex goes to the stratum over its exact image
    that holds it.  Returns a ReebComplex with these strata, facets and
    quotient images.
    """
    simplices = f.domain.simplices
    buckets = {}
    for s in simplices:
        image = f.image_simplex(s)
        for k in range(1, len(image) + 1):
            for tau in combinations(image, k):
                buckets.setdefault(tau, []).append(s)
    strata = []
    members = []
    comp_of = {}
    for tau in sorted(buckets, key=lambda t: (len(t), t)):
        table = {}
        for c, cls in enumerate(partition_up_closed(buckets[tau])):
            strata.append(Stratum(tau, c))
            members.append(tuple(cls))
            for s in cls:
                table[s] = c
        comp_of[tau] = table
    stratum_id = {(st.tau, st.component): i for i, st in enumerate(strata)}
    for stratum, cls in zip(strata, members):
        assert any(f.image_simplex(s) == stratum.tau for s in cls), stratum
    facets = []
    for stratum, cls in zip(strata, members):
        tau = stratum.tau
        faces = [tau[:u] + tau[u + 1 :] for u in range(len(tau))] if len(tau) > 1 else []
        facets.append(tuple(stratum_id[(face, comp_of[face][cls[0]])] for face in faces))
    exact = [
        stratum_id[(f.image_simplex(s), comp_of[f.image_simplex(s)][s])] for s in simplices
    ]
    return ReebComplex(f, tuple(strata), tuple(exact), tuple(facets))


def reeb_space_by_keeping_facets(f):
    """The Reeb space of f with every domain simplex joined to all of its
    image-keeping facets, the facets whose image is its own, and every id
    then walked to its root: the labeling that the swap rule of
    ``reeb_space`` replaced.  The smaller root wins each union, so a class
    is named by its smallest id; strata come in (tau, root) order, and a
    stratum's facet over tau minus tau[u] is the stratum of its root minus
    the root's vertex over tau[u].  Images are recomputed from the vertex
    images, not read off the package's image table.
    """
    simplices = f.domain.simplices
    index = {s: i for i, s in enumerate(simplices)}
    images = [tuple(sorted({f.vertex_images[v] for v in s})) for s in simplices]
    parent = list(range(len(simplices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, s in enumerate(simplices):
        for u in range(len(s) if len(s) > 1 else 0):
            g = index[s[:u] + s[u + 1 :]]
            if images[g] == images[i]:
                a, b = sorted((find(i), find(g)))
                parent[b] = a
    roots = sorted(
        (i for i in range(len(simplices)) if find(i) == i),
        key=lambda r: (len(images[r]), images[r], r),
    )
    stratum_of_root = {r: k for k, r in enumerate(roots)}
    exact = tuple(stratum_of_root[find(i)] for i in range(len(simplices)))
    strata = []
    facets = []
    over_tau = Counter()
    for r in roots:
        tau = images[r]
        strata.append(Stratum(tau, over_tau[tau]))
        over_tau[tau] += 1
        over = {f.vertex_images[v]: v for v in simplices[r]}
        facets.append(tuple(
            exact[index[tuple(v for v in simplices[r] if v != over[w])]]
            for w in (tau if len(tau) > 1 else ())
        ))
    return ReebComplex(f, tuple(strata), exact, tuple(facets))


def b1_rows_by_face_components(f):
    """The rows as built from ``connected_components``, whose neighbours are
    all proper faces inside the subset, before the split read the facet
    table."""
    k = f.domain
    rows = []
    for cls in connected_components(k, k.simplices):
        verts = sorted({v for s in cls for v in s})
        sub, _ = k.restrict_to_vertices(verts)
        restricted = SimplicialMap(sub, f.codomain, [f.vertex_images[v] for v in verts])
        b1_domain = betti(sub)[1]
        b1_reeb = reeb_space(restricted).betti()[1]
        rows.append({
            "vertices": len(verts), "b1_domain": b1_domain, "b1_reeb": b1_reeb,
            "holds": b1_reeb <= b1_domain,
        })
    return rows


def convolve(a, b):
    """Coefficient-wise convolution of two Betti vectors (Kunneth over Q)."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return BettiVector(())
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return BettiVector(out)


def cayley_tables(f):
    """The Cayley-trick parity tables of f's simplices: per simplex (ids in
    canonical order) a mask of the parities of sum_{u' < u} (m_u' - 1),
    m_u the vertices over tau[u]; its image-keeping facets as (facet,
    sign, 1 << u), the sign that of the facet within its own Delta(V_u);
    per u its trim over tau[u], or -1; and a mask of the u with a trim."""
    simps = f.domain.simplices
    index = {s: i for i, s in enumerate(simps)}
    masks, shrinks, trims, tmasks = [], [], [], []
    for s in simps:
        tau = f.image_simplex(s)
        over = [tau.index(f.vertex_images[v]) for v in s]
        counts = [over.count(u) for u in range(len(tau))]
        mask, parity = 0, 0
        for u, m in enumerate(counts):
            mask |= parity << u
            parity ^= m - 1 & 1
        masks.append(mask | parity << len(counts))
        shrinks.append([
            (index[s[:j] + s[j + 1 :]], (-1) ** ((mask >> u) + over[:j].count(u) + u & 1), 1 << u)
            for j, u in enumerate(over) if counts[u] > 1
        ])
        trims.append([
            index[tuple(v for v, w in zip(s, over) if w != u)] if m == 1 < len(tau) else -1
            for u, m in enumerate(counts)
        ])
        tmasks.append(sum(1 << u for u, x in enumerate(trims[-1]) if x >= 0))
    return masks, shrinks, trims, tmasks


def morse_facets_unpruned(tables, cell):
    """Every facet of a power cell, a tuple of simplex ids, with its
    closed-form sign, from ``cayley_tables``."""
    masks, shrinks, trims, tmasks = tables
    out, total, common = [], 0, -1
    for s in cell:
        total ^= masks[s]
        common &= tmasks[s]
    before, after = 0, total
    for k, s in enumerate(cell):
        after ^= masks[s]
        head, tail, flip = cell[:k], cell[k + 1 :], before ^ after
        out += [(head + (x,) + tail, -e if flip & bit else e) for x, e, bit in shrinks[s]]
        before ^= masks[s] >> 1
    for u in range(common.bit_length()):
        if common >> u & 1:
            sign = -1 if u + (total >> u) & 1 else 1
            out.append((tuple(trims[s][u] for s in cell), sign))
    return out


def critical_cells(model, p):
    """The (p+1)-fold power's critical cells, tuples of critical simplices
    of one group, in the engine's mixed-radix order, with their taus."""
    return [
        (tau, cell)
        for tau, members in zip(model.taus, model.critical)
        for cell in product(members, repeat=p + 1)
    ]


def koszul_signs(f, model, p):
    """sigma(c) of each critical cell c of the (p+1)-fold power, in the
    engine's order: (-1)^(sum_{k<k'} sum_{u>u'} n_(k,u) n_(k',u') + d sum_k
    k N_k), with n_(k,u) = m_(k,u) - 1 for the m_(k,u) vertices of
    component k over tau[u], N_k = sum_u n_(k,u) and d = dim tau."""
    simps, out = f.domain.simplices, []
    for tau, cell in critical_cells(model, p):
        n = []
        for s in cell:
            over = [tau.index(f.vertex_images[v]) for v in simps[s]]
            n.append([over.count(u) - 1 for u in range(len(tau))])
        e = sum(
            n[k][u] * n[k2][u2]
            for k, k2 in combinations(range(p + 1), 2)
            for u2, u in combinations(range(len(tau)), 2)
        )
        e += (len(tau) - 1) * sum(k * sum(row) for k, row in enumerate(n))
        out.append(-1 if e & 1 else 1)
    return out


def morse_complex_unpruned(f, p, label=None):
    """Dimensions and Morse boundaries of the (p+1)-fold power's critical
    cells, numbered as the engine numbers them, by the gradient flow of the
    first-non-critical lift of the engine's group matching over every facet
    of every cell met, with Cayley-trick signs.  Upper cells flow to 0, a
    lower cell y of partner u to -[u:y] times the flow of u's other facets;
    memoised, on an explicit stack."""
    model = _MorseModel(f, label)
    tables = cayley_tables(f)
    mate, cells, dims = model.mate, [], []
    for tau, cell in critical_cells(model, p):
        cells.append(cell)
        dims.append(sum(model.dims[s] for s in cell) - p * (len(tau) - 1))
    cid, memo, bounds = {cell: j for j, cell in enumerate(cells)}, {}, []
    for cell, d in zip(cells, dims):
        if not d:
            bounds.append({})
            continue
        stack, pending = [(cell, None)], set()
        while stack:
            y, fs = stack[-1]
            if fs is None:
                u = y
                if y is not cell:
                    if y in memo:
                        stack.pop()
                        continue
                    k = next(k for k, s in enumerate(y) if mate[s] >= 0)
                    if mate[y[k]] < y[k]:
                        memo[y] = {}
                        stack.pop()
                        continue
                    if y in pending:
                        raise InvariantError(f"the gradient flow from cell {y} returns to it")
                    pending.add(y)
                    u = y[:k] + (mate[y[k]],) + y[k + 1 :]
                fs = morse_facets_unpruned(tables, u)
                stack[-1] = (y, fs)
                depth = len(stack)
                stack += [(z, None) for z, _ in fs if z != y and z not in memo and z not in cid]
                if len(stack) > depth:
                    continue
            own = -1 if y is cell else 0
            out = {}
            for z, e in fs:
                if z == y:
                    own = e
                elif z in cid:
                    out[cid[z]] = out.get(cid[z], 0) + e
                else:
                    for j, v in memo[z].items():
                        out[j] = out.get(j, 0) + e * v
            if not own:
                raise InvariantError(f"cell {y} is not a facet of its partner")
            memo[y] = {j: -own * v for j, v in out.items() if v}
            stack.pop()
        bounds.append(memo.pop(cell))
    return dims, bounds


def levels_by_fraction_sort(g):
    """(levels, level_of) of a PL function: its sorted distinct values at the
    0-simplices of its complex, as Fractions, and each such vertex's
    position among them."""
    vertices = sorted(s[0] for s in g.complex.simplex_set if len(s) == 1)
    levels = sorted({g.values[v] for v in vertices})
    position = {t: i for i, t in enumerate(levels)}
    return levels, {v: position[g.values[v]] for v in vertices}


def slice_cells_and_up_sets(g):
    """(cells, ups) of the level slice of a PL function, built as before the
    closed form: a ``{level: id}`` dict of cells per simplex, and each cell's
    up-set gathered from the dicts of its simplex and of every proper coface
    at c - 1, c and c + 1 (a value cell) or at c (a gap cell), then sorted.
    Cell (sigma, 2i) is sigma at level i, (sigma, 2i + 1) sigma over the gap
    above level i."""
    simps = _canonical(g.complex.simplex_set)
    _, level_of = levels_by_fraction_sort(g)
    cells = []
    cell_of = []
    for s in simps:
        span = [level_of[v] for v in s]
        lo, hi = min(span), max(span)
        own = [2 * lo] if lo == hi else (
            [2 * i for i in range(lo + 1, hi)] + [2 * i + 1 for i in range(lo, hi)]
        )
        ids = {}
        for c in own:
            ids[c] = len(cells)
            cells.append((s, c))
        cell_of.append(ids)
    hosts = [[sid] for sid in range(len(simps))]
    for i, j in face_pairs_by_combinations(simps):
        hosts[i].append(j)
    ups = []
    for sid, ids in enumerate(cell_of):
        for c, me in ids.items():
            targets = (c, c - 1, c + 1) if c % 2 == 0 else (c,)
            bigger = [
                cell_of[host][c2]
                for host in hosts[sid]
                for c2 in targets
                if c2 in cell_of[host] and cell_of[host][c2] != me
            ]
            ups.append(tuple(sorted(bigger)))
    return cells, ups


def slice_up_sets_by_level(g):
    """The up-sets of the level slice of a PL function in its cell order, as
    the closed form built them one level at a time: a simplex spanning
    levels lo < hi has value cells at lo + 1..hi - 1, then gap cells at
    lo..hi - 1, and a value cell's up-set at level i holds its simplex's two
    gap cells there and, for each proper coface, that coface's value cell
    at i and its gap cells below and above i; a gap cell's at i holds each
    proper coface's gap cell at i.  A simplex on one level has its one
    value cell there, with the cells of its cofaces that meet the level."""
    simps = _canonical(g.complex.simplex_set)
    _, level_of = levels_by_fraction_sort(g)
    spans = [(min(level_of[v] for v in s), max(level_of[v] for v in s)) for s in simps]
    v0, g0, n = [], [], 0
    for lo, hi in spans:
        v0.append(n - lo if lo == hi else n - lo - 1)
        g0.append(n + hi - 2 * lo - 1)
        n += 1 if lo == hi else 2 * (hi - lo) - 1
    above = [[] for _ in simps]
    for i, j in face_pairs_by_combinations(simps):
        above[i].append(j)
    ups = []
    for s, (lo, hi) in enumerate(spans):
        up = sorted(above[s])
        if lo == hi:
            cell = []
            for t in up:
                tlo, thi = spans[t]
                if tlo < lo < thi:
                    cell += (v0[t] + lo, g0[t] + lo - 1, g0[t] + lo)
                elif tlo < lo:
                    cell.append(g0[t] + lo - 1)
                elif lo < thi:
                    cell.append(g0[t] + lo)
                else:
                    cell.append(v0[t] + lo)
            ups.append(tuple(cell))
            continue
        for i in range(lo + 1, hi):
            cell = [g0[s] + i - 1, g0[s] + i]
            for t in up:
                cell += (v0[t] + i, g0[t] + i - 1, g0[t] + i)
            ups.append(tuple(cell))
        for i in range(lo, hi):
            ups.append(tuple(g0[t] + i for t in up))
    return ups


def chains_by_stack(n, ups):
    """Every chain of the poset on 0..n-1 with the given transitive up-sets,
    by depth-first extension from each start, in that visiting order."""
    chains = []
    for start in range(n):
        stack = [(start,)]
        while stack:
            chain = stack.pop()
            chains.append(chain)
            stack.extend(chain + (j,) for j in ups[chain[-1]])
    return chains


def chains_by_extension(ups):
    """Every chain of the poset on 0..len(ups)-1 with the given transitive
    up-sets, in canonical order, as the generic loop built them before the
    chains of length 2 and 3 became tuple displays: each chain of one
    length, starting from the 1-tuples, is extended by concatenation with
    every id above its top."""
    chains = []
    level = [(i,) for i in range(len(ups))]
    while level:
        chains += level
        level = [c + (j,) for c in level for j in ups[c[-1]]]
    return chains


def level_spans_per_simplex(k, level_of):
    """(lo, hi): the lowest and highest level of each simplex of k, in id
    order, by one ``min`` and one ``max`` over each simplex's levels."""
    spans = [[level_of[v] for v in s] for s in k.simplices]
    return list(map(min, spans)), list(map(max, spans))


def dot_by_fstrings(graph):
    """DOT text of a Reeb graph as the writer built it before its lines
    were formatted in bulk: one f-string per node and per edge."""
    lines = ["graph reeb {"]
    for node in graph.nodes:
        lines.append(f'  n{node.id} [label="value={node.value}"];')
    for a, b in graph.edges:
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def quotient_group_sizes_sorted(simplices, strata):
    """The group sizes of the Reeb quotient map sd(K) -> R, from K's face
    pairs: chains ending at each simplex, keyed by their set of strata, a
    key extended by a membership scan and a sort."""
    ending = [Counter({(s,): 1}) for s in strata]
    for i, j in face_pairs_by_combinations(simplices):
        top = strata[j]
        for key, n in ending[i].items():
            ending[j][key if top in key else tuple(sorted(key + (top,)))] += n
    sizes = Counter()
    for counts in ending:
        sizes.update(counts)
    return list(sizes.values())


def sign_condition_double_sum(top, d, k):
    """sum_{i=0}^{k} sum_{j=0}^{k-i} C(top, j) 6^j d (2d-1)^(k-1), term by term."""
    return sum(
        comb(top, j) * 6**j * d * (2 * d - 1) ** (k - 1)
        for i in range(k + 1)
        for j in range(k - i + 1)
    )
