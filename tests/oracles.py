"""Independent verification machinery for the test suite.

Everything in here is deliberately written from scratch against the math,
not against the package internals: naive dense linear algebra over exact
fractions, an integer Smith-form rank, geometric level-set component counts
from edge crossings, face-relation partitions over a dictionary union-find,
and a coordinate-level triangulation of fiber powers.  ``reeb_graph_rescan``
is the per-level rescan that the event sweep in ``reebforge.reeb`` replaced,
and ``partition_up_closed`` the per-family sort-and-index partition that the
package's coface-index union-find replaced; both are kept to check the
production paths against.  Likewise ``fiber_power_cells_tuples`` is the
tuple-keyed fiber-power cell enumerator that mixed-radix cell ids replaced,
and ``collapse_face_poset_sets`` the collapse that kept a set of covers per
cell.  ``betti_numbers_uncleared`` is the cellular Betti assembly that ranked
every boundary matrix in full before clearing on the coboundaries replaced
it, and ``first_non_simplicial`` the simplex check that walked the domain in
canonical order before the map check became sort-free.  Only the result
types come from the package.
"""

import heapq
from fractions import Fraction
from math import gcd
from itertools import combinations, product

from reebforge.reeb import ReebGraph, ReebNode


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


def first_non_simplicial(domain_simplices, codomain_simplices, vertex_images):
    """First domain simplex, in (dimension, lexicographic) order, whose image
    vertex set is not a codomain simplex; None when the map is simplicial."""
    targets = {tuple(sorted(t)) for t in codomain_simplices}
    for s in _canonical(domain_simplices):
        if tuple(sorted({vertex_images[v] for v in s})) not in targets:
            return s
    return None


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
