"""Exact rational homology on one cellular core.

A complex is given as a face poset: the dimension and the codimension-one
faces of every cell.  One greedy free-face collapse shrinks it (collapses
preserve the homotopy type, so they change nothing but the matrix sizes),
incidence signs are fixed on the core, and one assembly reads the Betti
numbers off the ranks of the coboundary matrices, taken bottom up over the
dimensions with clearing; the rank in degree 0 is a component count of the
1-skeleton, by union-find.  A Delta-complex, a simplicial complex or a Reeb
space's strata, is read as its facet table, with the known sign (-1)**u for
its u-th face; a fiber power's Morse complex (``fiberprod``) brings its own,
and ``regular_cw_betti`` propagates them for the tests' reference.  Ranks
come from one fraction-free integer elimination (cross-multiplication plus
a gcd sweep per updated column) that returns its pivot rows, so every Betti
number is exact.  Clearing (Chen and Kerber, "Persistent homology
computation with a twist", 2011, here on the coboundary as in Bauer's
Ripser) skips each d-cell that was a pivot row of the previous coboundary,
since its column would reduce to zero; that is a theorem over any field,
so no rank is approximated.
"""

from __future__ import annotations

import heapq
from math import gcd

from .complexes import SimplicialComplex
from .errors import InvariantError, _collector_paused


class BettiVector:
    """Betti numbers by dimension, trailing zeros trimmed."""

    __slots__ = ("numbers",)

    def __init__(self, numbers):
        numbers = tuple(int(b) for b in numbers)
        while numbers and numbers[-1] == 0:
            numbers = numbers[:-1]
        self.numbers = numbers

    @property
    def total(self):
        return sum(self.numbers)

    @property
    def euler(self):
        return sum((-1) ** d * b for d, b in enumerate(self.numbers))

    def __getitem__(self, d):
        if 0 <= d < len(self.numbers):
            return self.numbers[d]
        return 0

    def __len__(self):
        return len(self.numbers)

    def __iter__(self):
        return iter(self.numbers)

    def as_list(self):
        return list(self.numbers)

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self.numbers == other.numbers
        try:
            return self.numbers == BettiVector(other).numbers
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self.numbers)

    def __repr__(self):
        return f"BettiVector{self.numbers}"


def collapse_face_poset(facets):
    """Greedy elementary collapse on the face poset of a regular cell complex.

    ``facets[c]`` lists the codimension-one faces of cell c, with no id
    repeated inside one list; every regular complex has that property, since
    distinct facets are distinct cells.  A cell is free exactly when it has a
    single covering cell and that cover is maximal; the pair is then removed,
    smallest free id first, so the result is deterministic.  The covering
    relation is all that is needed: any deeper coface would force a second
    cover by the diamond property.  Each cell keeps only the number of its
    live covers and the XOR of their ids, which is the cover itself when the
    number is one; removing a cover decrements the one and XORs the other.
    Returns (kept, core_facets): the surviving ids in ascending order and
    their facets renumbered to positions in ``kept``.
    """
    n = len(facets)
    count = [0] * n
    xor = [0] * n
    for c, fs in enumerate(facets):
        for g in fs:
            count[g] += 1
            xor[g] ^= c
    alive = [True] * n
    heap = [i for i in range(n) if count[i] == 1]
    heapq.heapify(heap)
    while heap:
        i = heapq.heappop(heap)
        if not alive[i] or count[i] != 1:
            continue
        j = xor[i]
        if count[j]:  # j is live: count/XOR track only live covers
            continue
        alive[i] = alive[j] = False
        for gone in (i, j):
            for g in facets[gone]:
                if not alive[g]:
                    continue
                count[g] -= 1
                xor[g] ^= gone
                if count[g] == 1:
                    heapq.heappush(heap, g)
                elif not count[g]:
                    for h in facets[g]:  # a live cell's facets are all live
                        if count[h] == 1:
                            heapq.heappush(heap, h)
    kept = [i for i in range(n) if alive[i]]
    position = [0] * n
    for k, i in enumerate(kept):
        position[i] = k
    return kept, [[position[g] for g in facets[i]] for i in kept]


def free_face_collapse(simplices):
    """Greedy elementary collapse of a simplicial complex; returns the
    surviving simplex set.

    The complex's facet table goes through ``collapse_face_poset``, in
    canonical order, so the result is deterministic.  Each removal is an
    elementary collapse, so the homotopy type is untouched.
    """
    k = SimplicialComplex._from_canonical(1 + max(map(max, simplices), default=-1), simplices)
    kept, _ = collapse_face_poset(k.facets)
    return {k.simplices[i] for i in kept}


def _pivot_rows(columns):
    """Pivot rows of a sparse integer matrix given as row->value column dicts.

    Columns are consumed left to right; each is reduced against previously
    found pivot columns (pivot row = largest remaining row index) by integer
    cross-multiplication, with a gcd division keeping entries small.  A column
    that does not reduce to zero adds its lowest row.  The pivot order is
    deterministic, so reduced columns are reproducible.  Returns the set of
    pivot rows; the reduced columns are dropped with the call.  A column
    holds no zero entry, and is read, never changed.
    """
    pivots = {}
    # Taken as given: every producer, and rank_fraction_free, hands over zero-free columns.
    for col in columns:
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
                    if g == 1:
                        break
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return set(pivots)


def rank_fraction_free(columns):
    """Exact rank of a sparse integer matrix given as row->value column dicts:
    the number of pivots of its fraction-free reduction.  Explicit zero
    entries are allowed; they are dropped here, as ``_pivot_rows`` takes none."""
    return len(_pivot_rows({r: v for r, v in col.items() if v} for col in columns))


def _betti_numbers(dims, boundaries):
    """Betti vector of a cellular chain complex.

    ``boundaries[c]`` maps each facet id of cell c, or critical cell of a
    Morse complex, to its incidence; no producer passes a zero entry.  The
    ranks come from the coboundaries, bottom up: delta^d has the d-cells as
    columns and the (d+1)-cells as rows, and rank delta^d = rank of the
    boundary on the (d+1)-cells.  Rows and columns are the cells' own ids,
    with no table renumbering each dimension from 0: within one dimension id
    order is that numbering's order, so a column's largest id is the pivot
    row that numbering would pick, and clearing skips the same columns.

    Degree 0 needs no elimination: every 1-cell has boundary a - b for two
    distinct 0-cells, or 0 for a Morse complex's loop (anything else raises
    InvariantError), so rank delta^0 is the number of 0-cells minus the
    number of components of the 1-skeleton, the size of a spanning forest.
    One union-find, its path-halving find inlined, walks the 1-cells in
    descending id order and keeps those that join two trees.
    Those forest 1-cells are cleared from delta^1: for a forest edge e, the
    cut cochain of one side A of T - e, T the tree of e, is delta^0 of the
    indicator of A, and e is its only forest edge.  Since delta^1 delta^0 =
    0, delta^1 e lies in the span of the non-forest columns.

    Higher degrees are cleared the same way (Chen and Kerber): a d-cell that
    is the pivot row of a reduced column of delta^(d-1) is a column of
    delta^d that lies in the span of the columns before it (the reduced
    column is a cocycle with that lowest row), so it would reduce to zero
    and is skipped.  So is an empty column, which adds no pivot.
    """
    by_dim = {}
    for c, d in enumerate(dims):
        by_dim.setdefault(d, []).append(c)
    top = max(by_dim, default=-1)
    ranks = [0] * (top + 2)
    cleared = ()
    if top > 0:
        # Indexed by id up to the last 0-cell: a Delta complex lists its
        # 0-cells first, so its forest needs no slot for a higher cell.
        zeros = by_dim.get(0, ())
        parent = list(range(zeros[-1] + 1 if zeros else 0))
        cleared = set()
        for c in reversed(by_dim.get(1, ())):
            ends = boundaries[c]
            if not ends:
                continue
            if len(ends) != 2:
                raise InvariantError(f"1-cell {c} has boundary {ends}, not a - b")
            (a, x), (b, y) = ends.items()
            if x != -y or x not in (1, -1):
                raise InvariantError(f"1-cell {c} has boundary {ends}, not a - b")
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                cleared.add(c)
        ranks[1] = len(cleared)
    for d in range(1, top):
        coboundary = {c: {} for c in by_dim.get(d, ())}
        for c in by_dim.get(d + 1, ()):
            for g, e in boundaries[c].items():
                coboundary[g][c] = e
        cleared = _pivot_rows(
            col for c, col in coboundary.items() if col and c not in cleared
        )
        ranks[d + 1] = len(cleared)
    return BettiVector(len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def _delta_betti(dims, facets):
    """Betti vector of a Delta-complex: ``facets[c][u]``, the u-th face of
    cell c, has incidence (-1)**u.  The free-face collapse goes first; a
    kept cell keeps every face, each at its place u."""
    kept, core = collapse_face_poset(facets)
    boundaries = [{g: -1 if u % 2 else 1 for u, g in enumerate(fs)} for fs in core]
    return _betti_numbers([dims[i] for i in kept], boundaries)


@_collector_paused
def betti(complex_):
    """Betti vector over the rationals; a simplex's u-th face omits vertex u."""
    return _delta_betti([len(s) - 1 for s in complex_.simplices], complex_.facets)


def euler_characteristic(complex_):
    """Alternating simplex count."""
    return sum((-1) ** d * n for d, n in enumerate(complex_.simplex_counts()))


def regular_cw_betti(dims, facets):
    """Betti vector of a regular cell complex given by its facet relation.

    ``dims[c]`` is the dimension of cell c and ``facets[c]`` its codimension-
    one faces.  Incidence signs exist for any regular complex whose closed
    cells are polytopes: every ridge of a cell lies in exactly two of its
    facets, so signs propagate along the facet graph from an arbitrary seed,
    and the two-facet condition is exactly the boundary-of-boundary identity.
    Both facts are checked cell by cell; a violation raises InvariantError.
    """
    boundaries = [{} for _ in dims]
    for c in sorted(range(len(dims)), key=dims.__getitem__):
        d = dims[c]
        if d == 0:
            continue
        fs = sorted(facets[c])
        if d == 1:
            if len(fs) != 2 or fs[0] == fs[1]:
                raise InvariantError(f"1-cell {c} lacks two distinct endpoints")
            boundaries[c] = {fs[0]: 1, fs[1]: -1}
            continue
        ridges = {}
        for fa in fs:
            for g in facets[fa]:
                ridges.setdefault(g, []).append(fa)
        neighbors = {fa: [] for fa in fs}
        for g, pair in ridges.items():
            if len(pair) != 2:
                raise InvariantError(f"ridge {g} of cell {c} lies in {len(pair)} facets, not 2")
            fa, fb = pair
            neighbors[fa].append((g, fb))
            neighbors[fb].append((g, fa))
        sign = {fs[0]: 1}
        queue = [fs[0]]
        while queue:
            fa = queue.pop()
            for g, fb in neighbors[fa]:
                wanted = -sign[fa] * boundaries[fa][g] * boundaries[fb][g]
                known = sign.get(fb)
                if known is None:
                    sign[fb] = wanted
                    queue.append(fb)
                elif known != wanted:
                    raise InvariantError(f"inconsistent orientation around cell {c}")
        if len(sign) != len(fs):
            raise InvariantError(f"facet graph of cell {c} is disconnected")
        boundaries[c] = sign
    return _betti_numbers(dims, boundaries)


def betti_report(complex_):
    """Report document for a Betti computation."""
    bv = betti(complex_)
    return {
        "betti": bv.as_list(),
        "total": bv.total,
        "euler": euler_characteristic(complex_),
    }

