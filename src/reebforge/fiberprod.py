"""Iterated fiber powers of simplicial maps and the descent-inequality check.

The (p+1)-fold fiber power W_p = X x_f ... x_f X has one production engine,
the cell model, and one independent reference, the nerve.

The cell model decomposes W_p itself: the tuples (r0..rp) of simplices with
one common exact image form a regular polytopal cell structure on W_p (cell =
fiber product of the closed simplices), its face poset is ordered
componentwise, and cellular homology on that poset gives the Betti numbers.
The poset is polynomial in the input, and free pairs are collapsed away, in
the domain and then in the power, before the ranks are taken.
``fiber_power_betti`` (engine "auto" or "cells") and ``descent_check`` run
only this model.

Cells carry no keys.  Over each tau the cells are the (p+1)-tuples of the
simplices of exact image tau, numbered in mixed radix by the positions of
their components, so a cell is just an int.  Every facet id is integer
arithmetic on the cell's id with two tables built once per simplex: the
positions of the shrinks that keep its image (type-(a) facets change one
digit) and, for each vertex t of tau, the position of the simplex trimmed of
its vertex over t (type-(b) facets are a Horner sum in the radix of tau - t).
The collapse that follows keeps per cell only a count and an XOR of its live
covers, see ``homology.collapse_face_poset``.

Before any power is enumerated, the domain itself is collapsed along the
fibers, once per map: the same greedy collapse, keyed on the exact image,
removes only vertical free pairs, a simplex sigma and its only coface
sigma' with f(sigma) = f(sigma'), sigma' maximal.  A fiber of n simplices
carries n**(p+1) cells, so each simplex removed there removes many cells of
every power.  The Betti numbers do not change, because removing one
vertical pair from X, leaving f', collapses W_p(f) onto W_p(f'): match each
cell that has a component in {sigma, sigma'} with the cell that toggles its
first such component, at index k, between sigma and sigma'.  The pair is a
type-(a) facet relation, since the vertex of sigma' missing from sigma has
an image that repeats.  The unmatched cells are exactly those of W_p(f'), a
subcomplex.  The matching is acyclic (Forman, "Morse theory for cell
complexes", 1998): along a V-path, each further facet of an upper cell
either leaves the set of lower cells or raises k strictly.  A type-(b) facet
drops the image to tau - t, so none of its components is sigma or sigma'.
Shrinking a component before k cannot give sigma or sigma', because sigma'
is sigma's only coface and sigma' is maximal; shrinking one after k leaves
sigma' at k, an upper cell.  Shrinking sigma' at k by another vertex moves
the first component in {sigma, sigma'} past k, or removes it.  Hence
W_p(f) collapses onto W_p(f') and, by induction over the pairs removed, onto
the power of the collapsed map.  The cell cap still counts the cells of the
unreduced power, so the collapse never changes which inputs are refused.

The nerve model covers W_p by the closed convex cells
P_(s0..sp) = {(x0..xp) in s0 x ... x sp : f(x0) = ... = f(xp)} over tuples of
maximal simplices; all intersections of cover cells are convex, so the nerve
is homotopy equivalent to W_p and its Betti numbers are exact.  The nerve is
enumerated face by face and therefore only fits small inputs: around any
domain vertex of maximal-simplex degree g the cover contains g**(p+1) cells
through the diagonal with a common point, giving the nerve a simplex on
g**(p+1) vertices and 2**(g**(p+1)) faces.  It is reached only by an explicit
``engine="nerve"``, and the test suite checks the cell model against it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .complexes import SimplicialComplex, SimplicialMap, simplex_key
from .errors import BudgetExceededError, InvalidParamsError
from .homology import _facet_ids, betti, collapse_face_poset, regular_cw_betti
from .reeb import reeb_space

DEFAULT_CELL_CAP = 200_000
CELL_CAP_ENV = "REEBFORGE_CELL_CAP"


def resolve_cell_cap(cell_cap=None):
    """Explicit cap, else the environment override, else the default.

    The cap must be a positive integer; anything else raises
    InvalidParamsError.
    """
    if cell_cap is None:
        cell_cap = os.environ.get(CELL_CAP_ENV) or DEFAULT_CELL_CAP
    try:
        cap = int(cell_cap)
    except ValueError:
        raise InvalidParamsError(f"cell cap must be an integer, got {cell_cap!r}") from None
    _require_at_least("cell cap", cap, 1)
    return cap


def _require_at_least(name, value, low):
    if value < low:
        raise InvalidParamsError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class NerveComplex:
    """Nerve of the closed convex cover of a fiber power.

    ``cover_index[i]`` is the (p+1)-tuple of maximal domain simplices behind
    nerve vertex i.
    """

    cover_index: tuple
    nerve: SimplicialComplex


def fiber_power_nerve(f, p, cell_cap=None):
    """Nerve of the maximal-simplex cover of the (p+1)-fold fiber power.

    A tuple of maximal simplices is a cover vertex iff the intersection of
    their images is nonempty; a set of tuples spans a nerve simplex iff all
    componentwise simplex intersections are nonempty and the images of those
    intersections share a codomain vertex.  Enumeration aborts with
    BudgetExceededError, stage "nerve cover", once the cover passes the cap
    (or one codomain vertex's tuples alone pass four times the cap), and
    stage "nerve simplices" once the simplex count passes the cap.
    """
    _require_at_least("p", p, 0)
    cap = resolve_cell_cap(cell_cap)
    maximal = f.domain.maximal_simplices
    by_cod_vertex = {}
    for s in maximal:
        for w in f.image_simplex(s):
            by_cod_vertex.setdefault(w, []).append(s)

    cover = set()
    for w in sorted(by_cod_vertex):
        group = by_cod_vertex[w]
        count = len(group) ** (p + 1) + len(cover)
        if count > 4 * cap:
            raise BudgetExceededError(
                f"cover for codomain vertex {w} alone exceeds the cap of {cap}",
                cap=cap, stage="nerve cover", count=count,
            )
        cover.update(itertools.product(group, repeat=p + 1))
    cover = sorted(cover, key=lambda t: tuple(simplex_key(s) for s in t))
    if len(cover) > cap:
        raise BudgetExceededError(
            f"{len(cover)} cover cells exceed the cap of {cap}",
            cap=cap, stage="nerve cover", count=len(cover),
        )

    images = {s: set(f.image_simplex(s)) for s in maximal}
    vertex_sets = [tuple(set(s) for s in tup) for tup in cover]

    simplices = []
    stack = []
    for i in reversed(range(len(cover))):
        stack.append(((i,), vertex_sets[i]))
    while stack:
        ids, rhos = stack.pop()
        simplices.append(ids)
        if len(simplices) > cap:
            raise BudgetExceededError(
                f"nerve enumeration passed the cap of {cap}",
                cap=cap, stage="nerve simplices", count=len(simplices),
            )
        for j in range(ids[-1] + 1, len(cover)):
            other = vertex_sets[j]
            new_rhos = []
            for a, b in zip(rhos, other):
                c = a & b
                if not c:
                    break
                new_rhos.append(c)
            else:
                witness = None
                for rho in new_rhos:
                    img = {f.vertex_images[v] for v in rho}
                    witness = img if witness is None else witness & img
                    if not witness:
                        break
                if witness:
                    stack.append((ids + (j,), new_rhos))
    nerve = SimplicialComplex(len(cover), simplices, check=False)
    return NerveComplex(tuple(cover), nerve)


def _exact_image_groups(f):
    """The domain simplices of each exact image, in canonical order."""
    groups = {}
    for s in f.domain.simplices:
        groups.setdefault(f.image_simplex(s), []).append(s)
    return groups


def _vertical_collapse(f):
    """f over its domain collapsed along the fibers, built once per map.

    ``collapse_face_poset`` keyed on the exact image removes the vertical
    free pairs, smallest free id first; the module docstring shows that no
    fiber power changes its Betti numbers.  Returns f itself when the domain
    has no vertical free pair; that case is stored as False, since storing f
    would make f a reference cycle that outlives its last use.
    """
    if f._vertical is None:
        simplices = f.domain.simplices
        kept, _ = collapse_face_poset(
            _facet_ids(simplices), [f.image_simplex(s) for s in simplices]
        )
        if len(kept) == len(simplices):
            f._vertical = False
        else:
            domain = SimplicialComplex._from_canonical(
                f.domain.num_vertices, [simplices[i] for i in kept]
            )
            f._vertical = SimplicialMap(domain, f.codomain, f.vertex_images, check=False)
    return f._vertical or f


def _cell_poset(f, p):
    """Dimensions and facet (cover) relations of the fiber power's cells.

    A cell is a tuple (rho_0..rho_p) of simplices sharing one exact image
    tau; its polytope is the fiber product of the closed simplices, of
    dimension sum(dim rho_k) - p*dim(tau).  Its facets are (a) one component
    shrunk by a vertex whose image repeats inside it, and (b) for a codomain
    vertex t of tau covered exactly once in every component, all components
    shrunk by their vertex over t (the common image drops to tau minus t).

    Cells are numbered arithmetically: with ``groups[tau]`` the simplices of
    exact image tau in canonical order, n = len(groups[tau]) and pos_k the
    position of rho_k there, the cell's id is
    ``base[tau] + sum_k pos_k * n**(p-k)``, taus in canonical order.  Ids are
    a linear extension of the face order.  A type-(a) facet then differs from
    its cell in one digit, and a type-(b) facet is the Horner sum of the
    trimmed positions in radix len(groups[tau - t]).  Returns (dims, facets);
    the caller checks the cell count against the cap.
    """
    images = f.vertex_images
    groups = _exact_image_groups(f)
    taus = sorted(groups, key=simplex_key)

    position = {}
    base = {}
    start = 0
    for tau in taus:
        base[tau] = start
        start += len(groups[tau]) ** (p + 1)
        for q, s in enumerate(groups[tau]):
            position[s] = q

    dims = []
    facets = []
    for tau in taus:
        group = groups[tau]
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
        # position in groups[tau - t] of the simplex without its vertex over
        # t, or None when t is not covered exactly once.
        columns = []
        for t in tau if len(tau) > 1 else ():
            sub = tuple(x for x in tau if x != t)
            column = []
            for rho in group:
                over_t = [v for v in rho if images[v] == t]
                if len(over_t) == 1:
                    column.append(position[tuple(v for v in rho if v != over_t[0])])
                else:
                    column.append(None)
            columns.append((base[sub], len(groups[sub]), column))
        dim_of = [len(rho) - 1 for rho in group]
        drop = p * (len(tau) - 1)
        cid = base[tau]
        for tup in itertools.product(range(n), repeat=p + 1):
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


def _fiber_power_cells_betti(f, p, cap):
    """Betti vector of the (p+1)-fold fiber power of f, by the cell model
    over f's vertical collapse.

    The cap is checked once, on the cells of f's own, unreduced power.
    """
    total = sum(len(g) ** (p + 1) for g in _exact_image_groups(f).values())
    if total > cap:
        raise BudgetExceededError(
            f"{total} fiber-power cells exceed the cap of {cap}",
            cap=cap, stage="fiber-power cells", count=total,
        )
    dims, facets = _cell_poset(_vertical_collapse(f), p)
    kept, core = collapse_face_poset(facets)
    return regular_cw_betti([dims[i] for i in kept], core)


def fiber_power_betti(f, p, engine="auto", cell_cap=None):
    """Betti vector of the (p+1)-fold fiber power of f.

    ``engine`` is "auto" (the default) or "cells", which both run the cell
    model, or "nerve", which enumerates the nerve of the convex cover of the
    unreduced map as an independent reference; the nerve only fits small
    maximal-simplex degrees and raises BudgetExceededError past the cap.
    """
    _require_at_least("p", p, 0)
    cap = resolve_cell_cap(cell_cap)
    if engine == "nerve":
        return betti(fiber_power_nerve(f, p, cap).nerve)
    if engine not in ("auto", "cells"):
        raise InvalidParamsError(f"unknown engine {engine!r}")
    return _fiber_power_cells_betti(f, p, cap)


def image_subcomplex(f):
    """The subcomplex of the codomain spanned by the image simplices."""
    return SimplicialComplex(
        f.codomain.num_vertices,
        {f.image_simplex(s) for s in f.domain.simplices},
    )


def descent_check(f, target="image", p_max=1, cell_cap=None, threads=1):
    """Verify b_p(target) <= sum_{i+j=p} b_i((j+1)-fold fiber power), p <= p_max.

    With target "image" the fiber powers are taken over f itself and the
    target is f's image subcomplex; with target "reeb" they are taken over
    the quotient map onto the Reeb realization.  The powers come from the
    cell model, and all of them share the one vertical collapse of that
    map's domain.  The inequality is a theorem for these maps, so a failing
    row signals an implementation bug.  ``threads`` has no effect: it is
    accepted (and must be >= 1) only for callers that still pass it.
    """
    _require_at_least("p_max", p_max, 0)
    _require_at_least("threads", threads, 1)
    cap = resolve_cell_cap(cell_cap)
    if target == "image":
        target_betti = betti(image_subcomplex(f))
        power_map = f
    elif target == "reeb":
        space = reeb_space(f)
        target_betti = space.betti()
        power_map = space.quotient_map
    else:
        raise InvalidParamsError(f"unknown target {target!r}")

    powers = [fiber_power_betti(power_map, j, cell_cap=cap) for j in range(p_max + 1)]

    rows = []
    for p in range(p_max + 1):
        summands = [powers[j][p - j] for j in range(p + 1)]
        bound = sum(summands)
        rows.append(
            {
                "p": p,
                "betti_target": target_betti[p],
                "betti_powers": summands,
                "bound": bound,
                "inequality_holds": target_betti[p] <= bound,
            }
        )
    return {
        "target": target,
        "p_max": p_max,
        "betti_target": target_betti.as_list(),
        "power_betti": [bv.as_list() for bv in powers],
        "rows": rows,
        "ok": all(r["inequality_holds"] for r in rows),
    }
