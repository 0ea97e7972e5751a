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

Cells carry no keys.  The simplices of each exact image tau form one group,
or one group per Reeb stratum over tau for the Reeb target (below).  Over
each group the cells are the (p+1)-tuples of its simplices, numbered in
mixed radix by the positions of their components, so a cell is just an int.
Every facet id is integer arithmetic on the cell's id with two tables built
once per simplex: the positions of the shrinks that keep its image (type-(a)
facets change one digit) and, for each vertex t of tau, the position of the
simplex trimmed of its vertex over t (type-(b) facets are a Horner sum in
the radix of the trims' group, over tau - t).
The collapse that follows keeps per cell only a count and an XOR of its live
covers, see ``homology.collapse_face_poset``.

Before each power is enumerated, the domain itself is collapsed along the
fibers: the same greedy collapse, keyed on the exact image, removes only
vertical free pairs, a simplex sigma and its only coface sigma' with
f(sigma) = f(sigma'), sigma' maximal.  A fiber of n simplices
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
The collapse is redone for each power; it costs a small fraction of the
power's enumeration.

The powers of the Reeb quotient map q: sd(X) -> R are cut out of the cell
model over X itself, not enumerated over sd(X).  By the quotient theorem,
q(x) = q(y) exactly when f(x) = f(y) and x, y lie in one component of that
fiber.  A point x in an open simplex rho of exact image tau lies over the
open simplex tau, and its fiber component is named by the stratum of rho,
its component of S_tau (see ``reeb``).  So W_p(q), as a subspace of
X**(p+1), is the union of the open cells (rho_0..rho_p) of W_p(f) whose
components all lie in one stratum of S_tau.  That union is a subcomplex:
a type-(a) face shrinks one rho_k to a face of the same image tau, joined
to rho_k inside S_tau, so it keeps the stratum.  A type-(b) face trims
every rho_k to a face in S_(tau-t).  Since S_tau is contained in S_(tau-t),
the stratum of S_tau holding every rho_k lies inside one stratum of
S_(tau-t), and each trim, a face of its rho_k, lies in that one too.  The
subcomplex is a regular cell structure on the space W_p(q), so it has the
Betti numbers of the power of q over sd(X), with far fewer cells (4,441
against 170,137 for the 2-disk at p = 2).  The vertical collapse still
applies: a vertical pair (sigma, sigma') has one image and is a face pair,
so both lie in one stratum.  Toggling between them keeps a cell inside the
subcomplex, the matching restricts to it and stays acyclic, and the
unmatched cells are the cells of the collapsed map in the same strata.
So the strata can be taken from the original f and carried to the
collapsed map by the simplex tuples.  The cap counts the cells of q's own
powers, so the same inputs are refused as when those powers were
enumerated.

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

from .complexes import SimplicialComplex, SimplicialMap, _face_pairs, simplex_key
from .errors import BudgetExceededError, InvalidParamsError, InvariantError
from .homology import _facet_ids, betti, collapse_face_poset, regular_cw_betti
from .reeb import reeb_space

DEFAULT_CELL_CAP = 200_000
CELL_CAP_ENV = "REEBFORGE_CELL_CAP"


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


def _require_at_least(name, value, low):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidParamsError(f"{name} must be >= {low}, got {value}")


def fiber_power_nerve(f, p, cell_cap=None):
    """Nerve of the maximal-simplex cover of the (p+1)-fold fiber power.

    Nerve vertex i is the i-th cover tuple in canonical order.  A tuple of
    maximal simplices is a cover vertex iff the intersection of their
    images is nonempty; a set of tuples spans a nerve simplex iff all
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
    return SimplicialComplex._from_canonical(len(cover), simplices)


def _exact_image_groups(f, label=None):
    """The domain simplices of each group, in canonical order.

    A group is keyed (tau, label): the simplices of exact image tau with one
    ``label[s]``, or all of them, keyed (tau, 0), when ``label`` is None.
    """
    groups = {}
    for s in f.domain.simplices:
        key = (f.image_simplex(s), 0 if label is None else label[s])
        groups.setdefault(key, []).append(s)
    return groups


def _vertical_collapse(f):
    """f over its domain collapsed along the fibers, or f itself when the
    domain has no vertical free pair.

    ``collapse_face_poset`` keyed on the exact image removes the vertical
    free pairs, smallest free id first; the module docstring shows that no
    fiber power changes its Betti numbers.
    """
    simplices = f.domain.simplices
    kept, _ = collapse_face_poset(
        _facet_ids(simplices), [f.image_simplex(s) for s in simplices]
    )
    if len(kept) == len(simplices):
        return f
    domain = SimplicialComplex._from_canonical(
        f.domain.num_vertices, [simplices[i] for i in kept]
    )
    return SimplicialMap(domain, f.codomain, f.vertex_images, check=False)


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
    map (module docstring); the trims of one column must then land in one
    group, else InvariantError.

    Cells are numbered arithmetically: with ``groups[g]`` the simplices of
    group g = (tau, label) in canonical order, n = len(groups[g]) and pos_k
    the position of rho_k there, the cell's id is
    ``base[g] + sum_k pos_k * n**(p-k)``, groups in canonical order of tau,
    then by label.  Ids are a linear extension of the face order.  A
    type-(a) facet then differs from its cell in one digit, and a type-(b)
    facet is the Horner sum of the trimmed positions in the radix of the
    trims' group.  Returns (dims, facets); the caller checks the cell count
    against the cap.
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


def _group_sizes(f):
    """How many domain simplices have each exact image."""
    return [len(g) for g in _exact_image_groups(f).values()]


def _subdivision_size(k):
    """|sd(K)|, the number of chains of K's face poset, without building
    sd(K): the chains ending at sigma are sigma alone and the chains ending
    at each proper face of sigma, extended by sigma.  Faces come before
    their cofaces in ``_face_pairs``, so each count is final when read."""
    simps = k.simplices
    ending = [1] * len(simps)
    for i, j in _face_pairs(simps):
        ending[j] += ending[i]
    return sum(ending)


def _check_cell_cap(sizes, p, cap):
    """Refuse a (p+1)-fold power whose unreduced cell count, the sum of
    n**(p+1) over the exact-image group sizes n, passes the cap."""
    total = sum(n ** (p + 1) for n in sizes)
    if total > cap:
        raise BudgetExceededError(
            f"{total} fiber-power cells exceed the cap of {cap}",
            cap=cap, stage="fiber-power cells", count=total,
        )


def _fiber_power_cells_betti(f, p, label=None):
    """Betti vector of the (p+1)-fold fiber power of f, by the cell model
    over f's vertical collapse; ``label`` restricts the cells as in
    ``_cell_poset``.  The caller checks the cap."""
    dims, facets = _cell_poset(_vertical_collapse(f), p, label)
    kept, core = collapse_face_poset(facets)
    return regular_cw_betti([dims[i] for i in kept], core)


def _stratum_labels(f, space):
    """Each domain simplex's component of S_tau, tau its exact image, keyed
    by the simplex tuple so that the labels also serve f's vertical collapse.
    They are read off ``space.exact_strata``, so no stratum's members are
    built."""
    strata = space.strata
    return {s: strata[i].component for s, i in zip(f.domain.simplices, space.exact_strata)}


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
        return betti(fiber_power_nerve(f, p, cap))
    if engine not in ("auto", "cells"):
        raise InvalidParamsError(f"unknown engine {engine!r}")
    _check_cell_cap(_group_sizes(f), p, cap)
    return _fiber_power_cells_betti(f, p)


def image_subcomplex(f):
    """The subcomplex of the codomain spanned by the image simplices."""
    return SimplicialComplex(
        f.codomain.num_vertices,
        {f.image_simplex(s) for s in f.domain.simplices},
    )


def descent_check(f, target="image", p_max=1, cell_cap=None, threads=1):
    """Verify b_p(target) <= sum_{i+j=p} b_i((j+1)-fold fiber power), p <= p_max.

    With target "image" the fiber powers are taken over f itself and the
    target is f's image subcomplex.  With target "reeb" the target is the
    Reeb space and the powers are those of the quotient map sd(X) -> Reeb
    realization, computed as the cells of f's powers whose components lie
    in one Reeb stratum (module docstring); the cap still counts the cells
    of the quotient map's own powers.  Their p = 0 count, the sum of the
    group sizes, is |sd(X)|, so it is checked before sd(X) is built.  The
    powers come from the cell model over the vertical collapse of f's
    domain.  The inequality is a theorem for these maps, so a failing row
    signals an implementation bug.  ``threads`` has no effect: it is
    accepted (and must be >= 1) only for callers that still pass it.
    """
    _require_at_least("p_max", p_max, 0)
    _require_at_least("threads", threads, 1)
    cap = resolve_cell_cap(cell_cap)
    if target == "image":
        target_betti = betti(image_subcomplex(f))
        powers = [fiber_power_betti(f, j, cell_cap=cap) for j in range(p_max + 1)]
    elif target == "reeb":
        _check_cell_cap([_subdivision_size(f.domain)], 0, cap)
        space = reeb_space(f)
        target_betti = space.betti()
        label = _stratum_labels(f, space)
        sizes = _group_sizes(space.quotient_map)
        powers = []
        for j in range(p_max + 1):
            _check_cell_cap(sizes, j, cap)
            powers.append(_fiber_power_cells_betti(f, j, label))
    else:
        raise InvalidParamsError(f"unknown target {target!r}")

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
