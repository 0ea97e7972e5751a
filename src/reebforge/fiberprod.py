"""Iterated fiber powers of simplicial maps and the descent-inequality check.

The (p+1)-fold fiber power W_p = X x_f ... x_f X is computed by the cell
model reduced by a discrete Morse matching.  The tuples (rho_0..rho_p) of
simplices with one exact image tau are the cells of a regular polytopal
structure on W_p (fiber products of closed simplices).  A cell's facets are
(a) one component shrunk by a vertex whose image repeats in it, which keeps
tau, and (b) for a vertex t of tau covered once in every component, every
component trimmed of its vertex over t.  With V_(k,t) the m_(k,t) vertices
of rho_k over t, a cell is the join, over t in tau in order, of
Q_t = prod_k Delta(V_(k,t)) (the Cayley trick; Huber, Rambau & Santos, JEMS
2000).  With J_t the sum over t' < t of dim Q_t' + 1, dropping the i-th
vertex of V_(k,t) has sign (-1)^(J_t + sum_{k'<k} (m_(k',t) - 1) + i) and
trimming t has sign (-1)^J_t.

No cell is listed.  The simplices of one exact image form a group E_g, left
by no type-(a) facet; ``_group_matching`` pairs them along those facets by
coreductions and collapses.  It is acyclic: on a closed V-path a_0 < b_0 >
a_1 < b_1 > ..., the pair (a_j, b_j) removed first was no coreduction, as
b_j's facet a_(j+1) was still there, and no collapse, as a_j's coface
b_(j-1) was.  A power cell is paired with the cell that toggles its first
non-critical component with that simplex's partner, a type-(a) pair of
incidence +-1.  The lift is acyclic too.  A type-(b) facet lowers tau and a
pair keeps it, so a V-path never returns to a group it has left.  Inside a
group each step moves each component along E_g's modified Hasse diagram (up
a matched edge, down another) or leaves it alone; that diagram has no cycle,
so on a closed V-path the first component never moves, and is then critical,
as a non-critical first component moves at every step; and so on for each
later component, which leaves no step.  This is the product case of
algebraic Morse theory (Skoldberg, Trans. AMS 2006).  So the Morse complex
(Forman, "Morse theory for cell complexes", 1998) on the tuples of critical
simplices of one group has the Betti numbers of W_p, and its boundary, from
gradient flow, is integral.  The cell cap counts the unreduced power.

The flow generates only cells that can reach a critical one.  A cell is
critical, lower or upper as its first non-critical component is, and an
upper cell flows to 0.  The flow expands a critical cell c, and the partner
u of each lower cell y it meets: with k the first non-critical place of y,
u has critical components before k and an upper one at k.  Rule 1: a facet
of u that keeps component k, or that moves an earlier component to a
critical or upper simplex, has an upper first non-critical component, so it
is upper; so is a facet of c that moves a component to an upper simplex.
None of them is generated.  What is left of u: its trims, the facets that
move component k to a simplex that is not upper (y among them), and those
that move an earlier component to a lower simplex; of c, every facet that
is not upper.  Rule 2: let z move the component j < k of u to a lower x.
Inside the group, each step of the flow moves the first non-critical
component up to its partner, then it or an earlier one down to a facet;
with Rule 1 that facet is lower, or critical at the first non-critical
place, which leaves the cell upper, as component k stays upper.  So the
flow out of z keeps every component after j, meets no critical cell of its
group, and reaches one only through the trims of the partners w that it
expands.  A trim over tau[u] needs bit u in tmasks[w_i] for every i.  Here
w_i = u_i for i > j; w_j is an upper simplex reached from x by moves from a
lower simplex to its partner and from an upper one to a lower facet but its
partner; and w_i for i < j is u_i, or such a simplex reached from a lower
facet of u_i.  ``reach[s]`` is the OR of the trim masks of the simplices
that are not lower and are reached so from s, s included.  So z flows to 0,
and is not generated, when reach[x] & AND_{i<j} reach[u_i] & AND_{i>j}
tmasks[u_i] is 0.  The moves that ``reach`` follows are the edges of E_g's
modified Hasse diagram between the cells of V-paths, so it is finite as the
matching is acyclic; a cycle raises InvariantError.  Both rules drop only
terms that are 0, so the Morse complex is the unpruned flow's, entry by
entry.

The powers of the Reeb quotient map q: sd(X) -> R are cut out of the cell
model over X itself.  By the quotient theorem, q(x) = q(y) exactly when
f(x) = f(y) and x, y lie in one component of that fiber.  A point in an
open simplex rho of exact image tau lies in the fiber component named by
the stratum of rho, its component of S_tau (see ``reeb``).  So W_p(q) is
the union of the open cells (rho_0..rho_p) of W_p(f) whose components lie
in one stratum of S_tau.  That union is a subcomplex: a type-(a) face
shrinks one rho_k to a face of the same image, joined to rho_k inside S_tau,
so it keeps the stratum.  A type-(b) face trims every rho_k to a face in
S_(tau-t); as S_tau lies in S_(tau-t), the stratum of S_tau holding every
rho_k lies in one stratum of S_(tau-t), which holds each trim too.  So the
groups become the pairs (tau, stratum), and the argument above holds as is.

The nerve of the closed convex cells {(x0..xp) in s0 x ... x sp : f(x0) =
... = f(xp)} over tuples of maximal simplices is homotopy equivalent to W_p.
A vertex of maximal-simplex degree g gives it a simplex on g**(p+1) vertices,
so it runs only for ``engine="nerve"``, as the tests' reference.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from operator import xor

from .complexes import SimplicialComplex, _face_pairs, simplex_key
from .errors import BudgetExceededError, InvalidParamsError, InvariantError
from .homology import _betti_numbers, betti
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


def _group_matching(facets):
    """An acyclic matching on the Hasse diagram ``facets``, ids in canonical
    order: a cell leaves with its only remaining facet (a coreduction) or
    coface (a collapse), else the lowest remaining cell leaves alone, as
    critical.  ``mate[i]`` is -1 if so, else the partner, a coface if > i."""
    n = len(facets)
    cofaces = [[] for _ in range(n)]
    for i, fs in enumerate(facets):
        for j in fs:
            cofaces[j].append(i)
    below, above = [len(fs) for fs in facets], [len(cs) for cs in cofaces]
    mate = [-2] * n
    todo = [i for i in reversed(range(n)) if 1 in (below[i], above[i])]
    lowest = 0
    while True:
        i = todo.pop() if todo else None
        if i is None:
            while lowest < n and mate[lowest] != -2:
                lowest += 1
            if lowest == n:
                return mate
            mate[lowest] = -1
            gone = (lowest,)
        elif mate[i] == -2 and 1 in (below[i], above[i]):
            j = next(x for x in (facets if below[i] == 1 else cofaces)[i] if mate[x] == -2)
            mate[i], mate[j] = j, i
            gone = (i, j)
        else:
            continue
        for x in gone:
            for near, left in ((cofaces[x], below), (facets[x], above)):
                for c in near:
                    if mate[c] == -2:
                        left[c] -= 1
                        if left[c] == 1:
                            todo.append(c)


def _flow_reach(mate, down, tmasks):
    """``reach[s]``, the OR of ``tmasks[t]`` over every simplex t that is
    not lower and that the group flow can move s to: a lower simplex moves
    to its partner, any other to its lower facets ``down[s]`` but its own
    partner.  Walked on an explicit stack; a simplex met again while pending
    closes a V-path, which raises InvariantError."""
    reach, pending = [-1] * len(mate), set()
    for root in range(len(mate)):
        stack = [root]
        while stack:
            s = stack[-1]
            if reach[s] >= 0:
                stack.pop()
                continue
            m = mate[s]
            moves = (m,) if m > s else [x for x, _, _ in down[s] if x != m]
            todo = [x for x in moves if reach[x] < 0]
            if todo:
                if s in pending:
                    raise InvariantError(f"the group flow from simplex {s} returns to it")
                pending.add(s)
                stack += todo
                continue
            bits = 0 if m > s else tmasks[s]
            for x in moves:
                bits |= reach[x]
            reach[s] = bits
            pending.discard(s)
            stack.pop()
    return reach


class _MorseModel:
    """The cell model of f's powers over the groups (tau, label), reduced by
    the lifted group matching (module docstring).  Per simplex: its group,
    its image-keeping facets as (facet, sign, 1 << u), u the place in tau of
    the dropped vertex's image, and those of them that are not upper
    (``keep``) or lower (``down``), a mask of the parities of sum_{u' < u}
    (m_u' - 1), per u its trim over tau[u], or -1, with a mask of them, and
    the trims its group flow can reach (``_flow_reach``).  Critical cells are
    numbered in mixed radix, group by group."""

    __slots__ = (
        "group", "dims", "taus", "shrinks", "keep", "down", "masks", "trims", "tmasks",
        "reach", "mate", "critical",
    )

    def __init__(self, f, label=None):
        simps = f.domain.simplices
        index = {s: i for i, s in enumerate(simps)}
        keys, self.shrinks, self.masks, self.trims, self.tmasks = [], [], [], [], []
        for s in simps:
            tau = f.image_simplex(s)
            keys.append((tau, 0 if label is None else label[s]))
            over = [tau.index(f.vertex_images[v]) for v in s]
            counts = [over.count(u) for u in range(len(tau))]
            parity = itertools.accumulate((m - 1 & 1 for m in counts), xor, initial=0)
            mask = sum(bit << u for u, bit in enumerate(parity))
            self.masks.append(mask)
            shrinks = []
            for j, u in enumerate(over):
                if counts[u] > 1:
                    flip = (mask >> u) + over[:j].count(u) + u & 1
                    shrinks.append((index[s[:j] + s[j + 1 :]], -1 if flip else 1, 1 << u))
            self.shrinks.append(shrinks)
            self.trims.append([
                index[tuple(v for v, w in zip(s, over) if w != u)] if m == 1 < len(tau) else -1
                for u, m in enumerate(counts)
            ])
            self.tmasks.append(sum(1 << u for u, x in enumerate(self.trims[-1]) if x >= 0))
        order = sorted(set(keys), key=lambda g: (len(g[0]), g))
        rank = {g: r for r, g in enumerate(order)}
        self.group = [rank[g] for g in keys]
        self.taus = [g[0] for g in order]
        self.dims = [len(s) - 1 for s in simps]
        column = {}  # the trims of one group over one vertex share a group
        for i, cut in enumerate(self.trims):
            g = order[self.group[i]]
            for u, x in enumerate(cut):
                if x >= 0 and column.setdefault((g, u), self.group[x]) != self.group[x]:
                    raise InvariantError(
                        f"the trims of group {g} over vertex {g[0][u]} span groups "
                        f"{sorted(order[h] for h in (column[g, u], self.group[x]))}"
                    )
        self.mate = mate = _group_matching([[x for x, _, _ in fs] for fs in self.shrinks])
        self.keep = [[e for e in fs if not 0 <= mate[e[0]] < e[0]] for fs in self.shrinks]
        self.down = [[e for e in fs if mate[e[0]] > e[0]] for fs in self.shrinks]
        self.reach = _flow_reach(mate, self.down, self.tmasks)
        self.critical = [[] for _ in order]
        for i, m in enumerate(self.mate):
            if m < 0:
                self.critical[self.group[i]].append(i)

    def _facets(self, cell, k):
        """The facets of a cell, a tuple of simplex ids, that can flow to a
        nonzero chain, with their signs.  ``k`` is the place of the cell's
        upper component, those before it critical, or len(cell) when all
        are critical (Rules 1 and 2, module docstring)."""
        masks, reach, out = self.masks, self.reach, []
        total, common, later = 0, -1, []
        for s in reversed(cell):
            later.append(common)
            common &= self.tmasks[s]
            total ^= masks[s]
        before, after, earlier = 0, total, -1
        for j, s in enumerate(cell[: k + 1]):
            after ^= masks[s]
            head, tail, flip = cell[:j], cell[j + 1 :], before ^ after
            if j < k < len(cell):
                live = earlier & later[-1 - j]
                out += [(head + (x,) + tail, -e if flip & bit else e)
                        for x, e, bit in self.down[s] if reach[x] & live]
                earlier &= reach[s]
            else:
                out += [(head + (x,) + tail, -e if flip & bit else e) for x, e, bit in self.keep[s]]
            before ^= masks[s] >> 1
        for u in range(common.bit_length()):
            if common >> u & 1:
                sign = -1 if u + (total >> u) & 1 else 1
                out.append((tuple(self.trims[s][u] for s in cell), sign))
        return out

    def betti(self, p):
        """Betti vector of the (p+1)-fold power from its Morse complex."""
        cells, dims = [], []
        for tau, members in zip(self.taus, self.critical):
            for cell in itertools.product(members, repeat=p + 1):
                cells.append(cell)
                dims.append(sum(self.dims[s] for s in cell) - p * (len(tau) - 1))
        cid, memo = {cell: j for j, cell in enumerate(cells)}, {}
        bounds = [self._boundary(c, cid, memo) if d else {} for c, d in zip(cells, dims)]
        return _betti_numbers(dims, bounds)

    def _boundary(self, cell, cid, memo):
        """Morse boundary of a critical cell by gradient flow on a stack.
        ``memo`` maps each non-critical cell met to its flow: none for an
        upper cell, -[u:y] times the flow of u's other facets from
        ``_facets`` for a lower cell y of partner u.  A flow back to a
        pending cell raises InvariantError."""
        mate, stack, pending = self.mate, [(cell, None)], set()
        while stack:
            y, fs = stack[-1]
            if fs is None:
                u, k = y, len(y)
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
                fs = self._facets(u, k)
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
        return memo.pop(cell)


def _group_sizes(f):
    """How many domain simplices have each exact image."""
    return list(Counter(map(f.image_simplex, f.domain.simplices)).values())


def _subdivision_size(k):
    """|sd(K)|, the chains of K's face poset, without sd(K): ``ending[j]``
    counts the chains ending at simplex j, j alone and those ending at each
    proper face, extended by j.  Faces come first in ``_face_pairs``."""
    ending = [1] * len(k.simplices)
    for i, j in _face_pairs(k.simplices):
        ending[j] += ending[i]
    return sum(ending)


def _quotient_group_sizes(k, strata):
    """The group sizes of the Reeb quotient map sd(K) -> R, without sd(K):
    sd vertex j maps to ``strata[j]``, a chain onto its set of strata, and
    ``ending[j]`` counts the chains ending at j by that set, sorted."""
    ending = [Counter({(s,): 1}) for s in strata]
    for i, j in _face_pairs(k.simplices):
        top = strata[j]
        for key, n in ending[i].items():
            ending[j][key if top in key else tuple(sorted(key + (top,)))] += n
    sizes = Counter()
    for counts in ending:
        sizes.update(counts)
    return list(sizes.values())


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
    """Betti vector of the (p+1)-fold fiber power of f, over the groups
    (tau, label) (module docstring).  The caller checks the cap."""
    return _MorseModel(f, label).betti(p)


def _stratum_labels(f, space):
    """Each domain simplex's component of S_tau, tau its exact image, read
    off ``space.exact_strata``, so no stratum's members are built."""
    return {s: space.strata[i].component for s, i in zip(f.domain.simplices, space.exact_strata)}


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

    With target "image" the powers are f's and the target is f's image
    subcomplex; with "reeb", the Reeb space and the powers of the quotient
    map sd(X) -> R, cut out of f's cells by the strata (module docstring).
    The cap counts the quotient map's cells from X's face pairs, |sd(X)|
    before the Reeb space is built; sd(X) never is.  The inequality is a
    theorem, so a failing row signals an implementation bug.  ``threads``
    has no effect; it is accepted (if >= 1) for callers that still pass it.
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
        sizes = _quotient_group_sizes(f.domain, space.exact_strata)
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
