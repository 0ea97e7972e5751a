"""Iterated fiber powers of simplicial maps and the descent-inequality check.

The (p+1)-fold fiber power W_p = X x_f ... x_f X is computed from its cell
model, reduced group by group.  The tuples c = (rho_0..rho_p) of simplices
with one exact image tau, d = dim tau, are the cells of a regular polytopal
structure on W_p (fiber products of closed simplices), of dimension
sum_k dim rho_k - p d.  A cell's facets are (a) one component shrunk by a
vertex whose image repeats in it, which keeps tau, and (b) for a vertex
tau[u] covered once in every component, every component trimmed of its
vertex over tau[u], which lowers tau.  With V_(k,u) the m_(k,u) vertices of
rho_k over tau[u] and n_(k,u) = m_(k,u) - 1, a cell is the join, over u in
order, of Q_u = prod_k Delta(V_(k,u)) (the Cayley trick; Huber, Rambau &
Santos, JEMS 2000), which orients it: with J_u = sum_{u'<u} (dim Q_u' + 1),
dropping the i-th vertex of V_(k,u) has sign (-1)^(J_u + sum_{k'<k}
n_(k',u) + i), and trimming u has sign (-1)^J_u.

The simplices of one exact image form a group E_g, left by no type-(a)
facet; ``_group_matching`` pairs them along those facets by coreductions and
collapses.  It is acyclic: on a closed V-path a_0 < b_0 > a_1 < b_1 > ...,
the pair (a_j, b_j) removed first was no coreduction, as b_j's facet a_(j+1)
was still there, and no collapse, as a_j's coface b_(j-1) was.  The cell
cap counts the unreduced power.

1. The power is a Koszul tensor product.  Orient each simplex by its
vertices sorted by image, then by id, and let t_u(rho) = (-1)^j (rho minus
its j-th vertex, the one over tau[u]).  With N_k = sum_u n_(k,u) = dim rho_k
- d, take the basis sigma(c) c, sigma(c) = (-1)^(sum_{k<k'} sum_{u>u'}
n_(k,u) n_(k',u') + d sum_k k N_k).  Dropping the i-th vertex of V_(k,u)
lowers n_(k,u) by one, so sigma's exponent changes by S = sum_{k'>k, u'<u}
n_(k',u') + sum_{k'<k, u'>u} n_(k',u') + d k.  That vertex is the j-th of
rho_k, j = u + sum_{u'<u} n_(k,u') + i, and the Cayley exponent differs from
sum_{k'<k} dim rho_k' + j by S, mod 2.  So in this basis the type-(a) part
is the Koszul tensor product d^(x) of the groups' relative chains C(E_g),
graded by dim rho, with facet sign (-1)^j.  A trim leaves every n_(k,u')
but n_(k,u) = 0 and lowers d by one, so sigma's exponent changes by sum_k k
N_k; with j_k the place of rho_k's vertex over tau[u] and dim c = d + sum_k
N_k, J_u differs from sum_k ((p - k) dim rho_k + j_k) by p (u + dim c) + d
p(p+3)/2 + sum_k k N_k, mod 2.  So a trim is eps t_u^(x)(p+1) with Koszul
signs, eps = (-1)^(p (u + dim c) + d p(p+3)/2).  The power's chains are thus
(C, d^(x) + T), C the sum over groups of C(E_g)^(x)(p+1) and T the trims.

2. The transfer, and why its series ends.  An acyclic matching gives a
strong deformation retract of C(E_g) onto its critical simplices M_g
(Skoldberg, "Morse theory from an algebraic viewpoint", Trans. AMS 2006):
for a lower x with partner y and o = [dy:x], pi(x) = -o sum_{z != x} [dy:z]
pi(z) and h(x) = -o y - o sum_{z != x} [dy:z] h(z); a critical c has pi(c)
= c, h(c) = 0 and iota(c) = c + h(dc); an upper simplex has pi = h = 0.
Then pi iota = 1 and iota pi - 1 = dh + hd.  The recursion follows V-paths,
so it ends; ``_group_sdr`` walks it once per model on an explicit stack.
By the tensor trick, pi^(x), iota^(x) and h^(x) = sum_k (iota pi)^(x)k (x)
h (x) 1^(x)(p-k), with Koszul signs, retract C(E_g)^(x)(p+1) onto
M_g^(x)(p+1) with differential d_M^(x), d_M = pi d iota.  T perturbs
d^(x), and the basic perturbation lemma (Crainic, "On the perturbation
lemma, and deformations", 2004) transfers the retract: M, the sum of the
M_g^(x)(p+1), gets D = d_M^(x) + pi^(x) T sum_n (h^(x) T)^n iota^(x).
h^(x) keeps the group and T lowers dim tau by one, so (h^(x) T)^n lands in
groups of dimension d - n; a vertex group has no trim, so the terms with n
>= d are 0 and the series is finite.  Each term is a Kronecker product of
per-group matrices pi t_u Y ... Y t_u iota, each Y one of iota pi, h and 1,
times a sign.  The Koszul signs of T and h and eps depend on the dims of
the components and on dim c = sum_k dim rho_k - p d, so the sign is a
constant times a column sign (-1)^(dim rho_k) per place (``_term_signs``).
Only the signs, the Kronecker products and the ranks depend on p: the
model, its retracts and matrices are built once per descent check.

3. Why D has the power's Betti numbers.  (C, d^(x) + T) is the cellular
chain complex of W_p in the basis sigma(c) c.  The lemma also returns maps
that make (M, D) a deformation retract of it, so (M, D) has W_p's homology,
and its ranks over Q give the Betti numbers.  The cells of M are the tuples
of critical simplices of one group, sum_g c_g**(p+1), numbered in mixed
radix.  D is, entry by entry, the Morse boundary (Forman 1998) of the lift
that pairs a cell through its first non-critical component, conjugated by
sigma, as the tests check against that lift's gradient flow.  A 0-cell
lies over a vertex, where sigma = 1, so a 1-cell's boundary is still a - b
or 0, up to its own sign.

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
so no ``src/`` function calls ``fiber_power_nerve``: it is the tests'
independent reference for the cell model.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter

from .complexes import SimplicialComplex, _chain_count, _face_pairs, simplex_key
from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    InvariantError,
    _collector_paused,
    _refuse_past_cap,
    _require_at_least,
    resolve_cell_cap,
)
from .homology import _betti_numbers, betti
from .reeb import reeb_space


def fiber_power_nerve(f, p, cell_cap=None):
    """Nerve of the maximal-simplex cover of the (p+1)-fold fiber power.

    No ``src/`` function calls it: it is the tests' independent reference
    for ``fiber_power_betti``, exact by the nerve lemma but exponential.
    Nerve vertex i is the i-th cover tuple in canonical order.  A tuple of
    maximal simplices is a cover vertex iff the intersection of their
    images is nonempty; a set of tuples spans a nerve simplex iff all
    componentwise simplex intersections are nonempty and the images of those
    intersections share a codomain vertex.  Enumeration aborts with
    BudgetExceededError, stage "nerve cover", once the cover passes the cap
    (or the cover so far plus all of one codomain vertex's tuples passes 4
    times the cap, before they join it), and stage "nerve simplices" once
    the simplex count passes the cap.
    """
    _require_at_least("p", p, 0)
    cap = resolve_cell_cap(cell_cap)
    by_cod_vertex = {}
    for s, image, up in zip(f.domain.simplices, f.simplex_images, f.domain.cofaces):
        if not up:  # a maximal simplex
            for w in image:
                by_cod_vertex.setdefault(w, []).append(s)

    cover = set()
    for w in sorted(by_cod_vertex):
        group = by_cod_vertex[w]
        count = _power_count([len(group)], p, 4 * cap)
        if count is not None:
            count += len(cover)
        if count is None or count > 4 * cap:
            cells = "cover cells" if count is None else f"{count} cover cells"
            raise BudgetExceededError(
                f"{cells} with codomain vertex {w}'s tuples exceed 4 times the cap of {cap}",
                cap=cap, stage="nerve cover", count=count,
            )
        cover.update(itertools.product(group, repeat=p + 1))
    cover = sorted(cover, key=lambda t: tuple(simplex_key(s) for s in t))
    _refuse_past_cap(len(cover), cap, "cover cells", "nerve cover")

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


def _group_sdr(shrinks, mate):
    """The matching's strong deformation retract of the groups' relative
    chains (module docstring, part 2): per simplex, ``proj`` (pi) and
    ``homot`` (h) as {simplex: coefficient}.  Walked on an explicit stack; a
    simplex met again while pending closes a V-path, which raises
    InvariantError, as does a lower simplex that is no facet of its partner."""
    proj, homot, pending = [None] * len(mate), [None] * len(mate), set()
    for i, m in enumerate(mate):
        if m < i:
            proj[i], homot[i] = {i: 1} if m == -1 else {}, {}
    for root in range(len(mate)):
        stack = [root]
        while stack:
            x = stack[-1]
            if proj[x] is not None:
                stack.pop()
                continue
            facets = shrinks[mate[x]]
            o = next((e for z, e in facets if z == x), 0)
            if not o:
                raise InvariantError(f"simplex {x} is not a facet of its partner")
            todo = [z for z, _ in facets if proj[z] is None and z != x]
            if todo:
                if x in pending:
                    raise InvariantError(f"the group flow from simplex {x} returns to it")
                pending.add(x)
                stack += todo
                continue
            others = [(z, -o * e) for z, e in facets if z != x]
            proj[x] = _combine((proj[z], e) for z, e in others)
            homot[x] = _combine([({mate[x]: -o}, 1)] + [(homot[z], e) for z, e in others])
            pending.discard(x)
            stack.pop()
    return proj, homot


def _combine(terms):
    """The chain sum of e * chain over ``terms``, zeros dropped."""
    out = {}
    for chain, e in terms:
        for s, v in chain.items():
            out[s] = out.get(s, 0) + e * v
    return {s: v for s, v in out.items() if v}


def _push(chains, table):
    """Each chain sum v * table[s], through a per-simplex table of chains."""
    return [_combine((table[s], v) for s, v in chain.items()) for chain in chains]


def _term_signs(p, d, us, ks):
    """Sign parities of pi T (h T)^n iota's term with trims ``us`` from a
    group of dimension d and step l's h at place ``ks[l]``: a constant, and
    per place whether its columns are signed by dimension (module docstring)."""
    half, tri = p * (p + 3) // 2, p * (p + 1) // 2
    odd = sum(
        p * (u + p * d) + (d - j) * half + j * tri + sum(p - k for k in ks[:j])
        for j, u in enumerate(us)
    )
    odd += sum((j + 1) * k + sum(x < k for x in ks[:j]) for j, k in enumerate(ks))
    return odd & 1, [len(us) * i + sum(k > i for k in ks) & 1 for i in range(p + 1)]


class _MorseModel:
    """The cell model of f's powers over the groups (tau, label[i]), reduced
    group by group (module docstring).  Per simplex i: its group and the
    group matching's ``proj`` and ``homot``; ``trims[u][s]``, s's trim over
    tau[u] as {facet: sign}; per critical simplex ``incl`` (iota) and
    ``morse`` (pi of its boundary); per group, the group of its trims over
    each u (``target``) and, once built, its ``matrices``.  A
    simplex is oriented by its vertices sorted by image, then by id."""

    __slots__ = (
        "group", "dims", "taus", "trims", "target", "mate", "critical", "proj", "homot",
        "pos", "incl", "morse", "matrices",
    )

    def __init__(self, f, label=None):
        simps = f.domain.simplices
        keys, shrinks, cuts = [], [], []
        for i, (s, fs, tau) in enumerate(zip(simps, f.domain.facets, f.simplex_images)):
            keys.append((tau, 0 if label is None else label[i]))
            over = [tau.index(f.vertex_images[v]) for v in s]
            counts = [over.count(u) for u in range(len(tau))]
            facets = {
                j: (fs[j] if fs else None, -1 if r & 1 else 1)
                for r, j in enumerate(sorted(range(len(s)), key=over.__getitem__))
            }
            shrinks.append([facets[j] for j, u in enumerate(over) if counts[u] > 1])
            cuts.append([
                dict([facets[over.index(u)]]) if m == 1 < len(tau) else {}
                for u, m in enumerate(counts)
            ])
        order = sorted(set(keys), key=lambda g: (len(g[0]), g))
        rank = {g: r for r, g in enumerate(order)}
        self.group = [rank[g] for g in keys]
        self.taus = [g[0] for g in order]
        self.dims = [len(s) - 1 for s in simps]
        width = max(map(len, cuts), default=0)
        self.trims = [[c[u] if u < len(c) else {} for c in cuts] for u in range(width)]
        self.target = [{} for _ in order]  # the trims of one group over one vertex share a group
        for i, cut in enumerate(cuts):
            column = self.target[self.group[i]]
            for u, t in enumerate(cut):
                for x in t:
                    if column.setdefault(u, self.group[x]) != self.group[x]:
                        g = order[self.group[i]]
                        raise InvariantError(
                            f"the trims of group {g} over vertex {g[0][u]} span groups "
                            f"{sorted(order[h] for h in (column[u], self.group[x]))}"
                        )
        self.mate = mate = _group_matching([[x for x, _ in fs] for fs in shrinks])
        self.proj, self.homot = _group_sdr(shrinks, mate)
        self.critical = [[] for _ in order]
        self.incl, self.morse = {}, {}
        for c, m in enumerate(mate):
            if m < 0:
                self.critical[self.group[c]].append(c)
                self.incl[c] = _combine([({c: 1}, 1)] + [(self.homot[z], e) for z, e in shrinks[c]])
                self.morse[c] = _combine((self.proj[z], e) for z, e in shrinks[c])
        self.pos = {c: q for members in self.critical for q, c in enumerate(members)}
        self.matrices = [None] * len(order)

    def betti(self, p):
        """Betti vector of the (p+1)-fold power from its transferred complex."""
        dims, blocks = [], []
        for tau, members in zip(self.taus, self.critical):
            blocks.append((len(dims), len(members)))
            power = [-p * (len(tau) - 1)]
            for _ in range(p + 1):
                power = [a + self.dims[c] for a in power for c in members]
            dims += power
        bounds = [{} for _ in dims]
        for g, (base, m) in enumerate(blocks):
            # Each term's Kronecker product, over the non-empty columns only.
            # Entries of several terms add up; one that cancels to 0 is
            # deleted, since the rank stage takes no zero entry.
            for h, mats, odd in self._terms(g, p):
                (top, n), acc = blocks[h], [(0, 0, -1 if odd else 1)]
                for mat in mats:
                    acc = [
                        (a * m + q, b * n + r, c * e)
                        for a, b, c in acc for q, col in mat for r, e in col
                    ]
                for a, b, c in acc:
                    row, r = bounds[base + a], top + b
                    e = row.get(r, 0) + c
                    if e:
                        row[r] = e
                    else:
                        del row[r]
        return _betti_numbers(dims, bounds)

    def _terms(self, g, p):
        """The Morse boundary of group g's cells as Kronecker terms (target
        group, per-place matrices, sign parity): d_M^(x) place by place,
        then pi T (h T)^n iota over every path of trims (module docstring)."""
        signed, plain, morse, paths = self._matrices(g)
        for k in range(p + 1 if morse else 0):
            yield g, [signed] * k + [morse] + [plain] * (p - k), 0
        d = len(self.taus[g]) - 1
        for path, h, ends in paths:
            for ks in itertools.product(range(p + 1), repeat=len(path) - 1):
                const, flips = _term_signs(p, d, path, ks)
                mats = [
                    ends[tuple((i >= k) + (i > k) for k in ks)][flip]
                    for i, flip in enumerate(flips)
                ]
                if all(mats):
                    yield h, mats, const

    def _matrices(self, g):
        """Group g's matrices, which no p changes, built on first use: 1
        signed by dimension and not, d_M, and per path of trims its target
        group and, per word, pi t_u Y ... Y t_u iota unsigned and signed."""
        if self.matrices[g] is None:
            members = self.critical[g]
            odd = [self.dims[c] & 1 for c in members]

            def matrix(chains, flip=0):
                return [
                    (q, [(self.pos[r], -e if flip and odd[q] else e) for r, e in chain.items()])
                    for q, chain in enumerate(chains) if chain
                ]

            one, paths = [{c: 1} for c in members], []
            # Depth first over paths of trims; ``words`` maps the maps each
            # place met at each step so far (0: iota pi, 1: h, 2: 1) to its
            # chains.
            stack = [((), g, {(): [self.incl[c] for c in members]})]
            while stack:
                us, here, words = stack.pop()
                for u, h in sorted(self.target[here].items()):
                    path = us + (u,)
                    cut = {w: _push(chains, self.trims[u]) for w, chains in words.items()}
                    ends = {w: _push(chains, self.proj) for w, chains in cut.items()}
                    paths.append((path, h, {w: (matrix(e), matrix(e, 1)) for w, e in ends.items()}))
                    nxt = {w + (1,): _push(chains, self.homot) for w, chains in cut.items()}
                    if len(self.taus[h]) > 1 and any(map(any, nxt.values())):
                        for w, chains in cut.items():
                            nxt[w + (0,)], nxt[w + (2,)] = _push(ends[w], self.incl), chains
                        stack.append((path, h, nxt))
            self.matrices[g] = matrix(one, 1), matrix(one), matrix(self.morse[c] for c in members), paths
        return self.matrices[g]


def _group_sizes(f):
    """How many domain simplices have each exact image."""
    return list(Counter(f.simplex_images).values())


def _quotient_group_sizes(k, strata):
    """The group sizes of the Reeb quotient map sd(K) -> R, without sd(K):
    sd vertex j maps to ``strata[j]``, a chain onto its set of strata, and
    ``ending[j]`` counts the chains ending at j by that set, sorted."""
    ending = [Counter({(s,): 1}) for s in strata]
    for i, j in _face_pairs(k.facets):
        top = strata[j]
        for key, n in ending[i].items():
            # Strata never fall along a face pair, so key is sorted with key[-1] <= top.
            ending[j][key if key[-1] == top else key + (top,)] += n
    sizes = Counter()
    for counts in ending:
        sizes.update(counts)
    return list(sizes.values())


def _power_count(sizes, p, cap):
    """The sum of n**(p+1) over ``sizes``, or None when one term passes the
    cap by more than 2**64: n >= 2**(b-1), b its bit length, so n**(p+1) >=
    2**((p+1)(b-1)), which decides it before any power with many digits is
    built."""
    if any((p + 1) * (n.bit_length() - 1) > cap.bit_length() + 64 for n in sizes):
        return None
    return sum(n ** (p + 1) for n in sizes)


def _check_cell_cap(sizes, p, cap, places=1, what="fiber-power cells"):
    """Refuse a (p+1)-fold power when ``places`` times the sum of n**(p+1)
    over the group sizes n, by default its unreduced cell count, passes the
    cap; a count too large to write out is left out of the message."""
    total = _power_count(sizes, p, cap)
    _refuse_past_cap(None if total is None else total * places, cap, what, "fiber-power cells")


def _fiber_powers(f, ps, sizes, cap, label=None):
    """Betti vectors of f's (p+1)-fold fiber powers, p in the range ``ps``,
    over the groups (tau, label), from one model (module docstring).  First
    the least p is refused whose unreduced count (over the group ``sizes``)
    or critical cells' components, (p + 1) sum_g c_g**(p+1), pass the cap:
    groups of one simplex keep the first small for any p while the work
    grows with p.  Both grow with p, so a bisection finds that p."""
    _check_cell_cap(sizes, ps[0], cap)  # before the model is built
    model = _MorseModel(f, label)
    critical = [len(c) for c in model.critical]

    def refusal(p):
        try:
            _check_cell_cap(sizes, p, cap)
            _check_cell_cap(critical, p, cap, p + 1, "components of critical fiber-power cells")
        except BudgetExceededError as exc:
            return exc
        return None

    if refusal(ps[-1]):
        raise refusal(ps[bisect.bisect_left(ps, True, key=lambda p: bool(refusal(p)))])
    return [model.betti(p) for p in ps]


@_collector_paused
def fiber_power_betti(f, p, engine="auto", cell_cap=None):
    """Betti vector of the (p+1)-fold fiber power of f.

    ``engine`` is "auto" (the default) or "cells", which both run the cell
    model; any other name raises InvalidParamsError.
    """
    _require_at_least("p", p, 0)
    cap = resolve_cell_cap(cell_cap)
    if engine not in ("auto", "cells"):
        raise InvalidParamsError(f"unknown engine {engine!r}")
    return _fiber_powers(f, range(p, p + 1), _group_sizes(f), cap)[0]


def image_subcomplex(f):
    """The subcomplex of the codomain spanned by the image simplices."""
    # Unchecked: images are canonical codomain simplices, and a face of one
    # is the image of a face of its domain simplex.
    return SimplicialComplex._from_canonical(f.codomain.num_vertices, set(f.simplex_images))


@_collector_paused
def descent_check(f, target="image", p_max=1, cell_cap=None, threads=1):
    """Verify b_p(target) <= sum_{i+j=p} b_i((j+1)-fold fiber power), p <= p_max.

    With target "image" the powers are f's and the target is f's image
    subcomplex; with "reeb", the Reeb space and the powers of the quotient
    map sd(X) -> R, cut out of f's cells by the strata (module docstring).
    The cap counts the quotient map's cells from X's face pairs, |sd(X)|
    before the Reeb space is built; sd(X) never is.  The inequality is a
    theorem, so a failing row signals an implementation bug.  One model
    serves every p, and a power past the cap is refused before any power is
    computed, with the error of the least such p.  ``threads`` has no
    effect; it is accepted (if >= 1) for callers that still pass it.
    """
    _require_at_least("p_max", p_max, 0)
    _require_at_least("threads", threads, 1)
    cap = resolve_cell_cap(cell_cap)
    if target == "image":
        target_betti = betti(image_subcomplex(f))
        label, sizes = None, _group_sizes(f)
    elif target == "reeb":
        _refuse_past_cap(
            _chain_count(f.domain.facets), cap, "fiber-power cells", "fiber-power cells"
        )
        space = reeb_space(f)
        target_betti, label = space.betti(), space.exact_strata
        sizes = _quotient_group_sizes(f.domain, label)
    else:
        raise InvalidParamsError(f"unknown target {target!r}")
    powers = _fiber_powers(f, range(p_max + 1), sizes, cap, label)

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
