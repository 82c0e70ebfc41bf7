"""Preimage search: a brute-force oracle for small targets and a
template-constrained solver for sun-structured composites.

The oracle works in "slot" space: a candidate graph is grown lazily, each
target vertex getting assigned an unordered pair of candidate vertex slots
(the edge that turns into it).  Fresh slots are introduced in first-use
order, and a new edge meets an isolated edge only at its lesser end or at
both, so each leaf is a distinct labeled preimage.  Every edge of a
triangular line graph lies in a triangle: an edge ef of T(G) comes from a
triangle {e, f, g} of G, and g is adjacent to both.  So a target with an
edge in no triangle is refuted before any node.  Otherwise a target edge uw
between placed vertices on edges (x, y) and (x, z) needs the closing edge
(y, z), which only a common neighbour of u and w can own.  The target is
compiled once into a per-depth plan, and the placement after which uw's
ends and common neighbours are all placed must leave (y, z) owned (forward
checking), so a leaf is built only when no target edge is lost.

A leaf and its image under an automorphism of the target have isomorphic
candidates.  The class search (`brute_force_preimages`, `is_tlg_small`)
cuts by the swaps of target twins: a prefix whose image under a swap,
renumbered as the search numbers slots, sorts before it heads no first leaf
of a class (the lex-leader test of Crawford, Ginsberg, Luks and Roy, KR
1996).  `count_labeled_preimages` counts labeled preimages, so it walks the
whole tree.

The template solver never places single edges: it chooses a wheel or a
squared cycle for each registered sun unit and glues the chosen templates
along the triangles the units share (`Glue`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import chain, islice

from .errors import BudgetExceededError, CapacityError, GlueError, StructureError
from .gadgets import GadgetBlueprint, sun_units
from .graph import Graph, canonical_form, enumerate_triangles
from .operators import PreimageWitness, verify_certificate

WHEEL = "WHEEL"
SQUARED_CYCLE = "SQUARED_CYCLE"


@dataclass
class SearchLimits:
    max_target_vertices: int = 16
    time_budget: float | None = None  # seconds, read every 256 nodes; None: no limit
    node_budget: int | None = None


class _Budget:
    """One running search's limits, from `limits` or the defaults: the
    oracle's target cap and the budgets `tick` checks.  Refuses a negative
    or NaN limit before any node."""

    def __init__(self, limits: SearchLimits | None = None):
        limits = limits or SearchLimits()
        for key in ("max_target_vertices", "time_budget", "node_budget"):
            v = getattr(limits, key)
            if v is not None and not v >= 0:  # NaN too: it would never fire
                raise StructureError(f"{key} must be non-negative, got {v!r}")
        self.max_target_vertices = limits.max_target_vertices
        self.nodes = 0
        self.node_budget = limits.node_budget
        self.deadline = (time.monotonic() + limits.time_budget
                         if limits.time_budget is not None else None)

    def tick(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceededError(f"node budget exhausted ({self.node_budget})")
        if self.deadline is not None and self.nodes % 256 == 0 \
                and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exhausted")


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def _target_order(h: Graph) -> list[int]:
    """BFS-ish order so each vertex (after component starts) has an already
    placed neighbor, which forces a shared candidate endpoint."""
    seen: list[int] = []
    in_seen = [False] * h.n
    for start in range(h.n):
        if in_seen[start]:
            continue
        queue = [start]
        in_seen[start] = True
        while queue:
            v = queue.pop(0)
            seen.append(v)
            for w in sorted(h.adj[v]):
                if not in_seen[w]:
                    in_seen[w] = True
                    queue.append(w)
    return seen


class _State:
    __slots__ = ("assign", "gadj", "slots")

    def __init__(self, h: Graph):
        # target vertex -> its edge (a, b), a < b; entries past the current
        # depth are stale, and the plan never reads them
        self.assign: list[tuple[int, int] | None] = [None] * h.n
        # slot -> {neighbouring slot: target vertex owning the edge}; a leaf
        # uses at most 2|V(h)| slots
        self.gadj: list[dict[int, int]] = [{} for _ in range(2 * h.n)]
        self.slots = 0

    def new_triangles_ok(self, hadj: list[set[int]], a: int, b: int, e: int) -> bool:
        """Every triangle the new edge (a, b), owned by e, closes must map to
        a target triangle, or T(candidate) will exceed the target."""
        ga, gb, ne = self.gadj[a], self.gadj[b], hadj[e]
        for x in ga.keys() & gb.keys():
            t1, t2 = ga[x], gb[x]
            if not (t1 in ne and t2 in ne and t2 in hadj[t1]):
                return False
        return True

    def closed(self, closes: list[tuple[int, int]]) -> bool:
        """Forward check: the ends of each target edge uw in `closes` sit on
        edges (x, y) and (x, z), and all their common neighbours, the only
        possible owners of the closing edge (y, z), are placed, so (y, z)
        must be owned now."""
        for u, w in closes:
            y, z = {*self.assign[u]} ^ {*self.assign[w]}
            if z not in self.gadj[y]:
                return False
        return True

    def place(self, hadj: list[set[int]], tv: int, a: int, b: int,
              closes: list[tuple[int, int]]) -> bool:
        ga, gb = self.gadj[a], self.gadj[b]
        if b in ga:
            return False
        slots = self.slots
        self.assign[tv] = (a, b)
        ga[b] = gb[a] = tv
        self.slots = max(slots, b + 1)
        if not (self.new_triangles_ok(hadj, a, b, tv) and self.closed(closes)):
            self.unplace(a, b, slots)
            return False
        return True

    def unplace(self, a: int, b: int, slots: int):
        """Undo `place`; `slots` is the high-water mark from before it."""
        del self.gadj[a][b], self.gadj[b][a]
        self.slots = slots


def _depth_plan(h: Graph, order: list[int], swaps: list[tuple[int, int]]):
    """What each depth i checks, compiled once per target: order[i], its
    neighbours placed before it, the target edges uw whose ends and common
    neighbours are all placed once order[i] is, which must be closed there,
    and the swaps whose later vertex is order[i], with the prefix of `order`
    they are tested on."""
    pos = [0] * h.n
    for i, v in enumerate(order):
        pos[v] = i
    closes: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, w in h.edges:
        last = max(pos[u], pos[w], *(pos[t] for t in h.adj[u] & h.adj[w]))
        closes[last].append((u, w))
    tests: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, w in swaps:
        tests[max(pos[u], pos[w])].append((u, w))
    return [(v, [u for u in h.adj[v] if pos[u] < i], closes[i], tests[i], order[:i + 1])
            for i, v in enumerate(order)]


def _twin_swaps(h: Graph) -> list[tuple[int, int]]:
    """Transpositions (u, w), u < w, of twins of h: N(u) = N(w) or
    N[u] = N[w], so each is an automorphism of h.  Within each class of
    twins, the swaps of consecutive members, which generate the class's
    symmetric group.  No open neighbourhood N(u) equals another vertex's
    closed one N[w]: w in N(u) puts u in N[w]."""
    twins: dict[frozenset, list[int]] = {}
    for v, nbrs in enumerate(h.adj):
        twins.setdefault(frozenset(nbrs), []).append(v)
        twins.setdefault(frozenset(nbrs | {v}), []).append(v)
    return [(u, w) for vs in twins.values() for u, w in zip(vs, vs[1:])]


def _renumbered(pairs):
    """Yields the slot pairs `pairs` renumbered the way the search numbers
    slots: a slot takes the next number at its first use, and of a pair of
    two fresh slots, the end used again first takes the lesser number (the
    twin cut).  Until one end is used again the pair reads the same either
    way, so a prefix renumbers as the whole sequence begins."""
    num: dict[int, int] = {}
    fresh: dict[int, int] = {}  # each end of a fresh pair used once -> the other
    for pair in pairs:
        for s in pair:
            t = fresh.pop(s, None)
            if t is not None:
                del fresh[t]
                if num[s] > num[t]:
                    num[s], num[t] = num[t], num[s]
        new = [s for s in pair if s not in num]
        for s in new:
            num[s] = len(num)
        if len(new) == 2:
            a, b = new
            fresh[a], fresh[b] = b, a
        a, b = num[pair[0]], num[pair[1]]
        yield (a, b) if a < b else (b, a)


def _image_sorts_first(assign: list, seq: list[int], swap: tuple[int, int]) -> bool:
    """Whether the assignment along `seq` (a prefix of the search's order),
    read through the target automorphism `swap` and renumbered, sorts
    strictly before the assignment itself."""
    u, w = swap
    image = _renumbered(assign[w if t == u else u if t == w else t] for t in seq)
    for t, pair in zip(seq, image):
        if pair != assign[t]:
            return pair < assign[t]
    return False


def _candidate_edges_for(state: _State, nbrs: list[int]):
    """Pairs (a, b) the next target vertex may be assigned, given its placed
    neighbours `nbrs`, respecting the shared-endpoint constraint and the
    fresh-slot introduction order.  A placement opens at most two slots, so
    a leaf never uses more than 2|V(h)|.  An isolated edge (a, b), a < b,
    makes b a twin of a: swapping the two fixes the state, so an option
    holding b but not a is dropped; its mirror, holding a, sorts earlier."""
    fresh = state.slots
    if nbrs:
        # the edge shares an end a with the first neighbour's edge; its other
        # end b is free if a meets every neighbour edge, else it is a common
        # end of the edges a misses
        edges = [state.assign[w] for w in nbrs]
        opts = set()
        for a in edges[0]:
            missed = [e for e in edges if a not in e]
            ends = set(missed[0]).intersection(*missed[1:]) if missed \
                else [b for b in range(fresh + 1) if b != a]
            opts.update((a, b) if a < b else (b, a) for b in ends)
        opts = sorted(opts)
    else:
        # component start: any pair of existing slots, one fresh, or two fresh
        opts = [(a, b) for a in range(fresh) for b in range(a + 1, fresh + 1)]
        opts.append((fresh, fresh + 1))
    gadj = state.gadj
    twin = {b: a for a in range(fresh) if len(gadj[a]) == 1
            for b in gadj[a] if a < b and len(gadj[b]) == 1}
    return [p for p in opts if all(twin.get(s, s) in p for s in p)] if twin else opts


def _certified_witnesses(h: Graph, limits: SearchLimits | None, classes: bool = False):
    """Yields a verified witness for every complete certified assignment of
    the target vertices to candidate edges: one per labeled preimage, since
    a relabeling mapping one leaf onto another fixes their common prefix's
    edges, so it could only swap the ends of isolated ones (the twin cut).
    A target edge in no triangle refutes the target before any node.

    With `classes`, a leaf is skipped when its image under a transposition
    of target twins (`_twin_swaps`) renumbers to an earlier leaf: that leaf
    has an isomorphic candidate, so the first leaf of each isomorphism class
    is kept.  Each swap is tested once its later vertex is placed, cutting
    the subtree when the prefix's image sorts first, and again at the leaf."""
    budget = _Budget(limits)
    if h.n > budget.max_target_vertices:
        raise CapacityError(
            f"target has {h.n} vertices, over the limit "
            f"{budget.max_target_vertices}")
    hadj = h.adj
    if any(not hadj[u] & hadj[w] for u, w in h.edges):
        return
    order = _target_order(h)
    swaps = _twin_swaps(h) if classes else []
    plan = _depth_plan(h, order, swaps)
    state = _State(h)
    assign = state.assign
    # per open depth, its untried placements and the placement (a, b, slots
    # before it) kept there: no recursion, so no recursion-depth limit
    stack, undo = [], []
    while True:
        if len(undo) < len(plan):
            stack.append(iter(_candidate_edges_for(state, plan[len(undo)][1])))
        elif not any(_image_sorts_first(assign, order, swap) for swap in swaps):
            owner = {assign[t]: t for t in order}
            w = PreimageWitness(h, Graph(state.slots, owner), owner)
            if verify_certificate(w):
                yield w
        while stack:  # the next placement, at the deepest depth with one left
            i = len(stack) - 1
            if len(undo) > i:
                state.unplace(*undo.pop())
            tv, _, closes, tests, seq = plan[i]
            for a, b in stack[i]:
                budget.tick()
                slots = state.slots
                if state.place(hadj, tv, a, b, closes):
                    if not any(_image_sorts_first(assign, seq, swap) for swap in tests):
                        undo.append((a, b, slots))
                        break
                    state.unplace(a, b, slots)
            else:
                stack.pop()
                continue
            break
        else:
            return


def brute_force_preimages(h: Graph, limits: SearchLimits | None = None) -> list[PreimageWitness]:
    """All preimage isomorphism classes of h, one verifying witness each.

    Complete within the candidate-vertex bound 2|V(h)|, which no preimage
    can exceed.  Empty list means h has no preimage at all.  The witness of
    each class is its first leaf in search order, which the cut of twin
    swaps never drops, and the classes are sorted by canonical form.  Every
    leaf is verified, but candidates are canonized only once a second leaf
    arrives: a lone leaf is its own class, so a search with one leaf never
    meets `canonical_form`'s vertex cap.  After the twin cut few leaves
    repeat an edge set, so a memo of forms would save almost nothing.
    """
    leaves = _certified_witnesses(h, limits, classes=True)
    head = list(islice(leaves, 2))
    if len(head) < 2:
        return head
    seen: dict[bytes, PreimageWitness] = {}
    for w in chain(head, leaves):
        seen.setdefault(canonical_form(w.candidate), w)
    return [seen[k] for k in sorted(seen)]


def count_labeled_preimages(h: Graph, limits: SearchLimits | None = None) -> int:
    """Certified (candidate, bijection) pairs modulo candidate relabeling:
    the leaves of `_certified_witnesses`, which builds each pair once."""
    return sum(1 for _ in _certified_witnesses(h, limits))


def is_tlg_small(h: Graph, limits: SearchLimits | None = None):
    """Three-valued recognition: ('YES', witness) / ('NO', None) /
    ('UNKNOWN', reason).  Stops at the first verified witness."""
    try:
        w = next(_certified_witnesses(h, limits, classes=True), None)
    except BudgetExceededError as exc:
        return ("UNKNOWN", str(exc))
    return ("NO", None) if w is None else ("YES", w)


# ---------------------------------------------------------------------------
# Template solver
# ---------------------------------------------------------------------------


@dataclass
class TemplateAssignment:
    choices: dict[str, str]           # unit name -> WHEEL | SQUARED_CYCLE
    witness: PreimageWitness


class Glue:
    """A candidate graph glued together from template parts.

    A part maps target vertices to edges between its own "atoms", integer
    ids that `_Plan` gives each unit once (k + 1 per unit), so the parent,
    size and neighbour maps of the union-find over them are lists
    preallocated from the plan, and the candidate's vertices are the
    classes of the atoms some placed part uses.  Adding a part identifies
    the corners of every triangle it shares with an earlier unit.  `union`
    reports the failures that no further identification can undo: an edge
    whose ends meet (a loop), two target vertices on one edge, and a closed
    triangle whose edges are not pairwise adjacent in the target.  Each
    union and each added part writes one undo entry, so a search can roll
    back to a mark, an earlier length of the log (Westbrook & Tarjan,
    "Amortized analysis of algorithms for set union with backtracking",
    SIAM J. Comput. 18 (1989)).

    A plan's units are added in its order, and an unplaced atom keeps
    parent itself and size 1, so an added part only fills its atoms'
    neighbour maps.  The corners of a triangle and the edge of a target
    vertex are written by the first unit holding them and read only by
    later ones, so they need no undo.
    """

    def __init__(self, plan: _Plan):
        self.target = plan.target
        self._adj = plan.target.adj
        n = plan.atoms
        self.parent = list(range(n))
        self.size = [1] * n
        self.nbr: list = [None] * n     # class root -> {class root: target vertex}
        self.edge: list = [None] * plan.target.n  # target vertex -> its first atom pair
        self.corners: dict = {}         # target triangle -> {t: atom opposite t}
        self.placed: list = []          # the parts added, in order
        self._log: list = []

    def mark(self) -> int:
        return len(self._log)

    def rollback(self, mark: int) -> None:
        log, parent, size, nbr = self._log, self.parent, self.size, self.nbr
        while len(log) > mark:
            entry = log.pop()
            if entry is None:
                self.placed.pop()
                continue
            ra, rb, added = entry
            parent[rb] = rb
            size[ra] -= size[rb]
            na = nbr[ra]
            for s in added:
                del na[s], nbr[s][ra]
            for s, t in nbr[rb].items():
                nbr[s][rb] = t

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> str | None:
        """Identify the classes of atoms a and b; returns the first failure
        the identification causes, or None.  The merge happens either way.
        The absorbed root's neighbour map is left as it was, for rollback."""
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return None
        size, nbr = self.size, self.nbr
        if size[a] < size[b]:
            a, b = b, a
        na, nb = nbr[a], nbr[b]
        adj = self._adj
        failure = "a loop" if b in na else None
        added = []
        for s, t in nb.items():
            ns = nbr[s]
            del ns[b]
            if s == a:
                continue
            if s in na:
                if na[s] != t and failure is None:
                    failure = "two target vertices on one edge"
                continue
            # s becomes a neighbour of a: each triangle (a, s, u) is new
            if failure is None:
                for u in ns.keys() & na.keys():
                    if u in nb:
                        continue
                    t2, t3 = na[u], ns[u]
                    if (t != t2 and t2 not in adj[t]) or (t != t3 and t3 not in adj[t]) \
                            or (t2 != t3 and t3 not in adj[t2]):
                        failure = "a triangle the target lacks"
                        break
            na[s] = ns[a] = t
            added.append(s)
        parent[b] = a
        size[a] += size[b]
        self._log.append((a, b, added))
        return failure

    def add(self, part: _Part) -> str | None:
        """Add a part (see `_Plan.part`): fill its atoms' neighbour maps,
        keep the corners and edges it places first, and identify the
        corners of the triangles it shares.  Returns the last failure those
        identifications cause; the part's copies of target vertices placed
        before are `part.pending`, for `ways`."""
        self.placed.append(part)
        self._log.append(None)
        self.nbr[part.lo:part.hi] = map(dict.copy, part.nbrs)
        corners, edge = self.corners, self.edge
        for key, mine in part.own:
            corners[key] = mine
        for t, pair in part.placing:
            edge[t] = pair
        failure = None
        for x, key, t in part.shared:
            failure = self.union(x, corners[key][t]) or failure
        return failure

    def ways(self, t: int, pair: tuple) -> tuple:
        """The ways (two atom identifications each) to merge a copy `pair`
        of target vertex t into t's placed edge: none when it is merged,
        else both orientations.  Where the copy already shares a class with
        one end, the opposite orientation merges the edge's two ends and
        fails at once with a loop."""
        (p, q), (x, y) = pair, self.edge[t]
        find = self.find
        fp, fq, fx, fy = find(p), find(q), find(x), find(y)
        if (fp == fx and fq == fy) or (fp == fy and fq == fx):
            return ()
        return (((p, x), (q, y)), ((p, y), (q, x)))

    def witness(self) -> PreimageWitness:
        """The glued candidate and its edge map onto the target, not
        verified here.  Candidate vertices are numbered in the order of the
        least atom of each class, over the atoms the placed parts use (a
        squared cycle never uses its unit's hub atom)."""
        find = self.find
        low: dict = {}
        for part in self.placed:
            for a in range(part.lo, part.hi):
                r = find(a)
                if r not in low or a < low[r]:
                    low[r] = a
        vid = {r: i for i, r in enumerate(sorted(low, key=low.__getitem__))}
        mapping = {}
        for part in self.placed:
            for t, (a, b) in part.placing:
                u, v = vid[find(a)], vid[find(b)]
                mapping[(min(u, v), max(u, v))] = t
        return PreimageWitness(self.target, Graph(len(vid), mapping), mapping)


class _Part:
    """One unit's template of one kind, compiled for `Glue.add` against
    the units before it in its plan: the atoms [lo, hi) its edges use and
    each one's neighbour map; the corners of the triangles it holds first
    (`own`) and the identifications (atom, key, t) with the corners of the
    triangles an earlier unit holds (`shared`); the (t, atom pair) edges of
    the target vertices it places first (`placing`) and of those placed
    before (`pending`).

    `triangles` are the unit's (c_p, a_p, c_p+1, key) in cycle order, and
    its atoms run from `lo`.  A wheel (rim p = 0..k-1, hub k) maps cycle
    vertex c_p to the spoke (p, k) and apex a_p to the rim edge (p, p+1); a
    squared cycle (0..k-1, no hub) maps them to (p, p+1) and the chord
    (p, p+2).  Triangle p then has the atoms (p+1, hub, p) opposite its
    vertices in the wheel and (p+2, p+1, p) in the squared cycle.  A vertex
    of a shared triangle (c_p lies in triangles p-1 and p, a_p in p) is
    left out of `pending`: identifying the triangle's corners merges its
    copy, whose ends are the corners opposite the triangle's other two
    vertices, into the earlier unit's copy, already merged into the placed
    edge, so `ways` would find no way to try."""

    __slots__ = ("lo", "hi", "nbrs", "own", "shared", "placing", "pending")

    def __init__(self, kind: str, triangles: list, lo: int,
                 old_keys: set, old_vertices: set):
        k = len(triangles)
        hub = lo + k
        self.lo, self.hi = lo, hub + (kind == WHEEL)
        self.nbrs = nbrs = [{} for _ in range(self.hi - lo)]
        self.own, self.shared, self.placing, self.pending = [], [], [], []
        for p, (c, a, c1, key) in enumerate(triangles):
            x, x1, x2 = lo + p, lo + (p + 1) % k, lo + (p + 2) % k
            if kind == WHEEL:
                edges, mine = ((c, x, hub), (a, x, x1)), {c: x1, a: hub, c1: x}
            else:
                edges, mine = ((c, x, x1), (a, x, x2)), {c: x2, a: x1, c1: x}
            shared = key in old_keys
            if shared:
                self.shared += [(y, key, t) for t, y in mine.items()]
            else:
                self.own.append((key, mine))
            settled = (shared or triangles[p - 1][3] in old_keys, shared)
            for (t, u, v), done in zip(edges, settled):
                nbrs[u - lo][v] = nbrs[v - lo][u] = t
                if t not in old_vertices:
                    self.placing.append((t, (u, v)))
                elif not done:
                    self.pending.append((t, (u, v)))


class _Plan:
    """A blueprint's glue plan, free of pins, for any number of solves:
    its units in a greedy fail-first order and, per unit, its triangles,
    its first atom (k + 1 atoms each, the hub last), the triangles and
    vertices that units before it hold, and its `_Part` of each kind,
    built when the search first asks for it and kept.

    Raises StructureError unless every vertex and every triangle of the
    blueprint lies inside some unit: the glue places only unit vertices.
    The order takes the least name first, then always the unit sharing the
    most vertices with the units already taken, ties broken by name; a
    unit's entry is filled as it is taken.  The units holding each vertex
    are one integer's bits, which the coverage checks AND and the order
    clears as the vertex is taken.  Each unit taken pushes the new overlap
    count of every untaken unit it shares a vertex with onto a heap; a
    unit's highest entry pops first, so the entries left behind are
    skipped."""

    def __init__(self, bp: GadgetBlueprint):
        self.target = g = bp.graph
        units = sorted(sun_units(bp), key=lambda unit: unit[0])
        mask = [0] * g.n  # the units holding each vertex, as bits
        for i, (_, sg) in enumerate(units):
            bit = 1 << i
            for v in sg.vertices:
                mask[v] |= bit
        loose = [v for v, m in enumerate(mask) if not m]
        if loose:
            raise StructureError(
                f"vertex {loose[0]} not inside any registered sun unit "
                f"({len(loose)} in all)")
        for tri in enumerate_triangles(g):
            a, b, c = tri
            if not mask[a] & mask[b] & mask[c]:
                raise StructureError(
                    f"triangle {tri} not inside any registered sun unit")
        self.names: list[str] = []
        self._units: list[tuple[list, int, set, set, dict]] = []
        self.atoms = 0
        keys, vertices = set(), set()
        m = len(units)  # heap keys -overlap * m + the unit's index
        overlap = [0] * m
        untaken = (1 << m) - 1
        heap = list(range(m))
        while heap:
            i = heapq.heappop(heap) % m
            if not untaken >> i & 1:
                continue
            untaken ^= 1 << i
            name, sg = units[i]
            cycle = sg.roles["cycle"]
            triangles = [(c, a, c1, frozenset((c, a, c1))) for c, a, c1 in zip(
                cycle, sg.roles["apex"], cycle[1:] + cycle[:1])]
            mine = {tri[3] for tri in triangles}
            self.names.append(name)
            self._units.append((triangles, self.atoms, mine & keys,
                                vertices.intersection(sg.vertices), {}))
            keys |= mine
            vertices.update(sg.vertices)
            self.atoms += len(triangles) + 1  # the rim, then the hub
            touched = 0
            for v in sg.vertices:
                held = mask[v]
                if held:  # v counts once, when first taken
                    mask[v] = 0
                    touched |= held
                    while held:
                        low = held & -held
                        held ^= low
                        overlap[low.bit_length() - 1] += 1
            touched &= untaken
            while touched:
                low = touched & -touched
                touched ^= low
                j = low.bit_length() - 1
                heapq.heappush(heap, -overlap[j] * m + j)

    def part(self, i: int, kind: str) -> _Part:
        """Unit i's template of `kind` as a `_Part`, built on first use."""
        triangles, lo, keys, vertices, parts = self._units[i]
        if kind not in parts:
            parts[kind] = _Part(kind, triangles, lo, keys, vertices)
        return parts[kind]

    def kinds(self, pin: dict[str, str]) -> list[tuple]:
        """The kinds each unit tries, in plan order: its pinned kind, or
        both.  The one pin check: raises StructureError when the pin names
        anything but a unit, or a kind other than WHEEL or SQUARED_CYCLE."""
        unknown = pin.keys() - set(self.names)
        if unknown:
            raise StructureError(f"pinned units not registered: {sorted(unknown)}")
        for name in sorted(pin):
            if pin[name] not in (WHEEL, SQUARED_CYCLE):
                raise StructureError(f"unit {name} pinned to unknown kind {pin[name]!r}")
        return [(pin[name],) if name in pin else (WHEEL, SQUARED_CYCLE)
                for name in self.names]


def glue_plan(bp: GadgetBlueprint) -> _Plan:
    """The glue plan of bp's sun units, for `glue_templates` to reuse."""
    return _Plan(bp)


def _glue_search(plan: _Plan, kinds: list, budget: _Budget, stuck: list):
    """Depth-first search over each unit's kind, in plan order, and over
    each way to settle the unit's copies of target vertices placed before
    (`Glue.ways`).  Yields (choices, glue) whenever every unit is glued
    without a failure; the glue holds that candidate until the search
    resumes.  Branch points live on an explicit stack, so there is no
    recursion-depth limit.  `kinds` is `plan.kinds(pin)`; each node ticks
    `budget`.  `stuck` ends as (unit index, name, kind, failure) of the
    first failed glue at the deepest unit any glue failed at."""
    glue = Glue(plan)
    names, part = plan.names, plan.part
    choices: dict[str, str] = {}
    # a frame: (mark, unit, its pending copies or None while its kind is
    # open, the copy being settled, the untried alternatives)
    stack = [(glue.mark(), 0, None, 0, iter(kinds[0]))]
    while stack:
        mark, i, pending, j, alts = stack[-1]
        glue.rollback(mark)
        alt = next(alts, None)
        if alt is None:
            stack.pop()
            continue
        budget.tick()
        if pending is None:
            choices[names[i]] = alt
            placed = part(i, alt)
            failure = glue.add(placed)
            pending = placed.pending
        else:
            failure = glue.union(*alt[0]) or glue.union(*alt[1])
            j += 1
        if failure is not None:
            if not stuck or i > stuck[0]:
                stuck[:] = (i, names[i], choices[names[i]], failure)
            continue
        while j < len(pending) and not (ways := glue.ways(*pending[j])):
            j += 1
        if j < len(pending):
            stack.append((glue.mark(), i, pending, j, iter(ways)))
        elif i + 1 < len(kinds):
            stack.append((glue.mark(), i + 1, None, 0, iter(kinds[i + 1])))
        else:
            yield choices, glue


def _verified_glues(plan: _Plan, kinds: list, budget: _Budget, stuck: list):
    """Yields a TemplateAssignment for the first glue of each choice
    vector whose witness verifies, in `_glue_search` order.  A complete glue that
    does not verify marks `stuck` deeper than any unit; the glue can put two
    target vertices on one candidate edge (as the 4-sun's squared template
    puts two apexes on one chord), an edge map verify_certificate refuses."""
    found = set()
    for choices, glue in _glue_search(plan, kinds, budget, stuck):
        key = tuple(sorted(choices.items()))
        if key in found:
            continue
        w = glue.witness()
        if len(w.edge_to_vertex) == w.target.n and verify_certificate(w):
            found.add(key)
            yield TemplateAssignment(dict(choices), w)
        else:
            stuck[:] = (len(kinds), None, None, None)


def template_solve(bp: GadgetBlueprint,
                   limits: SearchLimits | None = None,
                   pin: dict[str, str] | None = None,
                   max_results: int | None = None) -> list[TemplateAssignment]:
    """Enumerate consistent global wheel / squared-cycle choices over all
    registered sun units; one certified witness per distinct choice vector,
    so it is complete on vectors, not on preimages (wire(2) has 10 certified
    oracle leaves on its 2 vectors).

    `_glue_search` prunes a prefix as soon as its glue fails in a way no
    later unit can repair; `_verified_glues` keeps each vector's first
    complete glue that verifies.

    pin fixes the choice of named units (others stay free; `_Plan.kinds`
    checks it); max_results, at least 1, stops the enumeration early;
    limits bounds this one solve.
    """
    if max_results is not None and max_results < 1:
        raise StructureError(f"max_results must be at least 1, got {max_results!r}")
    plan = glue_plan(bp)
    glues = _verified_glues(plan, plan.kinds(pin or {}), _Budget(limits), [])
    found = list(islice(glues, max_results))
    return sorted(found, key=lambda a: sorted(a.choices.items()))


def glue_templates(plan: _Plan, choices: dict[str, str],
                   budget: _Budget | None = None) -> PreimageWitness:
    """Materialize one choice vector: the first glue `_verified_glues`
    yields with every unit pinned to its choice.

    `plan` is the blueprint's `glue_plan`, which one blueprint glued for
    several vectors reuses (`reduction.decide`).  `choices` must name every
    unit of the plan and nothing else (`_Plan.kinds`).  `budget` is a
    running `_Budget`, which the search keeps ticking (`decide` shares one
    across its whole decision), or None for a fresh one at the default
    limits.  Raises GlueError when the choices admit no preimage, its
    `failure` naming the deepest unit (in plan order) whose template the
    search failed to glue on, with that unit's first failure, or saying
    that the glued candidate does not verify.
    """
    kinds = plan.kinds(choices)
    missing = [name for name in sorted(plan.names) if name not in choices]
    if missing:
        raise StructureError(f"no choice for units {missing[:3]} "
                             f"({len(missing)} in all)")
    stuck: list = []
    for found in _verified_glues(plan, kinds, budget or _Budget(), stuck):
        return found.witness
    _, name, kind, failure = stuck
    raise GlueError(f"gluing the {kind} template of {name} makes {failure}" if name
                    else "the glued candidate does not verify")
