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

The template solver never places single edges: it chooses a wheel or a
squared cycle for each registered sun unit and glues the chosen templates
along the triangles the units share (`Glue`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .errors import BudgetExceededError, CapacityError, CertificateError, StructureError
from .gadgets import GadgetBlueprint, SubGadget
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
    def __init__(self, limits: SearchLimits):
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


def _depth_plan(h: Graph, order: list[int]):
    """What each depth i checks, compiled once per target: order[i], its
    neighbours placed before it, and the target edges uw whose ends and
    common neighbours are all placed once order[i] is, which must be closed
    there."""
    pos = [0] * h.n
    for i, v in enumerate(order):
        pos[v] = i
    closes: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, w in h.edges:
        last = max(pos[u], pos[w], *(pos[t] for t in h.adj[u] & h.adj[w]))
        closes[last].append((u, w))
    return [(v, [u for u in h.adj[v] if pos[u] < i], closes[i])
            for i, v in enumerate(order)]


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


def _certified_witnesses(h: Graph, limits: SearchLimits | None):
    """Yields a verified witness for every complete certified assignment of
    the target vertices to candidate edges: one per labeled preimage, since
    a relabeling mapping one leaf onto another fixes their common prefix's
    edges, so it could only swap the ends of isolated ones (the twin cut).
    A target edge in no triangle refutes the target before any node."""
    limits = limits or SearchLimits()
    if h.n > limits.max_target_vertices:
        raise CapacityError(
            f"target has {h.n} vertices, over the limit "
            f"{limits.max_target_vertices}")
    hadj = h.adj
    if any(not hadj[u] & hadj[w] for u, w in h.edges):
        return
    order = _target_order(h)
    plan = _depth_plan(h, order)
    state = _State(h)
    budget = _Budget(limits)

    def rec(i: int):
        if i == len(plan):
            owner = {state.assign[t]: t for t in order}
            w = PreimageWitness(h, Graph(state.slots, owner), owner)
            if verify_certificate(w):
                yield w
            return
        tv, nbrs, closes = plan[i]
        for a, b in _candidate_edges_for(state, nbrs):
            budget.tick()
            slots = state.slots
            if state.place(hadj, tv, a, b, closes):
                yield from rec(i + 1)
                state.unplace(a, b, slots)

    yield from rec(0)


def brute_force_preimages(h: Graph, limits: SearchLimits | None = None) -> list[PreimageWitness]:
    """All preimage isomorphism classes of h, one verifying witness each.

    Complete within the candidate-vertex bound 2|V(h)|, which no preimage
    can exceed.  Empty list means h has no preimage at all.  Each distinct
    candidate is canonized once: a leaf's candidate has no isolated slot, so
    its edge set determines it.
    """
    seen: dict[bytes, PreimageWitness] = {}
    forms: dict[frozenset, bytes] = {}
    for w in _certified_witnesses(h, limits):
        if (form := forms.get(w.candidate.edges)) is None:
            form = forms[w.candidate.edges] = canonical_form(w.candidate)
        seen.setdefault(form, w)
    return [seen[k] for k in sorted(seen)]


def count_labeled_preimages(h: Graph, limits: SearchLimits | None = None) -> int:
    """Certified (candidate, bijection) pairs modulo candidate relabeling:
    the leaves of `_certified_witnesses`, which builds each pair once."""
    return sum(1 for _ in _certified_witnesses(h, limits))


def is_tlg_small(h: Graph, limits: SearchLimits | None = None):
    """Three-valued recognition: ('YES', witness) / ('NO', None) /
    ('UNKNOWN', reason).  Stops at the first verified witness."""
    try:
        w = next(_certified_witnesses(h, limits), None)
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


_UNSET = object()


class Glue:
    """A candidate graph glued together from template parts.

    A part maps target vertices to edges between its own fresh "atoms"; the
    candidate's vertices are the classes of a union-find over all atoms.
    Adding a part identifies the corners of every triangle it shares with an
    earlier part.  `union` reports the failures that no further
    identification can undo: an edge whose ends meet (a loop), two target
    vertices on one edge, and a closed triangle whose edges are not pairwise
    adjacent in the target.  Every change is journaled, so a search can roll
    back to a mark.
    """

    def __init__(self, target: Graph):
        self.target = target
        self._adj = target.adj
        self.parent: dict = {}
        self.size: dict = {}
        self.nbr: dict = {}       # class root -> {class root: target vertex}
        self.edge: dict = {}      # target vertex -> its first atom pair
        self.corners: dict = {}   # target triangle -> {t: atom opposite t}
        self._log: list = []

    def _set(self, d: dict, key, value) -> None:
        self._log.append((d, key, d.get(key, _UNSET)))
        d[key] = value

    def _drop(self, d: dict, key) -> None:
        self._log.append((d, key, d.pop(key)))

    def mark(self) -> int:
        return len(self._log)

    def rollback(self, mark: int) -> None:
        log = self._log
        while len(log) > mark:
            d, key, old = log.pop()
            if old is _UNSET:
                del d[key]
            else:
                d[key] = old

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        return a

    def union(self, a, b) -> str | None:
        """Identify the classes of atoms a and b; returns the first failure
        the identification causes, or None.  The merge happens either way."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        na, nb = self.nbr[ra], self.nbr[rb]
        adj = self._adj
        failure = "a loop" if rb in na else None
        for s, t in nb.items():
            if s == ra:
                continue
            if s in na:
                if na[s] != t and failure is None:
                    failure = "two target vertices on one edge"
                continue
            # s becomes a neighbour of ra: each triangle (ra, s, u) is new
            ns = self.nbr[s]
            for u in (ns if len(ns) < len(na) else na):
                if u == rb or u in nb or u not in ns or u not in na:
                    continue
                t2, t3 = na[u], ns[u]
                if failure is None and any(
                        x != y and y not in adj[x]
                        for x, y in ((t, t2), (t, t3), (t2, t3))):
                    failure = "a triangle the target lacks"
        self._set(self.parent, rb, ra)
        self._set(self.size, ra, self.size[ra] + self.size[rb])
        for s, t in list(nb.items()):
            self._drop(self.nbr[s], rb)
            if s != ra and s not in na:
                self._set(na, s, t)
                self._set(self.nbr[s], ra, t)
        self._drop(self.nbr, rb)
        return failure

    def add(self, edges: dict, corners: list) -> tuple[str | None, list]:
        """Add a part: `edges` maps target vertices to pairs of atoms not
        seen before, `corners` lists the part's triangles as (key, {t: atom
        opposite t}) pairs.  Returns the first failure, and the part's
        (t, atom pair) copies of target vertices placed before, for `ways`."""
        for t, (a, b) in edges.items():
            for x in (a, b):
                if x not in self.parent:
                    self._set(self.parent, x, x)
                    self._set(self.size, x, 1)
                    self._set(self.nbr, x, {})
            self._set(self.nbr[a], b, t)
            self._set(self.nbr[b], a, t)
        failure = None
        for key, mine in corners:
            old = self.corners.get(key)
            if old is None:
                self._set(self.corners, key, mine)
                continue
            for t, x in mine.items():
                failure = self.union(x, old[t]) or failure
        pending = []
        for t, pair in edges.items():
            if t in self.edge:
                pending.append((t, pair))
            else:
                self._set(self.edge, t, pair)
        return failure, pending

    def ways(self, t, pair) -> tuple:
        """The ways (two atom identifications each) to merge a copy `pair`
        of target vertex t into t's placed edge: none when it is merged,
        else both orientations.  Where the copy already shares a class with
        one end, the opposite orientation merges the edge's two ends and
        fails at once with a loop."""
        (p, q), (x, y) = pair, self.edge[t]
        if {self.find(p), self.find(q)} == {self.find(x), self.find(y)}:
            return ()
        return (((p, x), (q, y)), ((p, y), (q, x)))

    def witness(self) -> PreimageWitness:
        """The glued candidate and its edge map onto the target, not
        verified here.  Candidate vertices are numbered in the order of the
        least atom of each class."""
        low: dict = {}
        for a in self.parent:
            r = self.find(a)
            if r not in low or a < low[r]:
                low[r] = a
        vid = {r: i for i, r in enumerate(sorted(low, key=low.__getitem__))}
        mapping = {}
        for t, (a, b) in self.edge.items():
            u, v = vid[self.find(a)], vid[self.find(b)]
            mapping[(min(u, v), max(u, v))] = t
        return PreimageWitness(self.target, Graph(len(vid), mapping), mapping)


def _is_sun_unit(sg: SubGadget) -> bool:
    cycle, apex = sg.roles.get("cycle"), sg.roles.get("apex")
    return (cycle is not None and apex is not None and len(cycle) == len(apex)
            and set(sg.vertices) == set(cycle) | set(apex))


def sun_units(bp: GadgetBlueprint) -> list[tuple[str, SubGadget]]:
    """The units a template solver branches over: the blueprint itself (as
    "self"), then every registered sub-gadget in name order, each taken
    exactly when its roles hold `cycle` and `apex` of equal length and its
    vertex set is exactly those vertices.  Raises StructureError when there
    is none."""
    whole = SubGadget(bp.kind, tuple(range(bp.graph.n)), dict(bp.roles))
    candidates = [("self", whole)] + [
        (name, bp.sub_gadgets[name]) for name in sorted(bp.sub_gadgets)
        if name != "self"]
    units = [(name, sg) for name, sg in candidates if _is_sun_unit(sg)]
    if not units:
        raise StructureError("blueprint has no registered sun units")
    return units


def unit_parts(units):
    """Yields (name, parts) per unit: `parts` maps each kind to the unit's
    template as a Glue part, its (edges, corners).  A wheel (rim 0..k-1,
    hub k) maps cycle vertex p to the spoke (p, k) and apex p to the rim
    edge (p, p+1); a squared cycle (0..k-1) maps them to (p, p+1) and the
    chord (p, p+2).  The unit's triangle p = (c_p, a_p, c_p+1) then has the
    atoms (p+1, hub, p) opposite its vertices in the wheel and (p+2, p+1, p)
    in the squared cycle.  Template vertices become atoms by adding an
    offset that grows by k + 1 per unit, so no two units share an atom."""
    offset = 0
    for name, sg in units:
        cycle, apex = sg.roles["cycle"], sg.roles["apex"]
        k = len(cycle)
        x0 = list(range(offset, offset + k))  # atom p, then p+1 and p+2 mod k
        x1, x2, hub = x0[1:] + x0[:1], x0[2:] + x0[:2], offset + k
        wheel, squared, wheel_corners, squared_corners = {}, {}, [], []
        for c, a, c1, p, p1, p2 in zip(cycle, apex, cycle[1:] + cycle[:1], x0, x1, x2):
            wheel[c], wheel[a] = (p, hub), (p, p1)
            squared[c], squared[a] = (p, p1), (p, p2)
            key = frozenset((c, a, c1))
            wheel_corners.append((key, {c: p1, a: hub, c1: p}))
            squared_corners.append((key, {c: p2, a: p1, c1: p}))
        yield name, {WHEEL: (wheel, wheel_corners),
                     SQUARED_CYCLE: (squared, squared_corners)}
        offset += k + 1


def _plan(bp: GadgetBlueprint, units, pin: dict[str, str]) -> list:
    """The glue search's plan: (name, parts, kinds to try) per unit, in a
    greedy fail-first order, from one map of each vertex to its units.

    Raises StructureError unless every vertex and every triangle of the
    blueprint lies inside some unit: the glue places only unit vertices.
    Raises it too when a unit is pinned to a kind other than WHEEL or
    SQUARED_CYCLE.
    The order takes the least name first, then always the unit sharing the
    most vertices with the units already taken, ties broken by name.  A
    unit's overlap count is pushed onto a heap each time it rises; its
    highest entry pops first, so the entries left behind are skipped."""
    holders: dict[int, set[int]] = {}
    for i, (_, sg) in enumerate(units):
        for v in sg.vertices:
            holders.setdefault(v, set()).add(i)
    loose = [v for v in range(bp.graph.n) if v not in holders]
    if loose:
        raise StructureError(
            f"vertex {loose[0]} not inside any registered sun unit "
            f"({len(loose)} in all)")
    for tri in enumerate_triangles(bp.graph):
        a, b, c = (holders[v] for v in tri)
        if not a & b & c:
            raise StructureError(
                f"triangle {tri} not inside any registered sun unit")
    for name, _ in units:
        if pin.get(name, WHEEL) not in (WHEEL, SQUARED_CYCLE):
            raise StructureError(f"unit {name} pinned to unknown kind {pin[name]!r}")
    overlap = dict.fromkeys(range(len(units)), 0)
    heap = [(0, name, i) for i, (name, _) in enumerate(units)]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)[2]
        if overlap.pop(i, None) is None:
            continue
        order.append(units[i])
        for v in units[i][1].vertices:
            for j in holders.pop(v, ()):  # v counts once, when first taken
                if j in overlap:
                    overlap[j] += 1
                    heapq.heappush(heap, (-overlap[j], units[j][0], j))
    return [(name, parts, (pin[name],) if name in pin else (WHEEL, SQUARED_CYCLE))
            for name, parts in unit_parts(order)]


def _glue_search(target: Graph, plan: list, limits, stuck: list):
    """Depth-first search over each unit's kind, in `_plan` order, and over
    each way to settle the unit's copies of target vertices placed before
    (`Glue.ways`).  Yields (choices, glue) whenever every unit is glued
    without a failure; the glue holds that candidate until the search
    resumes.  Branch points live on an explicit stack, so there is no
    recursion-depth limit.  `limits` is SearchLimits, None, or a running
    `_Budget` to keep ticking.  `stuck` ends as (unit index, name, kind,
    failure) of the deepest failed glue."""
    tick = (limits if isinstance(limits, _Budget)
            else _Budget(limits or SearchLimits())).tick
    glue = Glue(target)
    choices: dict[str, str] = {}
    # a frame: (mark, unit, its pending copies or None while its kind is
    # open, the copy being settled, the untried alternatives)
    stack = [(glue.mark(), 0, None, 0, iter(plan[0][2]))]
    while stack:
        mark, i, pending, j, alts = stack[-1]
        glue.rollback(mark)
        alt = next(alts, None)
        if alt is None:
            stack.pop()
            continue
        tick()
        name, parts, _ = plan[i]
        if pending is None:
            choices[name] = alt
            failure, pending = glue.add(*parts[alt])
        else:
            failure = glue.union(*alt[0]) or glue.union(*alt[1])
            j += 1
        if failure is not None:
            if not stuck or i > stuck[0]:
                stuck[:] = (i, name, choices[name], failure)
            continue
        while j < len(pending) and not (ways := glue.ways(*pending[j])):
            j += 1
        if j < len(pending):
            stack.append((glue.mark(), i, pending, j, iter(ways)))
        elif i + 1 < len(plan):
            stack.append((glue.mark(), i + 1, None, 0, iter(plan[i + 1][2])))
        else:
            yield choices, glue


def template_solve(bp: GadgetBlueprint,
                   limits: SearchLimits | None = None,
                   pin: dict[str, str] | None = None,
                   max_results: int | None = None) -> list[TemplateAssignment]:
    """Enumerate consistent global wheel / squared-cycle choices over all
    registered sun units; one certified witness per distinct choice vector,
    so it is complete on vectors, not on preimages (wire(2) has 10 certified
    oracle leaves on its 2 vectors).

    `_glue_search` prunes a prefix as soon as its glue fails in a way no
    later unit can repair; each complete glue is kept when it verifies.

    pin fixes the choice of named units (others stay free); max_results
    stops the enumeration early; limits may be a running `_Budget`.
    """
    pin = pin or {}
    units = sun_units(bp)
    unknown = set(pin) - {name for name, _ in units}
    if unknown:
        raise StructureError(f"pinned units not registered: {sorted(unknown)}")
    plan = _plan(bp, units, pin)
    results: dict[tuple, TemplateAssignment] = {}
    for choices, glue in _glue_search(bp.graph, plan, limits, []):
        key = tuple(sorted(choices.items()))
        if key in results:
            continue
        w = glue.witness()
        if verify_certificate(w):
            results[key] = TemplateAssignment(dict(choices), w)
            if max_results is not None and len(results) >= max_results:
                break
    return [results[k] for k in sorted(results)]


def glue_templates(bp: GadgetBlueprint, choices: dict[str, str],
                   limits: SearchLimits | None = None) -> PreimageWitness:
    """Materialize one choice vector: the first verified glue of the search
    behind `template_solve` with every unit pinned to its choice.

    `choices` must name every registered unit; other names are ignored.
    `limits` may also be a running `_Budget`, which the search then keeps
    ticking: `reduction.decide` shares one across its whole decision.
    Raises CertificateError when the choices admit no preimage, naming the
    first unit (in search order) whose template cannot be glued on, or
    saying that the glued candidate does not verify.
    """
    units = sun_units(bp)
    missing = [name for name, _ in units if name not in choices]
    if missing:
        raise StructureError(f"no choice for units {missing[:3]} "
                             f"({len(missing)} in all)")
    plan = _plan(bp, units, choices)
    stuck: list = []
    for _, glue in _glue_search(bp.graph, plan, limits, stuck):
        w = glue.witness()
        if verify_certificate(w):
            return w
        stuck[:] = (len(units), None, None, None)  # deeper than any unit
    _, name, kind, failure = stuck
    raise CertificateError(
        "no preimage realizes the prescribed template choices: " + (
            f"gluing the {kind} template of {name} makes {failure}" if name
            else "the glued candidate does not verify"))
