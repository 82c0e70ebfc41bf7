"""Constructors for bowties, fans, wheels, suns, and the composite gadgets.

A blueprint is a graph annotated with named roles (vertex tuples) and a
registry of sub-gadgets addressed by slash-separated paths.  Composition
works by disjoint union followed by vertex identification; parallel edges
arising from merged triangles collapse silently (set semantics).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape

from .errors import StructureError
from .graph import Graph, _find, to_json_obj

EQUAL = "EQUAL"
NOT = "NOT"


@dataclass(frozen=True)
class SubGadget:
    """A registered sub-structure: vertex subset of the host plus roles."""

    kind: str
    vertices: tuple[int, ...]
    roles: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class GadgetBlueprint:
    graph: Graph
    kind: str
    roles: dict[str, tuple[int, ...]] = field(default_factory=dict)
    sub_gadgets: Mapping[str, SubGadget] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def sub(self, path: str) -> SubGadget:
        try:
            return self.sub_gadgets[path]
        except KeyError:
            raise StructureError(f"no sub-gadget named {path!r}")

    def to_json_obj(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The blueprint as compact JSON.  `json.dumps` writes the graph,
        kind, roles and meta; a built registry writes its own text (see
        _Registry.to_json), which is spliced in, and a plain dict of
        SubGadgets is dumped with each entry's vertices in stored order."""
        subs = self.sub_gadgets
        reg = subs.to_json() if isinstance(subs, _Registry) else _dumps({
            name: {"kind": sg.kind, "vertices": list(sg.vertices),
                   "roles": {k: list(v) for k, v in sorted(sg.roles.items())}}
            for name, sg in sorted(subs.items())})
        head = _dumps({"graph": to_json_obj(self.graph), "kind": self.kind,
                       "roles": {k: list(v) for k, v in sorted(self.roles.items())}})
        return f'{head[:-1]},"sub_gadgets":{reg},{_dumps({"meta": self.meta})[1:]}'


def _dumps(obj) -> str:
    # the objects are built fresh and meta holds no cycle, so there is
    # none to look for
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def _vertex_names(g: Graph) -> list[str]:
    """Each vertex's label, or `v{v}` when it has none."""
    labels = g.labels or {}
    return [labels[v] if v in labels else f"v{v}" for v in range(g.n)]


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _bowtie(g: Graph, center: int, t1: tuple[int, int], t2: tuple[int, int]) -> SubGadget:
    """The bowtie of g with triangles center + t1 and center + t2, checked."""
    verts = (center,) + t1 + t2
    if len(set(verts)) != 5:
        raise StructureError("bowtie roles must name five distinct vertices")
    edges = g.edges
    for a, b in (t1, t2):
        for u, v in ((center, a), (center, b), (a, b)):
            if ((u, v) if u < v else (v, u)) not in edges:
                raise StructureError(f"missing bowtie edge ({u},{v})")
    # the two triangles must share only the center
    if any(((u, v) if u < v else (v, u)) in edges for u in t1 for v in t2):
        raise StructureError("bowtie triangles share more than the center")
    return SubGadget("bowtie", verts, {"center": (center,), "t1": t1, "t2": t2})


def _require_sun7(bp: GadgetBlueprint) -> None:
    if bp.kind != "sun7" or "cycle" not in bp.roles or "apex" not in bp.roles:
        raise StructureError("expected a 7-sun blueprint with cycle/apex roles")
    if len(bp.roles["cycle"]) != 7 or len(bp.roles["apex"]) != 7:
        raise StructureError("7-sun roles have wrong arity")


# ---------------------------------------------------------------------------
# Assembly: disjoint union + identification, with registry translation
# ---------------------------------------------------------------------------


class Assembly:
    """Incrementally builds a composite blueprint.

    Parts are added with a path prefix; identifications are collected in
    union-id space and applied once at build time.  Each part's edges and
    sub-gadgets are kept in part coordinates with the part's offset; `sub`
    shifts one on lookup, and a built blueprint's registry translates an
    entry through the build's vertex map on its first read (see _Registry).
    A part's edges are its graph's `sorted_edges`, shared by every copy, so
    a built graph is given its edges as sorted runs and sorts them in about
    linear time.
    """

    def __init__(self):
        self._n = 0
        # (offset, vertex count, sorted edges in part coordinates) per part
        self._parts: list[tuple[int, int, tuple[tuple[int, int], ...]]] = []
        self._labels: list[str] = []
        self._subs: dict[str, tuple[int, SubGadget]] = {}
        self._pairs: list[tuple[int, int]] = []

    def add(self, bp: GadgetBlueprint, prefix: str) -> None:
        """Add a copy of bp with every path and label part ("a=b") under
        prefix; an unlabeled vertex v is named `v{v}`, and no name twice."""
        g = bp.graph
        names = _vertex_names(g)
        if len(set(names)) < g.n:
            twice = next(x for i, x in enumerate(names) if x in names[:i])
            raise StructureError(f"part {prefix!r} names two vertices {twice!r}")
        part = Assembly()
        part._n, part._parts, part._labels = g.n, [(0, g.n, g.sorted_edges)], names
        part._subs = {name: (0, sg) for name, sg in bp.sub_gadgets.items()}
        self._subs[prefix] = (self._n, SubGadget(bp.kind, tuple(range(g.n)), bp.roles))
        self.add_copy(part, prefix)

    def add_copy(self, part: Assembly, prefix: str) -> None:
        """Add a copy of an unbuilt assembly, its identifications included,
        with every path and label part under prefix: the state that
        replaying part's adds and joins with their prefixes under prefix
        would leave, without rebuilding any of its blueprints."""
        off = self._n
        self._n += part._n
        self._parts += [(o + off, k, edges) for o, k, edges in part._parts]
        sep = f"={prefix}/"
        self._labels += [f"{prefix}/{x.replace('=', sep)}" for x in part._labels]
        self._subs.update({f"{prefix}/{name}": (o + off, sg)
                           for name, (o, sg) in part._subs.items()})
        self._pairs += [(u + off, v + off) for u, v in part._pairs]

    def sub(self, path: str) -> SubGadget:
        try:
            off, sg = self._subs[path]
        except KeyError:
            raise StructureError(f"no sub-gadget named {path!r}")
        shift = lambda t: tuple(x + off for x in t)
        return SubGadget(sg.kind, shift(sg.vertices), {k: shift(v) for k, v in sg.roles.items()})

    def identify(self, u: int, v: int) -> None:
        self._pairs.append((u, v))

    def bowtie_join(self, path_a: str, path_b: str, mode: str) -> None:
        """Identify two attachment bowties per the EQUAL or NOT pattern."""
        ba, bb = self.sub(path_a), self.sub(path_b)
        for sg, path in ((ba, path_a), (bb, path_b)):
            if sg.kind != "bowtie":
                raise StructureError(f"{path!r} is not a bowtie sub-gadget")
        ca, (ca1, aa1), (ca2, aa2) = (
            ba.roles["center"][0], ba.roles["t1"], ba.roles["t2"],
        )
        cb, (cb1, ab1), (cb2, ab2) = (
            bb.roles["center"][0], bb.roles["t1"], bb.roles["t2"],
        )
        self.identify(ca, cb)
        if mode == EQUAL:
            # both triangles: identify vertices of different degrees
            self.identify(ca1, ab1)
            self.identify(aa1, cb1)
        elif mode == NOT:
            # one triangle same-degree, the other different
            self.identify(ca1, cb1)
            self.identify(aa1, ab1)
        else:
            raise StructureError(f"unknown join mode {mode!r}")
        self.identify(ca2, ab2)
        self.identify(aa2, cb2)

    def build(self, kind: str, meta: dict | None = None) -> GadgetBlueprint:
        parent = list(range(self._n))
        for u, v in self._pairs:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        # every class is rooted at its least member, so new ids follow the
        # roots, and off the roots parent[v] < v already has its new id:
        # between two merged-away vertices the new ids are one range and the
        # labels one slice.  A class's label joins its members' label parts,
        # as does a label with several parts ("a=b") on its own.
        n, old = self._n, self._labels
        vmap: list[int] = []
        names: list[str] = []
        groups: dict[int, list[str]] = {}
        start = 0
        for v in sorted({x for pair in self._pairs for x in pair if parent[x] != x}):
            vmap += range(len(names), len(names) + v - start)
            names += old[start:v]
            nid = vmap[parent[v]]
            vmap.append(nid)
            groups.setdefault(nid, [names[nid]]).append(old[v])
            start = v + 1
        vmap += range(len(names), len(names) + n - start)
        names += old[start:]
        if "=" in "".join(old):  # one search finds whether any label has parts
            for v, x in enumerate(old):
                if "=" in x:
                    groups.setdefault(vmap[v], []).append(x)
        for nid, group in groups.items():
            names[nid] = "=".join(sorted({*"=".join(group).split("=")}))

        edges = []
        for off, k, part_edges in self._parts:
            tr = vmap[off:off + k]
            edges += [(tr[u], tr[v]) for u, v in part_edges]
        graph = Graph(len(names), edges, dict(enumerate(names)))
        return GadgetBlueprint(graph, kind, {}, _Registry(dict(self._subs), vmap), meta or {})


class _Registry(Mapping):
    """A built blueprint's read-only sub-gadget registry: the assembly's
    (offset, SubGadget) entries in part coordinates, an entry translated
    through the build's vertex map each time it is read (`sun_units` reads
    only the units).  Its JSON text is written from the entries and the
    vertex map, with no entry translated (to_json)."""

    def __init__(self, entries: dict[str, tuple[int, SubGadget]], vmap: list[int]):
        self._entries, self._vmap = entries, vmap

    def __getitem__(self, name: str) -> SubGadget:
        return self._translate(*self._entries[name])

    def _translate(self, off: int, sg: SubGadget) -> SubGadget:
        vm = self._vmap
        return SubGadget(sg.kind, tuple(sorted({vm[x + off] for x in sg.vertices})),
                         {k: tuple([vm[x + off] for x in v]) for k, v in sg.roles.items()})

    def to_json(self) -> str:
        """The JSON text of every entry by name, as `json.dumps` would
        write the SubGadgets `__getitem__` gives, without making or keeping
        them.  Each built vertex id becomes text once, and each distinct
        SubGadget object (the entries copied per variable share one) has its
        escaped kind and sorted, escaped role keys made once."""
        vm, entries = self._vmap, self._entries
        tx = list(map(str, range(max(vm, default=-1) + 1)))
        heads: dict[int, tuple] = {}
        out = []
        for name in sorted(entries):
            off, sg = entries[name]
            head = heads.get(id(sg))
            if head is None:
                head = heads[id(sg)] = (
                    f'{{"kind":{_escape(sg.kind)},"vertices":[',
                    [(f"{_escape(k)}:[", v) for k, v in sorted(sg.roles.items())])
            opening, roles = head
            ids = ",".join([tx[x] for x in sorted({vm[x + off] for x in sg.vertices})])
            role_text = ",".join([key + ",".join([tx[vm[x + off]] for x in v]) + "]"
                                  for key, v in roles])
            out.append(f'{_escape(name)}:{opening}{ids}],"roles":{{{role_text}}}}}')
        return "{" + ",".join(out) + "}"

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _is_sun_unit(sg: SubGadget) -> bool:
    cycle, apex = sg.roles.get("cycle"), sg.roles.get("apex")
    return (cycle is not None and apex is not None and len(cycle) == len(apex)
            and set(sg.vertices) == set(cycle) | set(apex))


def sun_units(bp: GadgetBlueprint) -> list[tuple[str, SubGadget]]:
    """The units a template solver branches over: the blueprint itself (as
    "self"), then every registered sub-gadget in name order, each taken
    exactly when its roles hold `cycle` and `apex` of equal length and its
    vertex set is exactly those vertices, as stored: a built registry reads
    (translates) only the units.  Raises StructureError when there is none."""
    whole = SubGadget(bp.kind, tuple(range(bp.graph.n)), dict(bp.roles))
    subs = bp.sub_gadgets
    stored = ({name: sg for name, (_, sg) in subs._entries.items()}
              if isinstance(subs, _Registry) else subs)
    units = [("self", whole)] if _is_sun_unit(whole) else []
    units += [(name, subs[name]) for name in sorted(stored)
              if name != "self" and _is_sun_unit(stored[name])]
    if not units:
        raise StructureError("blueprint has no registered sun units")
    return units


# ---------------------------------------------------------------------------
# Elementary gadgets
# ---------------------------------------------------------------------------


def make_bowtie() -> GadgetBlueprint:
    """Two triangles sharing one vertex (the center): 5 vertices, 6 edges."""
    g = Graph(
        5,
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
        {0: "center", 1: "t1c", 2: "t1a", 3: "t2c", 4: "t2a"},
    )
    return GadgetBlueprint(g, "bowtie", _bowtie(g, 0, (1, 2), (3, 4)).roles)


def make_fan(k: int) -> GadgetBlueprint:
    """k triangles sharing a hub, consecutive ones sharing an edge."""
    if k < 3:
        raise StructureError(f"fan needs k >= 3, got {k}")
    hub = 0
    rim = list(range(1, k + 2))
    edges = [(hub, r) for r in rim]
    edges += [(rim[i], rim[i + 1]) for i in range(k)]
    labels = {0: "hub", **{r: f"r{i}" for i, r in enumerate(rim)}}
    g = Graph(k + 2, edges, labels)
    return GadgetBlueprint(g, "fan", {"hub": (hub,), "rim": tuple(rim)})


def make_triangle_strip(k: int) -> GadgetBlueprint:
    """k triangles in a strip: triangles at distance two share a vertex."""
    if k < 3:
        raise StructureError(f"triangle strip needs k >= 3, got {k}")
    n = k + 2
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2)]
    g = Graph(n, edges, {i: f"v{i}" for i in range(n)})
    return GadgetBlueprint(g, "strip", {"spine": tuple(range(n))})


def make_wheel(k: int) -> GadgetBlueprint:
    """k-cycle plus a dominating hub: k+1 vertices, 2k edges."""
    if k < 4:
        raise StructureError(f"wheel needs k >= 4, got {k}")
    hub = k
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, hub) for i in range(k)]
    labels = {**{i: f"c{i}" for i in range(k)}, hub: "hub"}
    g = Graph(k + 1, edges, labels)
    return GadgetBlueprint(g, f"wheel{k}", {"cycle": tuple(range(k)), "hub": (hub,)})


def make_squared_cycle(k: int) -> GadgetBlueprint:
    """k-cycle with chords between distance-2 vertices: k vertices, 2k edges."""
    if k < 5:
        raise StructureError(f"squared cycle needs k >= 5, got {k}")
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, (i + 2) % k) for i in range(k)]
    g = Graph(k, edges, {i: f"c{i}" for i in range(k)})
    return GadgetBlueprint(g, f"squared_cycle{k}", {"cycle": tuple(range(k))})


def _sun_parts(k: int):
    """A k-sun's edges, vertex names (c0.., a0..) and roles."""
    cycle = tuple(range(k))
    apex = tuple(range(k, 2 * k))
    edges = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        edges += [(apex[i], cycle[i]), (apex[i], cycle[(i + 1) % k])]
    names = [f"c{i}" for i in range(k)] + [f"a{i}" for i in range(k)]
    return edges, names, {"cycle": cycle, "apex": apex, **_clause_roles(cycle, apex)}


def make_sun(k: int) -> GadgetBlueprint:
    """k-cycle with one degree-2 apex on each cycle edge: 2k vertices, 3k edges."""
    if k < 4:
        raise StructureError(f"sun needs k >= 4, got {k}")
    edges, names, roles = _sun_parts(k)
    return GadgetBlueprint(Graph(2 * k, edges, dict(enumerate(names))), f"sun{k}", roles)


def _clause_roles(cycle: tuple[int, ...], apex: tuple[int, ...]) -> dict:
    """Clause-attachment triangles of a k-sun, k >= 12: a at position 0 and
    b at the antipodal position k // 2 (the appendix coordinates 0 and 6 of
    the 12-sun).  Smaller suns get none."""
    k = len(cycle)
    if k < 12:
        return {}
    b = k // 2
    return {"a_triangle": (cycle[0], cycle[1], apex[0]),
            "b_triangle": (cycle[b], cycle[b + 1], apex[b])}


def _sun_bowtie(g: Graph, cycle: tuple[int, ...], apex: tuple[int, ...],
                center_idx: int) -> SubGadget:
    """Bowtie of the two sun triangles meeting at cycle vertex center_idx."""
    k = len(cycle)
    i = center_idx
    return _bowtie(g, cycle[i], (cycle[(i - 1) % k], apex[(i - 1) % k]),
                   (cycle[(i + 1) % k], apex[i]))


def designate_attachments(sun7: GadgetBlueprint) -> GadgetBlueprint:
    """Mark the ROOT / EQUAL / NOT bowties on a 7-sun.

    Positions (cycle vertices 0..6, triangle i = (c_i, c_{i+1}, a_i)):
    ROOT centered at c0, EQUAL at c2, NOT at c4 -- pairwise triangle-disjoint.
    Idempotent.
    """
    _require_sun7(sun7)
    cycle, apex = sun7.roles["cycle"], sun7.roles["apex"]
    subs = dict(sun7.sub_gadgets)
    subs["root"] = _sun_bowtie(sun7.graph, cycle, apex, 0)
    subs["equal"] = _sun_bowtie(sun7.graph, cycle, apex, 2)
    subs["not"] = _sun_bowtie(sun7.graph, cycle, apex, 4)
    return GadgetBlueprint(sun7.graph, sun7.kind, sun7.roles, subs, sun7.meta)


def make_binary_enforced_sun(k: int) -> GadgetBlueprint:
    """k-sun plus, for each i, a three-triangle chain from c_i to c_{i+4},
    closing an embedded 7-sun with the four sun triangles in between.
    Chain i's vertices w1, w2, p1, p2, p3 are 2k + 5i ... 2k + 5i + 4."""
    if k < 9:
        raise StructureError(f"binary-enforced sun needs k >= 9, got {k}")
    edges, names, roles = _sun_parts(k)
    cycle, apex = roles["cycle"], roles["apex"]
    cycle2, apex2 = cycle * 2, apex * 2  # index i + d wraps around
    chains = [tuple(range(w1, w1 + 5)) for w1 in range(2 * k, 7 * k, 5)]
    for i, (w1, w2, p1, p2, p3) in enumerate(chains):
        ci, ci4 = cycle[i], cycle2[i + 4]
        edges += [
            (ci4, w1), (w1, w2), (w2, ci),
            (ci4, p1), (w1, p1),
            (w1, p2), (w2, p2),
            (w2, p3), (ci, p3),
        ]
        names += [f"w1_{i}", f"w2_{i}", f"p1_{i}", f"p2_{i}", f"p3_{i}"]
    g = Graph(7 * k, edges, dict(enumerate(names)))

    subs: dict[str, SubGadget] = {}
    for i, (w1, w2, p1, p2, p3) in enumerate(chains):
        cyc7 = cycle2[i:i + 5] + (w1, w2)
        apx7 = apex2[i:i + 4] + (p1, p2, p3)
        subs[f"emb{i}"] = SubGadget(
            "sun7", tuple(sorted(cyc7 + apx7)), {"cycle": cyc7, "apex": apx7}
        )
        # the chain is the embedded 7-sun's bowtie at w1, its cycle vertex 5
        subs[f"emb{i}/chain"] = _sun_bowtie(g, cyc7, apx7, 5)
    subs[f"sun{k}"] = SubGadget(
        f"sun{k}", tuple(cycle + apex), {"cycle": cycle, "apex": apex}
    )
    return GadgetBlueprint(g, f"binary_sun{k}", roles, subs)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _join(a: GadgetBlueprint, bowtie_a: str, b: GadgetBlueprint, bowtie_b: str,
          mode: str, kind: str) -> GadgetBlueprint:
    asm = Assembly()
    asm.add(a, "a")
    asm.add(b, "b")
    asm.bowtie_join(f"a/{bowtie_a}", f"b/{bowtie_b}", mode)
    return asm.build(kind)


def attach_equal(a: GadgetBlueprint, bowtie_a: str,
                 b: GadgetBlueprint, bowtie_b: str) -> GadgetBlueprint:
    """EQUAL gadget: centers identified, then cycle vertices of one sun
    identified with apexes of the other in both bowtie triangles."""
    return _join(a, bowtie_a, b, bowtie_b, EQUAL, "equal_join")


def attach_not(a: GadgetBlueprint, bowtie_a: str,
               b: GadgetBlueprint, bowtie_b: str) -> GadgetBlueprint:
    """NOT gadget: same-degree identification in one triangle, different in
    the other."""
    return _join(a, bowtie_a, b, bowtie_b, NOT, "not_join")


def _add_wire(asm: Assembly, k: int) -> None:
    """Add the 7-suns H0..Hk of a wire, NOT-joined in turn."""
    sun = designate_attachments(make_sun(7))
    for i in range(k + 1):
        asm.add(sun, f"H{i}")
        if i > 0:
            asm.bowtie_join(f"H{i-1}/not", f"H{i}/root", NOT)


def make_wire(k: int) -> GadgetBlueprint:
    """k+1 chained 7-suns H0..Hk, consecutive pairs joined by NOT gadgets."""
    if k < 0:
        raise StructureError("wire length must be >= 0")
    asm = Assembly()
    _add_wire(asm, k)
    return asm.build("wire", meta={"length": k})


def make_large_variable_gadget(k: int = 12) -> GadgetBlueprint:
    """Binary-enforced k-sun whose embedded 7-sun at chain 0 is H'.

    H' attaches to the wire by an EQUAL gadget at its chain bowtie (centered
    at w1_0), which keeps the identifications away from the clause-attachment
    triangles (appendix indices 0,1,2 and 12,13,14 at k = 12).
    """
    base = make_binary_enforced_sun(k)
    roles = dict(base.roles)
    roles["hprime"] = base.sub("emb0").vertices
    return GadgetBlueprint(base.graph, "large_variable", roles, base.sub_gadgets)


def _cluster_assembly(m: int, k: int) -> Assembly:
    """A variable's cluster (see make_variable_cluster), unbuilt, so a
    formula copies it once per variable into one Assembly."""
    if m < 1:
        raise StructureError(f"variable cluster needs m >= 1, got {m}")
    asm = Assembly()
    _add_wire(asm, 2 * m)
    tap = make_large_variable_gadget(k)
    for j in range(1, 2 * m + 1):
        asm.add(tap, f"V{j}")
        asm.bowtie_join(f"H{j}/equal", f"V{j}/emb0/chain", EQUAL)
    return asm


def make_variable_cluster(i: int, m: int, k: int = 12) -> GadgetBlueprint:
    """Wire of 2m+1 suns with a large variable gadget (an enforced k-sun)
    EQUAL-joined to each of H_1..H_2m.  Tap j stores x_i when j is even and
    its complement when odd."""
    asm = _cluster_assembly(m, k)
    polarity = {j: ("pos" if j % 2 == 0 else "neg") for j in range(1, 2 * m + 1)}
    return asm.build("cluster", meta={"variable": i, "m": m, "polarity": polarity})


def _clause_pairs(asm: Assembly, legs: list[str]) -> None:
    """Cyclic a/b triangle identification across three large suns, whose
    roles the callers check (join_clause, _refuse_uncompilable)."""
    for ell in range(3):
        a1, a2, a3 = asm.sub(legs[ell]).roles["a_triangle"]
        b1, b2, b3 = asm.sub(legs[(ell + 1) % 3]).roles["b_triangle"]
        asm.identify(a1, b1)
        asm.identify(a2, b3)
        asm.identify(a3, b2)


def join_clause(g1: GadgetBlueprint, g2: GadgetBlueprint,
                g3: GadgetBlueprint) -> GadgetBlueprint:
    """Three-way twisted identification of the clause-attachment triangles."""
    asm = Assembly()
    legs = []
    for ell, bp in enumerate((g1, g2, g3), start=1):
        prefix = f"S{ell}"
        asm.add(bp, prefix)
        legs.append(prefix)
        for role in ("a_triangle", "b_triangle"):
            if role not in bp.roles:
                raise StructureError(f"clause leg {ell} lacks {role}")
            tri = bp.roles[role]
            if bp.graph.degree(tri[2]) != 2:
                raise StructureError(
                    f"clause leg {ell}: {role} third vertex must have degree 2"
                )
    _clause_pairs(asm, legs)
    return asm.build("clause")
