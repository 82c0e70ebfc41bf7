"""Simple undirected graphs: triangles, subgraphs, isomorphism, serialization.

Vertex ids are dense integers 0..n-1.  Labels are an optional overlay (string
paths like "x1/H0/c3") so that gadget composition can rename vertices without
re-indexing.  Graphs are immutable after construction.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from .errors import CapacityError, GraphConstructionError, ParseError

Edge = tuple[int, int]

CANONICAL_FORM_VERTEX_CAP = 32


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _is_int(x) -> bool:
    """A JSON integer: `bool` does not count."""
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `adj`, `sorted_edges` and the triangles (`enumerate_triangles`) are
    computed once per object, on first use, and kept; equality and hashing
    read only n, edges and labels.  The edges are also kept, without
    repeats, in the order they were given until `sorted_edges` sorts that
    order, so a graph built from nearly sorted edges sorts them in about
    linear time.  Whatever reads the edges in order reads `sorted_edges`."""

    __slots__ = ("n", "edges", "labels", "_adj", "_order", "_sorted_edges", "_triangles")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Mapping[int, str] | None = None,
    ):
        if n < 0:
            raise GraphConstructionError(f"negative vertex count {n}")
        norm = {}  # the first copy of each edge, in input order
        # an ordered plain tuple is kept as it is; only a reversed pair, a
        # list or a tuple subclass is rebuilt
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphConstructionError(f"edge {e!r}: not a pair of vertex ids") from None
            if type(u) is not int or type(v) is not int:
                raise GraphConstructionError(f"edge {e!r}: vertex ids must be int")
            if u < v:
                if u < 0 or v >= n:
                    raise GraphConstructionError(
                        f"edge ({u},{v}) out of range for {n} vertices")
                if type(e) is not tuple:
                    e = (u, v)
            elif u > v:
                if v < 0 or u >= n:
                    raise GraphConstructionError(
                        f"edge ({u},{v}) out of range for {n} vertices")
                e = (v, u)
            else:
                raise GraphConstructionError(f"loop at vertex {u}")
            norm[e] = None
        self.n = n
        self.edges = frozenset(norm)
        self._order = tuple(norm)  # for sorted_edges
        if labels:
            for v in labels:
                if type(v) is not int:
                    raise GraphConstructionError(f"label on non-int vertex {v!r}")
                if not (0 <= v < n):
                    raise GraphConstructionError(f"label on unknown vertex {v}")
            if len(set(labels.values())) != len(labels):
                raise GraphConstructionError("duplicate vertex labels")
            self.labels = dict(labels)
        else:
            self.labels = None
        self._adj = None
        self._sorted_edges = None
        self._triangles = None

    @property
    def adj(self) -> list[set[int]]:
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        if self._sorted_edges is None:
            self._sorted_edges = tuple(sorted(self._order))
            self._order = None
        return self._sorted_edges

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def enumerate_triangles(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """All 3-cliques, each exactly once, as sorted triples in sorted order;
    enumerated on the first call and kept on g.  Read from g's sorted
    edges, the triples come out nearly sorted, so the final sort runs in
    about linear time.  Greater-neighbour sets are kept only for the
    vertices that have some, so memory follows the edges, not g.n."""
    if g._triangles is None:
        edges = g.sorted_edges
        nbrs: dict[int, set[int]] = {}
        for u, v in edges:
            if u in nbrs:
                nbrs[u].add(v)
            else:
                nbrs[u] = {v}
        tris = [(u, v, w) for u, v in edges if v in nbrs for w in nbrs[v] if w in nbrs[u]]
        tris.sort()
        g._triangles = tuple(tris)
    return g._triangles


def triangle_count_per_vertex(g: Graph) -> list[int]:
    counts = [0] * g.n
    for a, b, c in enumerate_triangles(g):
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    return counts


def every_edge_in_unique_triangle(g: Graph) -> bool:
    """True iff each edge belongs to exactly one triangle: the triangles'
    3t edges, edge (u, v) numbered u * n + v, are distinct and are all of
    g's edges."""
    n, tris = g.n, enumerate_triangles(g)
    covered = {e for a, b, c in tris for e in (a * n + b, a * n + c, b * n + c)}
    return len(covered) == 3 * len(tris) == len(g.edges)


def induced_subgraph(g: Graph, vertex_set: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertex_set`, re-indexed densely.

    Returns (subgraph, back_map) where back_map[new_id] = original id.
    Labels are preserved.
    """
    vs = sorted(set(vertex_set))
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphConstructionError(f"vertex {v} not in graph")
    index = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
    ]
    labels = None
    if g.labels:
        labels = {index[v]: g.labels[v] for v in vs if v in g.labels}
    return Graph(len(vs), edges, labels), tuple(vs)


# ---------------------------------------------------------------------------
# Canonical labeling and isomorphism: one individualization-refinement search
# ---------------------------------------------------------------------------


def _refine_partition(cells: list[list[int]], adj: list[set[int]]) -> list[list[int]]:
    """Stable ordered-partition refinement; fragment order is invariant."""
    while True:
        pos = {}
        for i, cell in enumerate(cells):
            for v in cell:
                pos[v] = i
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {v: tuple(sorted(pos[w] for w in adj[v])) for v in cell}
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                groups.setdefault(sig[v], []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def _closure(start: Iterable, step) -> set:
    """Everything reachable from `start`, where `step(x)` yields x's images."""
    seen, todo = set(start), list(start)
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _find(parent: list[int], x: int) -> int:
    """The root of x's class in the union-find `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _canonical_labeling(g: Graph) -> tuple[bytes, list[int], list[tuple[int, ...]]]:
    """Individualization-refinement search for the lexicographically minimal
    adjacency bit matrix over orderings compatible with color refinement.

    Returns the form, the vertex order that gives it, and the automorphisms
    found at leaves whose rows equal the best rows; these generate Aut(g).
    A child in the orbit of a child already tried, under the automorphisms
    found so far that fix the node's prefix pointwise, is skipped (McKay &
    Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60 (2014)).
    Each node keeps those orbits in a union-find over the vertices and adds
    to it only the automorphisms found since its previous child.
    """
    n, adj = g.n, g.adj
    tri = triangle_count_per_vertex(g)
    initial: dict[tuple, list[int]] = {}
    for v in range(n):
        initial.setdefault((len(adj[v]), tri[v]), []).append(v)
    # rows[i] holds order[i]'s adjacency to order[:i] as bits, first bit highest
    best_rows: list[int] | None = None
    best_order: list[int] = []
    autos: list[tuple[int, ...]] = []

    def search(cells: list[list[int]], order: list[int], rows: list[int]):
        nonlocal best_rows, best_order
        cells = _refine_partition(cells, adj)
        order, rows = order[:], rows[:]
        while len(order) < len(cells) and len(cells[len(order)]) == 1:
            v = cells[len(order)][0]
            row = 0
            for u in order:
                row = row << 1 | (u in adj[v])
            order.append(v)
            rows.append(row)
        if best_rows is not None and rows > best_rows[:len(rows)]:
            return
        if len(order) == n:
            if best_rows is None or rows < best_rows:
                best_rows, best_order = rows, order
            else:
                auto = [0] * n
                for u, v in zip(best_order, order):
                    auto[u] = v
                autos.append(tuple(auto))
            return
        i = len(order)
        # orbits: a union-find; tried: the roots of the tried children's orbits
        target, orbits, tried, checked = cells[i], list(range(n)), set(), 0
        for v in sorted(target):
            for a in autos[checked:]:
                if all(a[u] == u for u in order):
                    for x, y in enumerate(a):
                        rx, ry = _find(orbits, x), _find(orbits, y)
                        if rx != ry:
                            orbits[rx] = ry
                            if rx in tried:
                                tried.add(ry)
            checked = len(autos)
            root = _find(orbits, v)
            if root in tried:
                continue
            tried.add(root)
            search(cells[:i] + [[v], [w for w in target if w != v]] + cells[i + 1:],
                   order, rows)

    search([initial[k] for k in sorted(initial)], [], [])
    bits = "".join(format(row, f"0{i}b") for i, row in enumerate(best_rows) if i)
    return f"G{n}:{bits}".encode(), best_order, autos


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    if g.n > CANONICAL_FORM_VERTEX_CAP:
        raise CapacityError(
            f"canonical_form limited to {CANONICAL_FORM_VERTEX_CAP} vertices, got {g.n}"
        )
    return _canonical_labeling(g)[0]


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """A vertex bijection mapping edges to edges both ways, or None: the two
    canonical orders zipped together when the forms are equal."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    form1, order1, _ = _canonical_labeling(g1)
    form2, order2, _ = _canonical_labeling(g2)
    return dict(zip(order1, order2)) if form1 == form2 else None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


def all_isomorphisms(g1: Graph, g2: Graph) -> list[dict[int, int]]:
    """Every isomorphism g1 -> g2, sorted by image tuple: one isomorphism
    followed by each element of the group the automorphisms of g2 generate."""
    iso = find_isomorphism(g1, g2)
    if iso is None:
        return []
    gens = _canonical_labeling(g2)[2]
    group = _closure([tuple(range(g2.n))],
                     lambda a: (tuple(b[x] for x in a) for b in gens))
    images = sorted(tuple(a[iso[v]] for v in range(g1.n)) for a in group)
    return [dict(enumerate(m)) for m in images]


# ---------------------------------------------------------------------------
# Serialization: edge-list text, JSON, DOT export
# ---------------------------------------------------------------------------


def to_edgelist(g: Graph) -> str:
    """Edge-list text: '# n <count>' header then one 'u v' per line."""
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Parse edge-list text.  '#' starts a comment; a comment whose first
    word is n is the header '# n <count>', which may appear once and sets
    the vertex count (otherwise max id + 1 is used)."""
    edges = []
    n_declared = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["n"]:
                if len(parts) != 2 or n_declared is not None:
                    raise ParseError(f"expected one header '# n <count>', got {raw!r}", lineno)
                try:
                    n_declared = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad vertex count {parts[1]!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno)
        if u == v:
            raise ParseError(f"loop {u} {v}", lineno)
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {raw!r}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = n_declared if n_declared is not None else max_id + 1
    if n <= max_id:
        raise ParseError(f"declared n={n} but saw vertex {max_id}")
    return Graph(n, edges)


def to_json_obj(g: Graph) -> dict:
    """g's JSON object.  Its edges are g's cached `sorted_edges` tuple of
    pair tuples, shared, not copied (json writes a tuple as an array); its
    labels are a new dict."""
    obj: dict = {"n": g.n, "edges": g.sorted_edges}
    if g.labels:
        keys = sorted(g.labels)
        obj["labels"] = dict(zip(map(str, keys), map(g.labels.__getitem__, keys)))
    return obj


def to_json(g: Graph) -> str:
    return json.dumps(to_json_obj(g), indent=None, separators=(",", ":"))


def from_json_obj(obj: dict) -> Graph:
    """The graph of a JSON object: an integer `n`, `edges` as integer
    pairs, optional `labels`, an object from vertex numbers to strings."""
    if not isinstance(obj, dict) or not _is_int(obj.get("n")):
        raise ParseError("bad graph JSON: n must be an integer")
    edges, labels = obj.get("edges"), obj.get("labels", {})
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges):
        raise ParseError("bad graph JSON: edges must be pairs of integers")
    if not isinstance(labels, dict) or not all(
            k.isascii() and k.isdigit() and isinstance(v, str)
            for k, v in labels.items()):
        raise ParseError("bad graph JSON: labels must map vertex numbers to strings")
    # "01" names vertex 1 as "1" does, and the later key would replace the other
    bad = next((k for k in labels if k[0] == "0" and k != "0"), None)
    if bad is not None:
        raise ParseError(f"bad graph JSON: label key {bad!r} is not written as its vertex number")
    try:
        return Graph(obj["n"], edges, {int(k): v for k, v in labels.items()})
    except (GraphConstructionError, ValueError) as exc:  # ValueError: past int's digit limit
        raise ParseError(str(exc))


def _loads(text: str):
    """json.loads failing only with ParseError, even past its digit or depth limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}")


def parse_json(text: str) -> Graph:
    return from_json_obj(_loads(text))


def to_dot(g: Graph) -> str:
    """DOT export for inspection; not re-parsed."""
    lines = ["graph G {"]
    for v in range(g.n):
        label = g.labels.get(v) if g.labels else None
        if label is not None:
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.sorted_edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph_file(path: str) -> Graph:
    """Load a graph from a .json or edge-list file, sniffing the format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_edgelist(text)
