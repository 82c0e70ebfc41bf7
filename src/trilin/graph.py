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


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "labels", "_adj", "_sorted_edges")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Mapping[int, str] | None = None,
    ):
        if n < 0:
            raise GraphConstructionError(f"negative vertex count {n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphConstructionError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphConstructionError(
                    f"edge ({u},{v}) out of range for {n} vertices"
                )
            norm.add(_norm_edge(u, v))
        self.n = n
        self.edges = frozenset(norm)
        if labels:
            for v in labels:
                if not (0 <= v < n):
                    raise GraphConstructionError(f"label on unknown vertex {v}")
            if len(set(labels.values())) != len(labels):
                raise GraphConstructionError("duplicate vertex labels")
            self.labels = dict(labels)
        else:
            self.labels = None
        self._adj = None
        self._sorted_edges = None

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
            self._sorted_edges = tuple(sorted(self.edges))
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


def build_graph(
    vertex_count: int,
    edges: Iterable[tuple[int, int]],
    labels: Mapping[int, str] | None = None,
) -> Graph:
    """Validated construction; duplicate edge pairs are deduplicated."""
    return Graph(vertex_count, edges, labels)


def enumerate_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-cliques, each exactly once, as sorted triples in sorted order."""
    adj = g.adj
    out = []
    for u, v in g.sorted_edges:
        for w in adj[u] & adj[v]:
            if w > v:
                out.append((u, v, w))
    out.sort()
    return out


def triangle_count_per_vertex(g: Graph) -> list[int]:
    counts = [0] * g.n
    for a, b, c in enumerate_triangles(g):
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    return counts


def every_edge_in_unique_triangle(g: Graph) -> bool:
    """True iff each edge belongs to exactly one triangle."""
    adj = g.adj
    return all(len(adj[u] & adj[v]) == 1 for u, v in g.edges)


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
# Isomorphism via color refinement + backtracking
# ---------------------------------------------------------------------------


def _refine_joint(graphs: list[Graph]) -> list[list[int]]:
    """Color-refine several graphs jointly so color ids are comparable."""
    tri = [triangle_count_per_vertex(g) for g in graphs]
    keys = [
        [(g.degree(v), tri[i][v]) for v in range(g.n)]
        for i, g in enumerate(graphs)
    ]

    def compress(all_keys):
        table = {k: i for i, k in enumerate(sorted({k for ks in all_keys for k in ks}))}
        return [[table[k] for k in ks] for ks in all_keys]

    colors = compress(keys)
    while True:
        new_keys = []
        for i, g in enumerate(graphs):
            ci = colors[i]
            new_keys.append(
                [(ci[v], tuple(sorted(ci[w] for w in g.adj[v]))) for v in range(g.n)]
            )
        new_colors = compress(new_keys)
        if new_colors == colors:
            return colors
        colors = new_colors


def _iso_backtrack(g1: Graph, g2: Graph):
    """Yield isomorphisms g1 -> g2 as dicts. Deterministic order."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return
    colors1, colors2 = _refine_joint([g1, g2])
    if sorted(colors1) != sorted(colors2):
        return
    by_color2: dict[int, list[int]] = {}
    for v in range(g2.n):
        by_color2.setdefault(colors2[v], []).append(v)

    n = g1.n
    mapping = [-1] * n
    used = [False] * n
    adj1, adj2 = g1.adj, g2.adj

    # Static order: most constrained first (rare colors, high degree),
    # then prefer vertices adjacent to already ordered ones.
    color_sizes = {c: len(vs) for c, vs in by_color2.items()}
    remaining = set(range(n))
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -len(adj1[v] & placed),
                color_sizes[colors1[v]],
                -len(adj1[v]),
                v,
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)

    def rec(i: int):
        if i == n:
            yield {v: mapping[v] for v in range(n)}
            return
        v = order[i]
        for w in by_color2[colors1[v]]:
            if used[w]:
                continue
            ok = True
            for u in adj1[v]:
                mu = mapping[u]
                if mu >= 0 and mu not in adj2[w]:
                    ok = False
                    break
            if ok:
                # non-adjacency must also be preserved (same degrees per color
                # make the reverse check necessary only for mapped vertices)
                for u in range(n):
                    mu = mapping[u]
                    if mu >= 0 and u not in adj1[v] and mu in adj2[w]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            yield from rec(i + 1)
            mapping[v] = -1
            used[w] = False

    yield from rec(0)


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """A vertex bijection mapping edges to edges both ways, or None."""
    for m in _iso_backtrack(g1, g2):
        return m
    return None


def all_isomorphisms(g1: Graph, g2: Graph) -> list[dict[int, int]]:
    """Every isomorphism g1 -> g2, in deterministic order."""
    return list(_iso_backtrack(g1, g2))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


# ---------------------------------------------------------------------------
# Canonical form: minimal adjacency string over refinement-compatible orders
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


def canonical_form(g: Graph, max_vertices: int = CANONICAL_FORM_VERTEX_CAP) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic.

    Individualization-refinement search for the lexicographically minimal
    adjacency bit matrix over orderings compatible with color refinement.
    """
    if g.n > max_vertices:
        raise CapacityError(
            f"canonical_form limited to {max_vertices} vertices, got {g.n}"
        )
    n = g.n
    if n == 0:
        return b"G0:"
    adj = g.adj
    tri = triangle_count_per_vertex(g)
    initial: dict[tuple, list[int]] = {}
    for v in range(n):
        initial.setdefault((len(adj[v]), tri[v]), []).append(v)
    cells0 = [initial[k] for k in sorted(initial)]

    best_rows: list[tuple[int, ...]] | None = None

    def rows_for(prefix: list[int], start: int) -> list[tuple[int, ...]]:
        out = []
        for i in range(start, len(prefix)):
            v = prefix[i]
            out.append(tuple(1 if prefix[j] in adj[v] else 0 for j in range(i)))
        return out

    def search(cells: list[list[int]], fixed: list[int], rows: list[tuple[int, ...]], lt: bool):
        nonlocal best_rows
        cells = _refine_partition(cells, adj)
        prefix = []
        rest_index = len(cells)
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                prefix.append(cell[0])
            else:
                rest_index = i
                break
        new_rows = rows + rows_for(prefix, len(fixed))
        if best_rows is not None and not lt:
            for i in range(len(rows), len(new_rows)):
                if new_rows[i] > best_rows[i]:
                    return
                if new_rows[i] < best_rows[i]:
                    lt = True
                    break
        if len(prefix) == n:
            if best_rows is None or lt:
                best_rows = new_rows
            return
        target = cells[rest_index]
        for v in sorted(target):
            split = (
                cells[:rest_index]
                + [[v], [w for w in target if w != v]]
                + cells[rest_index + 1 :]
            )
            search(split, prefix, new_rows, lt)

    search(cells0, [], [], False)
    assert best_rows is not None
    bits = "".join("".join(map(str, row)) for row in best_rows)
    return f"G{n}:{bits}".encode()


# ---------------------------------------------------------------------------
# Serialization: edge-list text, JSON, DOT export
# ---------------------------------------------------------------------------


def to_edgelist(g: Graph) -> str:
    """Edge-list text: '# n <count>' header then one 'u v' per line."""
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Parse edge-list text.  '#' starts a comment; '# n <count>' sets the
    vertex count (otherwise max id + 1 is used)."""
    edges = []
    n_declared = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "n":
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
    obj: dict = {"n": g.n, "edges": [list(e) for e in g.sorted_edges]}
    if g.labels:
        obj["labels"] = {str(v): lab for v, lab in sorted(g.labels.items())}
    return obj


def to_json(g: Graph) -> str:
    return json.dumps(to_json_obj(g), indent=None, separators=(",", ":"))


def from_json_obj(obj: dict) -> Graph:
    """The graph of a JSON object: an integer `n`, `edges` as integer
    pairs, optional `labels` from vertex numbers to strings."""
    is_int = lambda x: isinstance(x, int) and not isinstance(x, bool)
    if not isinstance(obj, dict) or not is_int(obj.get("n")):
        raise ParseError("bad graph JSON: n must be an integer")
    edges, labels = obj.get("edges"), obj.get("labels") or {}
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(is_int, e))
            for e in edges):
        raise ParseError("bad graph JSON: edges must be pairs of integers")
    if not isinstance(labels, dict) or not all(
            k.isascii() and k.isdigit() and isinstance(v, str)
            for k, v in labels.items()):
        raise ParseError("bad graph JSON: labels must map vertex numbers to strings")
    try:
        return Graph(obj["n"], edges, {int(k): v for k, v in labels.items()})
    except GraphConstructionError as exc:
        raise ParseError(str(exc))


def parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno)
    return from_json_obj(obj)


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT export for inspection; not re-parsed."""
    lines = [f"graph {name} {{"]
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
