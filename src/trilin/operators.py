"""The triangular line graph operator and its certificate machinery.

T(G) has one vertex per edge of G; two are adjacent iff the edges share an
endpoint and lie together in a triangle of G.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import CertificateError, ParseError, StructureError
from .graph import (
    Edge,
    Graph,
    enumerate_triangles,
    from_json_obj,
    induced_subgraph,
    to_json_obj,
    _is_int,
    _loads,
    _norm_edge,
)


@dataclass(frozen=True)
class TlgResult:
    """A derived graph together with the bijection E(source) -> V(derived)."""

    source: Graph
    derived: Graph
    edge_to_vertex: dict[Edge, int]


def _edge_vertex_order(g: Graph) -> dict[Edge, int]:
    edges = g.sorted_edges
    return dict(zip(edges, range(len(edges))))


def _triangle_pairs(g: Graph, index: dict[Edge, int]) -> list[tuple[int, int]]:
    """The T-edges of g with each edge e of g named index[e]: every triangle
    u < v < w makes its three edges pairwise adjacent.  Two edges sharing an
    endpoint lie in at most one common triangle, so no pair repeats."""
    pairs = []
    for u, v, w in enumerate_triangles(g):
        a, b, c = index[(u, v)], index[(u, w)], index[(v, w)]
        pairs += ((a, b), (a, c), (b, c))
    return pairs


def triangular_line_graph(g: Graph) -> TlgResult:
    """T(G): edges sharing an endpoint and a common triangle become adjacent."""
    e2v = _edge_vertex_order(g)
    return TlgResult(g, Graph(len(e2v), _triangle_pairs(g, e2v)), e2v)


# ---------------------------------------------------------------------------
# Preimage witnesses (the NP certificate) and verification
# ---------------------------------------------------------------------------


def _map_rows(edge_to_vertex: dict[Edge, int]) -> list[tuple[int, int, int]]:
    """The JSON rows (u, v, t) of an edge -> vertex map, in edge order."""
    return [(e[0], e[1], edge_to_vertex[e]) for e in sorted(edge_to_vertex)]


@dataclass(frozen=True)
class PreimageWitness:
    """Candidate graph plus edge->vertex bijection onto the target graph."""

    target: Graph
    candidate: Graph
    edge_to_vertex: dict[Edge, int]

    def to_json_obj(self) -> dict:
        return {
            "target": to_json_obj(self.target),
            "candidate": to_json_obj(self.candidate),
            "map": _map_rows(self.edge_to_vertex),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "PreimageWitness":
        if not isinstance(obj, dict):
            raise ParseError("bad witness JSON: the top level must be an object")
        try:
            target = from_json_obj(obj["target"])
            candidate = from_json_obj(obj["candidate"])
            entries = obj["map"]
        except KeyError as exc:
            raise ParseError(f"bad witness JSON: {exc}")
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 3 and all(map(_is_int, e))
                for e in entries):
            raise ParseError("bad witness JSON: map entries must be integer triples")
        mapping = {}
        for u, v, t in entries:
            e = _norm_edge(u, v)
            if u == v or e in mapping:
                why = "is a loop" if u == v else "repeats an edge"
                raise ParseError(f"bad witness JSON: map row {[u, v, t]} {why}")
            mapping[e] = t
        return PreimageWitness(target, candidate, mapping)

    @staticmethod
    def from_json(text: str) -> "PreimageWitness":
        return PreimageWitness.from_json_obj(_loads(text))


def _check_bijection(w: PreimageWitness) -> None:
    if w.edge_to_vertex.keys() != w.candidate.edges:
        raise CertificateError(
            "mapping domain is not exactly the candidate edge set"
        )
    values = set(w.edge_to_vertex.values())
    if len(values) != len(w.edge_to_vertex):
        raise CertificateError("mapping is not injective")
    if len(values) != w.target.n or values != set(range(w.target.n)):  # sizes first
        raise CertificateError("mapping does not cover the target vertex set")


def verify_certificate(w: PreimageWitness) -> bool:
    """True iff T(candidate) equals the target under the recorded bijection.

    Polynomial time.  Raises CertificateError when the map is not a bijection
    E(candidate) -> V(target).
    """
    _check_bijection(w)
    mapped = {p if p[0] < p[1] else (p[1], p[0])
              for p in _triangle_pairs(w.candidate, w.edge_to_vertex)}
    return mapped == w.target.edges


def witness_of_operator(res: TlgResult) -> PreimageWitness:
    """The operator's own output packaged as a (always valid) witness."""
    return PreimageWitness(res.derived, res.source, dict(res.edge_to_vertex))


# ---------------------------------------------------------------------------
# Triangle-induced subgraphs and the closure lemma
# ---------------------------------------------------------------------------


def is_triangle_induced(h: Graph, subset: Iterable[int]) -> bool:
    """True iff `subset` is closed under triangle completion in h."""
    s = set(subset)
    for v in s:
        if not (0 <= v < h.n):
            raise StructureError(f"vertex {v} not in graph")
    adj = h.adj
    for u in s:
        for v in adj[u]:
            if v <= u or v not in s:
                continue
            for w in adj[u] & adj[v]:
                if w not in s:
                    return False
    return True


def restrict_preimage(w: PreimageWitness, subset: Iterable[int]) -> PreimageWitness:
    """Restrict a witness for H2 to a triangle-induced H1, per the closure
    lemma: the candidate becomes the subgraph induced by the edges mapping
    into the subset, and the restricted witness verifies against H1.  w is
    verified before `_restrict` checks the subset."""
    if not verify_certificate(w):
        raise CertificateError("input witness does not verify")
    return _restrict(w, sorted(set(subset)))


def _restrict(w: PreimageWitness, s: list[int]) -> PreimageWitness:
    """restrict_preimage's body, for a verified w and a sorted subset s:
    raises StructureError unless s is triangle-induced in w's target;
    verifying w is the caller's check."""
    if not is_triangle_induced(w.target, s):
        raise StructureError("subset is not triangle-induced in the target")
    target_sub, _ = induced_subgraph(w.target, s)
    t_index = {old: new for new, old in enumerate(s)}
    keep = set(s)
    kept_edges = [e for e, t in w.edge_to_vertex.items() if t in keep]
    cand_vertices = sorted({v for e in kept_edges for v in e})
    c_index = {old: new for new, old in enumerate(cand_vertices)}
    cand_labels = None
    if w.candidate.labels:
        cand_labels = {
            c_index[v]: w.candidate.labels[v]
            for v in cand_vertices
            if v in w.candidate.labels
        }
    candidate = Graph(
        len(cand_vertices),
        [(c_index[u], c_index[v]) for u, v in kept_edges],
        cand_labels,
    )
    mapping = {
        _norm_edge(c_index[u], c_index[v]): t_index[w.edge_to_vertex[(u, v)]]
        for u, v in kept_edges
    }
    return PreimageWitness(target_sub, candidate, mapping)

