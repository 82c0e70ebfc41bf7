"""Independent checks of trilin's outputs.

Nothing here calls trilin: the operator T, witness verification and the
unique-triangle invariant are re-implemented from their definitions, and
isomorphism questions go to networkx.
"""

from __future__ import annotations

import itertools


def tlg_edges(n: int, edges) -> tuple[list[tuple[int, int]], set]:
    """T(G) of a graph given as an edge list: the sorted edges of G (the
    vertices of T(G), in order) and the set of index pairs adjacent in T(G).
    Two edges are adjacent iff they share an endpoint and the two other
    endpoints are adjacent too."""
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    index = {e: i for i, e in enumerate(es)}
    adj = [set() for _ in range(n)]
    for u, v in es:
        adj[u].add(v)
        adj[v].add(u)
    out = set()
    for u, v in es:
        for w in adj[u] & adj[v]:
            a, b, c = index[(u, v)], index[(min(u, w), max(u, w))], \
                index[(min(v, w), max(v, w))]
            out.update({(min(a, b), max(a, b)), (min(a, c), max(a, c))})
    return es, out


def witness_verifies(target_n: int, target_edges, cand_n: int,
                     edge_to_vertex: dict) -> bool:
    """True iff the map is a bijection E(candidate) -> V(target) carrying
    the edges of T(candidate) exactly onto the target's edges."""
    values = list(edge_to_vertex.values())
    if sorted(values) != list(range(target_n)):
        return False
    es, tadj = tlg_edges(cand_n, edge_to_vertex.keys())
    if len(es) != len(edge_to_vertex):
        return False
    mapped = {(min(x, y), max(x, y)) for x, y in (
        (edge_to_vertex[es[i]], edge_to_vertex[es[j]]) for i, j in tadj)}
    want = {(min(u, v), max(u, v)) for u, v in target_edges}
    return mapped == want


def witness_ok(w) -> bool:
    """witness_verifies on a trilin PreimageWitness (read as plain data),
    whose map must cover exactly the candidate's edges."""
    return (set(w.edge_to_vertex) == set(w.candidate.edges)
            and witness_verifies(w.target.n, w.target.edges, w.candidate.n,
                                 w.edge_to_vertex))


def every_edge_in_one_triangle(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return all(len(adj[u] & adj[v]) == 1 for u, v in edges)


def nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def isomorphic(n1: int, e1, n2: int, e2) -> bool:
    import networkx as nx

    return nx.is_isomorphic(nx_graph(n1, e1), nx_graph(n2, e2))


def pairwise_non_isomorphic(graphs) -> bool:
    import networkx as nx

    gs = [nx_graph(n, e) for n, e in graphs]
    return not any(nx.is_isomorphic(a, b) for a, b in itertools.combinations(gs, 2))


def satisfies(clauses, bits) -> bool:
    """Clauses as tuples of non-zero DIMACS literals."""
    return all(any(bits[abs(x) - 1] == (x > 0) for x in c) for c in clauses)


def satisfiable(n: int, clauses) -> bool:
    return any(satisfies(clauses, bits)
               for bits in itertools.product((False, True), repeat=n))
