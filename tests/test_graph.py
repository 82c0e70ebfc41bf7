from __future__ import annotations

import hashlib
import itertools
import random
from collections import namedtuple

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from trilin.errors import CapacityError, GraphConstructionError, ParseError
from trilin.gadgets import make_sun, make_wheel
from trilin.graph import (
    Graph,
    _canonical_labeling,
    all_isomorphisms,
    canonical_form,
    enumerate_triangles,
    every_edge_in_unique_triangle,
    find_isomorphism,
    induced_subgraph,
    is_isomorphic,
    parse_edgelist,
    parse_json,
    to_dot,
    to_edgelist,
    to_json,
    to_json_obj,
    triangle_count_per_vertex,
)
from trilin.reduction import compile_formula, parse_dimacs


def k4_minus_edge() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Construction and basic accessors
# ---------------------------------------------------------------------------


def test_graph_basic_accessors():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.n == 3
    assert g.has_edge(1, 0)
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.degree(0) == 1
    assert sorted(g.adj[1]) == [0, 2]


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphConstructionError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphConstructionError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphConstructionError, match="negative vertex count"):
        Graph(-1, [])
    # duplicates collapse after normalization
    assert len(Graph(3, [(0, 1), (1, 0)]).edges) == 1


def test_graph_bad_edge_messages():
    with pytest.raises(GraphConstructionError,
                       match=r"^edge \(0,2\) out of range for 2 vertices$"):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphConstructionError, match=r"^loop at vertex 0$"):
        Graph(2, [(0, 0)])
    # the same messages for a reversed pair, a list and a negative id
    with pytest.raises(GraphConstructionError,
                       match=r"^edge \(2,0\) out of range for 2 vertices$"):
        Graph(2, [(2, 0)])
    with pytest.raises(GraphConstructionError,
                       match=r"^edge \(-1,1\) out of range for 2 vertices$"):
        Graph(2, [[-1, 1]])
    with pytest.raises(GraphConstructionError, match=r"^loop at vertex 1$"):
        Graph(2, [[1, 1]])


Pair = namedtuple("Pair", "u v")


def test_graph_keeps_an_ordered_tuple_edge():
    e = (0, 1)
    (kept,) = Graph(2, [e]).edges
    assert kept is e


@pytest.mark.parametrize("edge", [(1, 0), [0, 1], [1, 0], Pair(0, 1), Pair(1, 0)],
                         ids=["reversed", "list", "reversed_list", "namedtuple",
                              "reversed_namedtuple"])
def test_graph_rebuilds_other_edges_as_plain_ordered_tuples(edge):
    (kept,) = Graph(2, [edge]).edges
    assert type(kept) is tuple and kept == (0, 1)


@pytest.mark.parametrize("edges, labels", [
    ([(False, True)], None),
    ([(0, True)], None),
    ([(0.0, 1)], None),
    ([("0", 1)], None),
    ([(0, 1)], {True: "a"}),
    ([(0, 1)], {"0": "a"}),
    ([(0, 1, 2)], None),
    ([(0,)], None),
    ([5], None),
], ids=["bool_edge", "bool_endpoint", "float_endpoint", "string_endpoint",
        "bool_label_key", "string_label_key", "triple_edge", "single_edge",
        "int_edge"])
def test_graph_rejects_non_int_vertex_ids(edges, labels):
    # a bool id would be written as JSON true/false, which parse_json refuses
    with pytest.raises(GraphConstructionError):
        Graph(2, edges, labels)


@st.composite
def edge_inputs(draw):
    """(n, edges): a simple graph's edges in any order, each written as a
    pair in either direction, as a tuple, a list or a tuple subclass, some
    of them more than once."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=30))
    edges = []
    for u, v in pairs:
        for _ in range(draw(st.integers(1, 2))):
            a, b = (u, v) if draw(st.booleans()) else (v, u)
            edges.append(draw(st.sampled_from([(a, b), [a, b], Pair(a, b)])))
    return n, draw(st.permutations(edges))


@example((3, [(1, 2), (0, 1)]))
@settings(max_examples=300, deadline=None, database=None)
@given(edge_inputs())
def test_sorted_edges_sort_the_normalized_edge_set(case):
    n, edges = case
    want = tuple(sorted({(min(e), max(e)) for e in edges}))
    g = Graph(n, edges)
    assert g.sorted_edges == want
    assert all(type(e) is tuple for e in g.sorted_edges)
    assert g.edges == frozenset(want)
    # the triangles equal those worked out from the edge set
    tris = tuple((u, v, w) for u, v in want for w in range(v + 1, n)
                 if (u, w) in g.edges and (v, w) in g.edges)
    assert enumerate_triangles(Graph(n, edges)) == tris


def test_json_object_shares_edges_and_copies_labels():
    g = Graph(3, [(2, 1), (0, 1)], {1: "b", 0: "a"})
    obj = to_json_obj(g)
    assert obj["edges"] is g.sorted_edges == ((0, 1), (1, 2))
    assert obj["labels"] is not g.labels
    assert obj["labels"] == {"0": "a", "1": "b"}


def test_graph_equality_is_labeled():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


def test_enumerate_triangles_k4():
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    tris = enumerate_triangles(k4)
    assert len(tris) == 4
    assert all(t == tuple(sorted(t)) for t in tris)


def test_triangle_count_matches_naive():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        tris = enumerate_triangles(g)
        naive = [
            (a, b, c)
            for a, b, c in itertools.combinations(range(g.n), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        ]
        assert tris == tuple(naive)
        counts = triangle_count_per_vertex(g)
        for v in range(g.n):
            assert counts[v] == sum(1 for t in naive if v in t)


def _naive_triangles(g: Graph) -> tuple:
    return tuple((a, b, c) for a, b, c in itertools.combinations(range(g.n), 3)
                 if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c))


@pytest.mark.parametrize("sorted_first", [False, True], ids=["edge_set", "sorted_edges"])
def test_triangles_come_in_numeric_order(sorted_first):
    # above 8 vertices a set of ints iterates out of numeric order, so the
    # enumeration's order is its own sort's, on either path
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 40), rng.choice((0.1, 0.3, 0.6)))
        if sorted_first:
            assert len(g.sorted_edges) == len(g.edges)
        assert enumerate_triangles(g) == _naive_triangles(g)


def test_compiled_graph_triangles_come_in_numeric_order():
    g = compile_formula(parse_dimacs("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")).blueprint.graph
    naive = tuple(sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(
        nx.Graph(list(g.edges))) if len(c) == 3))
    assert len(naive) == len(g.edges) // 3 > 800
    # compile_formula reads the triangles after sorting the edges; a copy
    # without sorted edges takes the edge-set path
    assert enumerate_triangles(g) == naive
    assert enumerate_triangles(Graph(g.n, g.edges)) == naive


def test_every_edge_in_unique_triangle():
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert every_edge_in_unique_triangle(bowtie)
    # K4: each edge lies in two triangles
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    assert not every_edge_in_unique_triangle(k4)
    # path: edge in no triangle
    assert not every_edge_in_unique_triangle(Graph(3, [(0, 1), (1, 2)]))
    # empty graph has no edges to violate the condition
    assert every_edge_in_unique_triangle(Graph(3, []))
    assert every_edge_in_unique_triangle(make_sun(9).graph)
    assert not every_edge_in_unique_triangle(make_wheel(6).graph)
    # the definition, edge by edge
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.8)))
        adj = g.adj
        assert every_edge_in_unique_triangle(g) == all(
            len(adj[u] & adj[v]) == 1 for u, v in g.edges)


def test_triangles_are_enumerated_once_per_graph():
    g = make_wheel(6).graph
    tris = enumerate_triangles(g)
    assert isinstance(tris, tuple) and enumerate_triangles(g) is tris
    assert triangle_count_per_vertex(g) == [2] * 6 + [6]
    # equality and hashing read n, edges and labels, never the cache
    fresh = Graph(g.n, g.edges, g.labels)
    assert fresh == g and hash(fresh) == hash(g)
    assert fresh != Graph(g.n, g.edges) and hash(Graph(g.n, g.edges)) == hash(g)


def test_induced_subgraph():
    g = k4_minus_edge()
    sub, order = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3
    assert order == (1, 2, 3)
    # vertices 2 and 3 are nonadjacent in K4 - e
    assert sorted(sub.sorted_edges) == [(0, 1), (0, 2)]
    with pytest.raises(GraphConstructionError, match="vertex 99 not in graph"):
        induced_subgraph(Graph(3, []), [99])


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def test_isomorphism_finds_map():
    g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    g2 = Graph(4, [(3, 2), (2, 0), (0, 1)])
    m = find_isomorphism(g1, g2)
    assert m is not None
    for u, v in g1.sorted_edges:
        assert g2.has_edge(m[u], m[v])


def test_isomorphism_rejects_nonisomorphic():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_isomorphism(path, star) is None
    assert not is_isomorphic(path, star)


def test_all_isomorphisms_counts_automorphisms():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(all_isomorphisms(tri, tri)) == 6
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert len(all_isomorphisms(p3, p3)) == 2


def test_isomorphism_on_random_relabelings():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges])
        assert is_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_same_degree_sequence():
    # C6 and two disjoint triangles share the degree sequence (all 2s)
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_tris = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(c6) != canonical_form(two_tris)
    assert not is_isomorphic(c6, two_tris)


def test_canonical_form_refuses_graphs_over_its_cap():
    with pytest.raises(CapacityError, match="limited to 32 vertices"):
        canonical_form(Graph(33, []))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges])


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


NAMED_GRAPHS = {
    "sun7": make_sun(7).graph,
    "sun12": make_sun(12).graph,
    "wheel7": make_wheel(7).graph,
    "K4": Graph(4, list(itertools.combinations(range(4), 2))),
    "3K2": Graph(6, [(0, 1), (2, 3), (4, 5)]),
}


def differential_pairs(name: str) -> list[tuple[Graph, Graph]]:
    """Pairs to compare against networkx: a graph with a relabeling of it
    and, for the seeded random graphs, with another graph of the same order."""
    rng = random.Random(2014)
    if name == "cubic":
        # cubic graphs on 12 vertices; seeds 0, 7, 8, 12 and 17 reach the
        # canonical search's bound prune, which no other input here does
        gs = [Graph(12, list(nx.random_regular_graph(3, 12, seed=s).edges()))
              for s in range(20)]
        return [(g, relabeled(g, rng)) for g in gs] + list(zip(gs, gs[1:]))
    if name != "random":
        g = NAMED_GRAPHS[name]
        return [(g, relabeled(g, rng)), (g, g)]
    pairs = []
    for _ in range(40):
        n, p = rng.randint(1, 9), rng.uniform(0.2, 0.8)
        g = random_graph(rng, n, p)
        pairs += [(g, relabeled(g, rng)), (g, random_graph(rng, n, p))]
    return pairs


@pytest.mark.parametrize("name", ["random", "cubic", *NAMED_GRAPHS])
def test_isomorphism_agrees_with_networkx(name):
    def is_map(m, g1, g2):
        return (sorted(m) == list(range(g1.n)) and sorted(m.values()) == list(range(g2.n))
                and {(min(m[u], m[v]), max(m[u], m[v])) for u, v in g1.edges} == g2.edges)

    for g1, g2 in differential_pairs(name):
        matcher = nx.isomorphism.GraphMatcher(to_networkx(g1), to_networkx(g2))
        expected = matcher.is_isomorphic()
        assert is_isomorphic(g1, g2) == expected
        assert (canonical_form(g1) == canonical_form(g2)) == expected
        m = find_isomorphism(g1, g2)
        assert (m is not None) == expected and (m is None or is_map(m, g1, g2))
        isos = all_isomorphisms(g1, g2)
        assert all(is_map(m, g1, g2) for m in isos)
        assert len({tuple(sorted(m.items())) for m in isos}) == len(isos)
        assert len(isos) == sum(1 for _ in matcher.isomorphisms_iter())
    if name in ("sun12", "3K2"):
        assert len(isos) == {"sun12": 24, "3K2": 48}[name]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def canonical_search_corpus() -> list[Graph]:
    """1,532 graphs: seeded G(n, p) with n <= 12, the edgeless graphs on
    1..12 vertices, and the 20 cubic graphs of `differential_pairs`."""
    rng = random.Random(2014)
    gs = [random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
          for _ in range(1500)]
    gs += [Graph(n, []) for n in range(1, 13)]
    return gs + [g for g, _ in differential_pairs("cubic")[:20]]


def test_canonical_search_output_is_pinned():
    # the whole output of the search, automorphisms included: pruning by
    # automorphisms that do not fix the node's prefix keeps every form and
    # order here but changes the automorphisms found on hundreds of graphs
    digest = hashlib.sha256()
    for g in canonical_search_corpus():
        form, order, autos = _canonical_labeling(g)
        digest.update(form + repr((order, autos)).encode())
    assert digest.hexdigest() == (
        "e0898f7fb5d377795326d0a0691b1892918f9addfc6ee09a1d90909022f11a54")


def test_edgelist_round_trip():
    g = k4_minus_edge()
    assert parse_edgelist(to_edgelist(g)) == g


def test_json_round_trip_with_labels():
    g = Graph(3, [(0, 1), (1, 2)], {0: "a", 1: "b", 2: "c"})
    back = parse_json(to_json(g))
    assert back == g
    assert back.labels == g.labels


@pytest.mark.parametrize("text", [
    '{"n": "5", "edges": []}',
    '{"n": 3.5, "edges": []}',
    '{"n": true, "edges": []}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"n": 3, "edges": [["0", 1]]}',
    '{"n": 3, "edges": [[false, 1]]}',
    '{"n": 3, "edges": [], "labels": {"a": "x"}}',
    '{"n": 3, "edges": [], "labels": {"0": 7}}',
    '{"n": 3, "edges": [], "labels": {"5": "x"}}',
    '{"n": 3, "edges": [], "labels": {"0": "x", "1": "x"}}',
    '{"n": 3, "edges": [[0, 1]], "labels": {"1": "a", "01": "b"}}',
    '{"n": 3, "edges": [], "labels": {"00": "x"}}',
    '{"n": 3, "edges": [], "labels": {"' + "1" * 5000 + '": "x"}}',
    '{"n": 3, "edges": [], "labels": []}',
    '{"n": 3, "edges": [], "labels": false}',
    '{"n": 3, "edges": [], "labels": 0}',
    '{"n": 3, "edges": [], "labels": ""}',
    '{"n": 3, "edges": [], "labels": null}',
], ids=["n_string", "n_float", "n_bool", "edge_triple", "endpoint_string",
        "endpoint_bool", "label_key", "label_value", "label_vertex", "label_twice",
        "label_key_twice", "label_key_zeros", "label_key_huge", "labels_empty_list",
        "labels_false", "labels_zero", "labels_empty_string", "labels_null"])
def test_parse_json_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_json(text)


def test_parse_edgelist_errors():
    with pytest.raises(ParseError):
        parse_edgelist("0 1 2\n")
    with pytest.raises(ParseError):
        parse_edgelist("# n 3\n0 5\n")
    with pytest.raises(ParseError):
        parse_edgelist("2 2\n")
    with pytest.raises(ParseError, match="bad vertex count"):
        parse_edgelist("# n x\n0 1\n")
    with pytest.raises(ParseError, match="negative vertex id"):
        parse_edgelist("0 -1\n")
    # a comment whose first word is n is the one exact header
    for text, line in (("# n 3 # three\n0 1\n", 1), ("# n\n0 1\n", 1),
                       ("# n 3\n# n 4\n0 1\n", 2)):
        with pytest.raises(ParseError, match=f"^line {line}: expected one header '# n <count>'"):
            parse_edgelist(text)


@pytest.mark.parametrize("text, line, count", [("# n -3\n", 1, -3), ("0 1\n# n -2\n", 2, -2)])
def test_parse_edgelist_refuses_a_negative_header_on_its_line(text, line, count):
    # not as "declared n=-3 but saw vertex -1", with no line: there is no vertex -1
    with pytest.raises(ParseError, match=f"^line {line}: negative vertex count {count}$"):
        parse_edgelist(text)


def test_to_dot_mentions_all_edges():
    g = Graph(3, [(0, 1), (1, 2)])
    dot = to_dot(g)
    assert "0 -- 1" in dot and "1 -- 2" in dot


def test_to_dot_escapes_labels():
    # a label read through parse_json may hold any string; each vertex
    # stays one line, its label one quoted DOT string
    g = Graph(4, [(0, 1)], {0: 'a"b', 1: "c\\d", 2: "e\nf", 3: "g"})
    assert to_dot(g).splitlines() == [
        "graph G {",
        '  0 [label="a\\"b"];',
        '  1 [label="c\\\\d"];',
        '  2 [label="e\\nf"];',
        '  3 [label="g"];',
        "  0 -- 1;",
        "}",
    ]
