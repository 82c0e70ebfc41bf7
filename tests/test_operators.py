from __future__ import annotations

import itertools
import json
import random

import pytest

from trilin.errors import CertificateError, ParseError, StructureError
from trilin.gadgets import make_bowtie, make_squared_cycle, make_sun, make_wheel
from trilin.graph import Graph, enumerate_triangles, is_isomorphic
from trilin.operators import (
    PreimageWitness,
    check_le_family,
    gallai_graph,
    is_triangle_induced,
    le_family_from_preimage,
    line_graph,
    restrict_preimage,
    triangular_line_graph,
    verify_certificate,
    witness_of_operator,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def dense_graph(rng: random.Random, n: int) -> Graph:
    """Random sparse edges plus planted K4 / K5 pieces, so that many edges
    lie in several triangles."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.2}
    for _ in range(rng.randint(1, 3)):
        piece = sorted(rng.sample(range(n), min(n, rng.choice((4, 5)))))
        edges.update(itertools.combinations(piece, 2))
    return Graph(n, edges)


def naive_tlg(g: Graph) -> Graph:
    """Independent construction straight from the definition: vertices are
    edges, adjacency needs a shared endpoint plus the closing third edge."""
    edges = sorted(g.sorted_edges)
    idx = {e: i for i, e in enumerate(edges)}
    out = []
    for e1, e2 in itertools.combinations(edges, 2):
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            continue
        a = (set(e1) - shared).pop()
        b = (set(e2) - shared).pop()
        if g.has_edge(a, b):
            out.append((idx[e1], idx[e2]))
    return Graph(len(edges), out)


# ---------------------------------------------------------------------------
# The operator itself
# ---------------------------------------------------------------------------


def test_tlg_of_k4_minus_edge_is_bowtie():
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    res = triangular_line_graph(k4e)
    assert is_isomorphic(res.derived, make_bowtie().graph)


def test_tlg_triangle_is_triangle():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_isomorphic(triangular_line_graph(tri).derived, tri)


def test_tlg_triangle_free_is_edgeless():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    derived = triangular_line_graph(c5).derived
    assert derived.n == 5 and not derived.edges


def test_tlg_matches_naive_on_random_graphs():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8))
        got = triangular_line_graph(g).derived
        assert got == naive_tlg(g)


def test_tlg_matches_naive_on_dense_graphs():
    rng = random.Random(29)
    for _ in range(60):
        g = dense_graph(rng, rng.randint(4, 12))
        assert triangular_line_graph(g).derived == naive_tlg(g)


def test_wheel_and_squared_cycle_map_to_sun():
    for k in (7, 9, 12):
        sun = make_sun(k).graph
        assert is_isomorphic(triangular_line_graph(make_wheel(k).graph).derived, sun)
        assert is_isomorphic(
            triangular_line_graph(make_squared_cycle(k).graph).derived, sun)


def test_line_graph_and_gallai_partition():
    # L(G) splits into the triangle part T(G) and the Gallai part
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        lg = line_graph(g).derived
        tg = triangular_line_graph(g).derived
        gal = gallai_graph(g)
        assert lg.edges == tg.edges | gal.edges
        assert not (tg.edges & gal.edges)


def test_line_graph_of_star_is_complete():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    lg = line_graph(star).derived
    assert lg.n == 4 and len(lg.edges) == 6


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------


def test_operator_witness_verifies():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = witness_of_operator(triangular_line_graph(g))
    assert verify_certificate(w)


def test_witness_rejects_wrong_target():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = witness_of_operator(triangular_line_graph(g))
    # drop one target edge: the map is still a bijection but adjacency breaks
    wrong = Graph(w.target.n, sorted(w.target.sorted_edges)[1:])
    assert not verify_certificate(
        PreimageWitness(wrong, w.candidate, w.edge_to_vertex))


def test_witness_rejects_tampered_map():
    g = make_wheel(7).graph
    w = witness_of_operator(triangular_line_graph(g))
    items = sorted(w.edge_to_vertex.items())
    (e1, v1), (e2, v2) = items[0], items[-1]
    bad = dict(w.edge_to_vertex)
    bad[e1], bad[e2] = v2, v1
    assert not verify_certificate(PreimageWitness(w.target, w.candidate, bad))


def test_witness_rejects_non_bijection():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    w = witness_of_operator(triangular_line_graph(g))
    bad = dict(w.edge_to_vertex)
    bad[(0, 1)] = bad[(0, 2)]
    with pytest.raises(CertificateError, match="not injective"):
        verify_certificate(PreimageWitness(w.target, w.candidate, bad))
    bad = dict(w.edge_to_vertex)
    del bad[(0, 1)]
    with pytest.raises(CertificateError, match="domain"):
        verify_certificate(PreimageWitness(w.target, w.candidate, bad))
    bad = dict(w.edge_to_vertex)
    bad[(0, 1)] = 5
    with pytest.raises(CertificateError, match="cover"):
        verify_certificate(PreimageWitness(w.target, w.candidate, bad))


def naive_verdict(w: PreimageWitness) -> bool:
    """T(candidate) from the definition, mapped through the witness."""
    edges = w.candidate.sorted_edges
    mapped = {tuple(sorted((w.edge_to_vertex[edges[i]], w.edge_to_vertex[edges[j]])))
              for i, j in naive_tlg(w.candidate).edges}
    return mapped == w.target.edges


def test_verifier_agrees_with_naive_tlg_on_dense_graphs():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(60):
        g = dense_graph(rng, rng.randint(4, 12))
        w = witness_of_operator(triangular_line_graph(g))
        assert verify_certificate(w) and naive_verdict(w)
        items = sorted(w.edge_to_vertex.items())
        for _ in range(8):
            (e1, v1), (e2, v2) = rng.sample(items, 2)
            swapped = dict(w.edge_to_vertex)
            swapped[e1], swapped[e2] = v2, v1
            sw = PreimageWitness(w.target, w.candidate, swapped)
            verdict = verify_certificate(sw)
            assert verdict == naive_verdict(sw)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_witness_json_round_trip():
    g = make_squared_cycle(7).graph
    w = witness_of_operator(triangular_line_graph(g))
    back = PreimageWitness.from_json(w.to_json())
    assert verify_certificate(back)
    assert back.edge_to_vertex == w.edge_to_vertex


@pytest.mark.parametrize("entries", [
    [[0, 1, 0.2], [0, 2, True], ["1", "2", 2.9]],
    [[0, 1, 0], [0, 2, 1], [1, 2, 2.0]],
    [[0, 1, 0], [0, 2, True], [1, 2, 2]],
    [[0, 1, 0], [0, 2, 1], ["1", 2, 2]],
    [[0, 1, 0], [0, 2, 1], [1, 2]],
    [[0, 1, 0], [0, 2, 1], [1, 2, 2, 3]],
    [[0, 1, 0], [0, 2, 1], "122"],
    {"0": [1, 0]},
], ids=["issue_example", "float", "bool", "string", "pair", "quadruple",
        "string_entry", "object"])
def test_witness_json_rejects_non_integer_map(entries):
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    obj = json.loads(witness_of_operator(triangular_line_graph(tri)).to_json())
    assert PreimageWitness.from_json_obj(obj).edge_to_vertex
    obj["map"] = entries
    with pytest.raises(ParseError):
        PreimageWitness.from_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# Triangle-induced subgraphs and restriction
# ---------------------------------------------------------------------------


def test_is_triangle_induced():
    bowtie = make_bowtie().graph
    tris = enumerate_triangles(bowtie)
    for t in tris:
        assert is_triangle_induced(bowtie, t)
    # two vertices of a triangle without the third are not closed
    a, b, c = tris[0]
    assert not is_triangle_induced(bowtie, [a, b])
    assert is_triangle_induced(bowtie, range(bowtie.n))
    assert is_triangle_induced(bowtie, [])


def test_is_triangle_induced_rejects_foreign_vertices():
    with pytest.raises(StructureError):
        is_triangle_induced(make_bowtie().graph, [99])


def closure(h: Graph, seed: set[int]) -> set[int]:
    """Smallest triangle-induced superset: repeatedly add the apex of any
    triangle sitting on an internal edge."""
    s = set(seed)
    changed = True
    while changed:
        changed = False
        for a, b, c in enumerate_triangles(h):
            inside = [v for v in (a, b, c) if v in s]
            if len(inside) == 2:
                u, v = inside
                if h.has_edge(u, v):
                    s.add(({a, b, c} - set(inside)).pop())
                    changed = True
    return s


def test_restriction_of_valid_witness_verifies():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 7), 0.6)
        res = triangular_line_graph(g)
        w = witness_of_operator(res)
        h = res.derived
        seed = set(rng.sample(range(h.n), min(3, h.n))) if h.n else set()
        sub = closure(h, seed)
        assert is_triangle_induced(h, sub)
        restricted = restrict_preimage(w, sub)
        assert verify_certificate(restricted)
        assert restricted.target.n == len(sub)


def test_restriction_requires_triangle_induced_subset():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = witness_of_operator(triangular_line_graph(g))
    tri = enumerate_triangles(w.target)[0]
    with pytest.raises(StructureError):
        restrict_preimage(w, list(tri)[:2])


def test_restriction_rejects_invalid_witness():
    g = make_wheel(7).graph
    w = witness_of_operator(triangular_line_graph(g))
    wrong = Graph(w.target.n, sorted(w.target.sorted_edges)[1:])
    bad = PreimageWitness(wrong, w.candidate, w.edge_to_vertex)
    with pytest.raises(CertificateError):
        restrict_preimage(bad, range(wrong.n))


def test_sun_restrictions_of_wheel_and_cycle_witnesses():
    # embedded sub-suns of a 12-sun restrict the two template preimages to
    # smaller wheels / fans without breaking verification
    for bp in (make_wheel(12), make_squared_cycle(12)):
        res = triangular_line_graph(bp.graph)
        w = witness_of_operator(res)
        full = set(range(res.derived.n))
        restricted = restrict_preimage(w, full)
        assert verify_certificate(restricted)
        assert is_isomorphic(restricted.candidate, bp.graph)


# ---------------------------------------------------------------------------
# The clique-family characterization
# ---------------------------------------------------------------------------


def test_le_family_accepts_operator_witness():
    for g in (make_wheel(7).graph, make_squared_cycle(9).graph):
        res = triangular_line_graph(g)
        w = witness_of_operator(res)
        family = le_family_from_preimage(w)
        assert check_le_family(res.derived, family)


def test_le_family_rejects_broken_family():
    g = make_wheel(7).graph
    res = triangular_line_graph(g)
    family = le_family_from_preimage(witness_of_operator(res))
    assert not check_le_family(res.derived, family[:-1])
