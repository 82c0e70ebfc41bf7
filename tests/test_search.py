from __future__ import annotations

import hashlib
import itertools
import json
import random
import re

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from trilin.errors import (
    BudgetExceededError,
    CapacityError,
    CertificateError,
    GlueError,
    StructureError,
)
from trilin import search
from trilin.gadgets import (
    NOT,
    Assembly,
    GadgetBlueprint,
    SubGadget,
    attach_equal,
    attach_not,
    designate_attachments,
    join_clause,
    make_binary_enforced_sun,
    make_bowtie,
    make_squared_cycle,
    make_sun,
    make_triangle_strip,
    make_variable_cluster,
    make_wheel,
    make_wire,
)
from trilin.graph import Graph, canonical_form, enumerate_triangles, is_isomorphic
from trilin.operators import (
    restrict_preimage,
    triangular_line_graph,
    verify_certificate,
)
from trilin.reduction import compile_formula, parse_dimacs
from trilin.search import (
    SQUARED_CYCLE,
    WHEEL,
    SearchLimits,
    brute_force_preimages,
    count_labeled_preimages,
    glue_plan,
    glue_templates,
    is_tlg_small,
    template_solve,
)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def test_bowtie_has_one_class_two_labelings():
    bowtie = make_bowtie().graph
    found = brute_force_preimages(bowtie)
    assert len(found) == 1
    w = found[0]
    assert verify_certificate(w)
    assert is_isomorphic(w.candidate, Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))


# the edgeless counts are re-derived with networkx in perfbench/answers.py
@pytest.mark.parametrize("target, count", [
    (make_bowtie().graph, 2),
    (Graph(3, []), 8),
    (Graph(4, []), 54),
    (Graph(5, []), 534),
    (make_sun(7).graph, 2),
    (make_sun(8).graph, 32),
], ids=["bowtie", "edgeless3", "edgeless4", "edgeless5", "sun7", "sun8"])
def test_count_labeled_preimages(target, count):
    assert count_labeled_preimages(target) == count


def test_triangle_preimages():
    # the star K_{1,3} is triangle-free, so only K3 itself maps to K3
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    found = brute_force_preimages(tri)
    assert len(found) == 1
    assert canonical_form(found[0].candidate) == canonical_form(tri)


def test_single_vertex_target():
    found = brute_force_preimages(Graph(1, []))
    assert len(found) == 1
    assert len(found[0].candidate.edges) == 1


def test_nonrealizable_targets():
    # a single edge cannot be hit: adjacency in the derived graph demands a
    # full triangle, which brings a third vertex
    assert brute_force_preimages(Graph(2, [(0, 1)])) == []
    status, _ = is_tlg_small(Graph(2, [(0, 1)]))
    assert status == "NO"
    # K4 - e is likewise not a triangular line graph
    assert brute_force_preimages(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])) == []


def test_is_tlg_small_yes_and_unknown():
    bowtie = make_bowtie().graph
    status, w = is_tlg_small(bowtie)
    assert status == "YES" and verify_certificate(w)
    status, reason = is_tlg_small(bowtie, SearchLimits(node_budget=1))
    assert status == "UNKNOWN" and "budget" in reason.lower()


def test_is_tlg_small_stops_at_first_witness():
    # the edgeless 6-vertex target has 45 preimage classes; recognition
    # needs only one of them, well within 100 nodes
    status, w = is_tlg_small(Graph(6, []), SearchLimits(node_budget=100))
    assert status == "YES" and verify_certificate(w)


def test_oracle_respects_target_cap():
    with pytest.raises(CapacityError):
        brute_force_preimages(make_sun(12).graph, SearchLimits(max_target_vertices=16))


def test_oracle_answers_a_long_strip_without_recursion_limit():
    # T(G) of a 700-triangle strip has 1,401 vertices, one search depth
    # each: the oracle keeps its placements on its own stack
    h = triangular_line_graph(make_triangle_strip(700).graph).derived
    status, w = is_tlg_small(h, SearchLimits(max_target_vertices=h.n))
    assert h.n == 1401
    assert status == "YES" and verify_certificate(w)


def test_oracle_round_trips_small_operator_images():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        n = rng.randint(3, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.55]
        g = Graph(n, edges)
        h = triangular_line_graph(g).derived
        if h.n > 9:
            continue
        found = brute_force_preimages(h)
        keys = {canonical_form(w.candidate) for w in found}
        # the preimage we started from (minus isolated vertices) must appear
        used = sorted({v for e in g.sorted_edges for v in e})
        idx = {v: i for i, v in enumerate(used)}
        core = Graph(len(used), [(idx[u], idx[v]) for u, v in g.sorted_edges])
        assert canonical_form(core) in keys
        for w in found:
            assert verify_certificate(w)
        checked += 1


def test_seven_sun_brute_force_two_classes():
    found = brute_force_preimages(make_sun(7).graph)
    assert len(found) == 2
    kinds = set()
    for w in found:
        assert verify_certificate(w)
        if is_isomorphic(w.candidate, make_wheel(7).graph):
            kinds.add("wheel")
        elif is_isomorphic(w.candidate, make_squared_cycle(7).graph):
            kinds.add("cycle")
    assert kinds == {"wheel", "cycle"}


def test_budget_raises_cleanly():
    with pytest.raises(BudgetExceededError):
        brute_force_preimages(make_sun(7).graph, SearchLimits(node_budget=10))
    # the clock is read every 256 nodes; the 7-sun search takes 712
    with pytest.raises(BudgetExceededError, match="time budget"):
        brute_force_preimages(make_sun(7).graph, SearchLimits(time_budget=1e-9))
    # a budget of 0 seconds is a limit, not "no limit"; unbounded, this
    # search takes 2,225 nodes to its 45 classes, past the clock's first
    # reading at node 256
    with pytest.raises(BudgetExceededError, match="time budget"):
        brute_force_preimages(Graph(6, []), SearchLimits(time_budget=0))


@pytest.mark.parametrize("limits, shown", [
    (SearchLimits(time_budget=float("nan")), "time_budget must be non-negative, got nan"),
    (SearchLimits(node_budget=float("nan")), "node_budget must be non-negative, got nan"),
    (SearchLimits(time_budget=-1.0), "time_budget must be non-negative, got -1.0"),
    (SearchLimits(node_budget=-1), "node_budget must be non-negative, got -1"),
    (SearchLimits(max_target_vertices=float("nan")),
     "max_target_vertices must be non-negative, got nan"),
    (SearchLimits(max_target_vertices=-1), "max_target_vertices must be non-negative, got -1"),
], ids=["nan_time", "nan_nodes", "negative_time", "negative_nodes", "nan_cap",
        "negative_cap"])
def test_search_refuses_a_budget_that_never_fires(limits, shown):
    # a NaN limit compares false forever, and a negative target cap would
    # report every target as over capacity; the refusal comes before any
    # node, also for a target refuted before the first
    for target in (make_sun(7).graph, PENDANT):
        with pytest.raises(StructureError, match=f"^{shown}$"):
            is_tlg_small(target, limits)
    with pytest.raises(StructureError, match=f"^{shown}$"):
        template_solve(make_sun(7), limits)


PENDANT = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # triangle plus a pendant


@pytest.mark.parametrize("build, class_nodes, labeled_nodes", [
    (lambda: make_sun(7).graph, 712, 712),
    (lambda: make_bowtie().graph, 22, 22),
    (lambda: PENDANT, 0, 0),
    (lambda: Graph(4, []), 84, 107),
    (lambda: Graph(5, []), 432, 1_001),
    (lambda: make_sun(8).graph, 2_387, 2_387),
    (lambda: make_wire(2).graph, 6_220, 6_220),
], ids=["sun7", "bowtie", "pendant", "edgeless4", "edgeless5", "sun8", "wire2"])
def test_brute_force_node_counts(build, class_nodes, labeled_nodes):
    # the exact number of search nodes, so that pruning changes are seen.
    # count_labeled_preimages walks the whole tree; brute_force_preimages
    # cuts leaves whose image under a swap of target twins sorts first.
    # Here only the edgeless targets lose nodes: the suns and wire(2) have
    # no twins, and the bowtie's one cut falls at its last depth.  PENDANT's
    # pendant edge lies in no triangle, which refutes it before the first
    # node.
    h = build()
    for run, nodes in ((brute_force_preimages, class_nodes),
                       (count_labeled_preimages, labeled_nodes)):
        run(h, SearchLimits(max_target_vertices=64, node_budget=nodes))
        if nodes:
            with pytest.raises(BudgetExceededError):
                run(h, SearchLimits(max_target_vertices=64, node_budget=nodes - 1))


def test_open_edge_pruning_builds_only_leaves_that_verify(monkeypatch):
    # the forward check drops only placements that cannot verify, so every
    # leaf reached on a realizable target verifies, and a pendant edge (in
    # no triangle) is refuted before any leaf is built
    verdicts = []

    def counting_verify(w):
        verdicts.append(verify_certificate(w))
        return verdicts[-1]

    monkeypatch.setattr(search, "verify_certificate", counting_verify)
    for h, classes in ((make_sun(7).graph, 2), (make_bowtie().graph, 1)):
        verdicts.clear()
        assert len(brute_force_preimages(h)) == classes
        assert verdicts and all(verdicts)
    verdicts.clear()
    assert is_tlg_small(PENDANT) == ("NO", None)
    assert verdicts == []


def _counted_forms(monkeypatch) -> list:
    """The graphs the oracle canonizes from now on, in call order."""
    counted = []

    def counting_form(g):
        counted.append(g)
        return canonical_form(g)

    monkeypatch.setattr(search, "canonical_form", counting_form)
    return counted


@pytest.mark.parametrize("build, calls, digest", [
    (lambda: Graph(3, []), 4,
     "dcbd483348e2ed202262198723e054102ef08af4e1a42d02b173ea5d8f2555bd"),
    (lambda: Graph(4, []), 9,
     "77627d81ae6ae2be439c92b5082b58c2e439d9336a271492f136bbca595fb6d1"),
    (lambda: Graph(5, []), 24,
     "ceea57eb52998bce0dd817954583da50a4f09bd52ad7833ba435de982ea48b48"),
    (lambda: make_sun(7).graph, 2,
     "49e848a771c5beca6bff05a13f1605ff3a84d0ce1ba39c8bf0924f538c4394cf"),
], ids=["edgeless3", "edgeless4", "edgeless5", "sun7"])
def test_oracle_canonizes_each_distinct_candidate_once(monkeypatch, build, calls, digest):
    # canonizing every verified leaf took 17 / 149 / 1,829 / 4 calls, and
    # every distinct candidate of the unpruned tree 7 / 38 / 275 / 2; the
    # witnesses kept, and their order, are those of both versions.  Each of
    # these searches certifies two or more leaves, so every leaf is
    # canonized; a search with one leaf canonizes none (below)
    counted = _counted_forms(monkeypatch)
    found = brute_force_preimages(build())
    assert len(counted) == calls
    assert len({frozenset(g.edges) for g in counted}) == calls
    dump = json.dumps([[sorted(w.candidate.edges), sorted(w.edge_to_vertex.items())]
                       for w in found])
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def _seeded_images(seed: int, count: int) -> list[Graph]:
    """T(G) of random 5-vertex graphs G, each the union of three random
    triangles, with the target's vertices relabelled."""
    rng = random.Random(seed)
    images = []
    for _ in range(count):
        edges = set()
        for _ in range(3):
            a, b, c = sorted(rng.sample(range(5), 3))
            edges |= {(a, b), (a, c), (b, c)}
        h = triangular_line_graph(Graph(5, edges)).derived
        perm = list(range(h.n))
        rng.shuffle(perm)
        images.append(Graph(h.n, [(perm[u], perm[v]) for u, v in h.sorted_edges]))
    return images


def _every_leaf_canonized(h: Graph) -> list:
    """The reference for brute_force_preimages: canonize every certified
    leaf of the class search and keep the first of each form."""
    seen = {}
    for w in search._certified_witnesses(h, None, classes=True):
        seen.setdefault(canonical_form(w.candidate), w)
    return [seen[k] for k in sorted(seen)]


def _witness_rows(found) -> list:
    return [(sorted(w.candidate.edges), sorted(w.edge_to_vertex.items())) for w in found]


def test_a_search_with_one_leaf_canonizes_nothing(monkeypatch):
    counted = _counted_forms(monkeypatch)
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    single = 0
    for h in [make_bowtie().graph, triangle, *_seeded_images(5, 60)]:
        leaves = sum(1 for _ in search._certified_witnesses(h, None, classes=True))
        counted.clear()
        found = brute_force_preimages(h)
        if leaves == 1:
            single += 1
            assert len(found) == 1 and counted == []
        else:
            assert len(counted) == leaves
    assert single >= 40


def test_class_search_matches_canonizing_every_leaf():
    for h in [*_seeded_images(11, 60), make_sun(7).graph,
              *(Graph(n, []) for n in (3, 4, 5)), make_bowtie().graph]:
        assert _witness_rows(brute_force_preimages(h)) == \
            _witness_rows(_every_leaf_canonized(h)), h.sorted_edges


def test_a_search_with_one_leaf_passes_the_canonical_form_cap(monkeypatch):
    # the bowtie's one leaf has a 4-vertex candidate; the 7-sun's two
    # leaves must still be canonized to be told apart
    monkeypatch.setattr("trilin.graph.CANONICAL_FORM_VERTEX_CAP", 3)
    [w] = brute_force_preimages(make_bowtie().graph)
    assert w.candidate.n == 4 and verify_certificate(w)
    with pytest.raises(CapacityError):
        brute_force_preimages(make_sun(7).graph)


def _star_key(edge_to_vertex):
    """A labeled preimage up to candidate relabeling: the multiset of its
    vertices' stars, the target vertices on each vertex's edges.  Only the
    two ends of an isolated edge can share a star, and they are twins."""
    stars: dict = {}
    for (u, v), t in edge_to_vertex.items():
        stars.setdefault(u, []).append(t)
        stars.setdefault(v, []).append(t)
    return tuple(sorted(tuple(sorted(star)) for star in stars.values()))


def _distinct_leaf_keys(h, node_budget=None):
    """The star keys of the oracle's certified leaves, after asserting that
    no two leaves share one.  None when the node budget runs out first; the
    leaves built until then are checked all the same."""
    keys = []
    complete = True
    try:
        for w in search._certified_witnesses(
                h, SearchLimits(max_target_vertices=64, node_budget=node_budget)):
            keys.append(_star_key(w.edge_to_vertex))
    except BudgetExceededError:
        complete = False
    assert len(set(keys)) == len(keys)
    return keys if complete else None


@pytest.mark.parametrize("build", [
    *(lambda n=n: Graph(n, []) for n in range(1, 7)),
    lambda: make_bowtie().graph,
    lambda: make_sun(7).graph,
    lambda: make_sun(8).graph,
    lambda: make_wire(2).graph,
    lambda: PENDANT,
    lambda: Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
], ids=[*(f"edgeless{n}" for n in range(1, 7)),
        "bowtie", "sun7", "sun8", "wire2", "pendant", "two_triangles"])
def test_each_leaf_is_one_labeled_preimage(build):
    # the twin cut leaves one leaf per labeled preimage, so the leaf count
    # is the count of distinct star keys
    h = build()
    keys = _distinct_leaf_keys(h)
    limits = SearchLimits(max_target_vertices=64)
    assert count_labeled_preimages(h, limits) == len(keys)


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


leaf_examples = settings(max_examples=80, deadline=None, database=None,
                         suppress_health_check=[HealthCheck.too_slow])


@leaf_examples
@given(small_graphs())
def test_leaves_are_distinct_on_operator_images(g):
    # a budget keeps near-edgeless images cheap; when the search completes,
    # the labeled preimage T(G) came from is among its leaves
    res = triangular_line_graph(g)
    keys = _distinct_leaf_keys(res.derived, node_budget=5_000)
    assert keys is None or _star_key(res.edge_to_vertex) in keys


@leaf_examples
@given(small_graphs())
def test_leaves_are_distinct_on_arbitrary_targets(h):
    _distinct_leaf_keys(h, node_budget=5_000)


def _digest(w) -> str:
    return hashlib.sha256(w.to_json().encode()).hexdigest()


def _assert_matches_unpruned(h, node_budget=None) -> None:
    """The reference for the oracle's class search: walk the whole tree,
    without the cut of twin swaps, and keep the first leaf of each
    canonical form.  brute_force_preimages must give the same classes, in
    the same order, with the same first witnesses; is_tlg_small must give
    the first leaf, and count_labeled_preimages the number of leaves.
    Nothing is compared when the node budget runs out on the whole tree;
    the pruned tree is a part of it, so it then fits the budget too."""
    limits = SearchLimits(max_target_vertices=64, node_budget=node_budget)
    forms: dict[frozenset, bytes] = {}
    first: dict[bytes, str] = {}
    leaves, head = 0, None
    try:
        for w in search._certified_witnesses(h, limits):
            leaves += 1
            head = head or w
            if (form := forms.get(w.candidate.edges)) is None:
                form = forms[w.candidate.edges] = canonical_form(w.candidate)
            first.setdefault(form, _digest(w))
    except BudgetExceededError:
        return
    assert [_digest(w) for w in brute_force_preimages(h, limits)] == \
        [first[k] for k in sorted(first)]
    status, w = is_tlg_small(h, limits)
    assert (status, w and _digest(w)) == \
        (("YES", _digest(head)) if head else ("NO", None))
    assert count_labeled_preimages(h, limits) == leaves


@pytest.mark.parametrize("build", [
    *(lambda n=n: Graph(n, []) for n in range(1, 7)),
    pytest.param(lambda: Graph(7, []), marks=pytest.mark.slow),
    lambda: make_bowtie().graph,
    lambda: make_sun(7).graph,
    lambda: make_sun(8).graph,
    lambda: make_wire(2).graph,
    lambda: PENDANT,
    lambda: Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
], ids=[*(f"edgeless{n}" for n in range(1, 8)),
        "bowtie", "sun7", "sun8", "wire2", "pendant", "two_triangles"])
def test_class_search_matches_unpruned_search(build):
    # edgeless 7 is slow-marked: its whole tree has 120,083 leaves
    _assert_matches_unpruned(build())


def _assert_matches_unpruned_on(g: Graph) -> None:
    # g itself, which is mostly no image, and its image T(g); a budget
    # keeps near-edgeless targets cheap
    _assert_matches_unpruned(g, node_budget=5_000)
    _assert_matches_unpruned(triangular_line_graph(g).derived, node_budget=5_000)


@leaf_examples
@given(small_graphs())
def test_class_search_matches_unpruned_search_on_small_graphs(g):
    _assert_matches_unpruned_on(g)


@pytest.mark.slow
@settings(leaf_examples, max_examples=1_000)
@given(small_graphs(max_n=8))
def test_class_search_matches_unpruned_search_on_more_graphs(g):
    _assert_matches_unpruned_on(g)


def _leaf_sequence(h: Graph, w) -> tuple:
    """A leaf as the search builds it: its slot pairs along the order in
    which the target vertices are placed."""
    pair = {t: e for e, t in w.edge_to_vertex.items()}
    return tuple(pair[t] for t in search._target_order(h))


@settings(max_examples=80, deadline=None, database=None)
@given(small_graphs())
def test_twin_swaps_are_automorphisms(h):
    for u, w in search._twin_swaps(h):
        swap = {u: w, w: u}
        assert {tuple(sorted((swap.get(a, a), swap.get(b, b))))
                for a, b in h.edges} == h.edges


@pytest.mark.parametrize("build", [
    *(lambda n=n: Graph(n, []) for n in range(1, 7)),
    lambda: make_bowtie().graph,
    lambda: Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    lambda: make_sun(7).graph,
], ids=[*(f"edgeless{n}" for n in range(1, 7)), "bowtie", "two_triangles", "sun7"])
def test_swap_images_of_leaves_renumber_to_leaves(build):
    # the cut is sound only if the renumbered image of a leaf is the leaf
    # the search builds for that labeled preimage: a wrong tie-break between
    # the ends of a fresh pair gives a sequence the search never builds
    h = build()
    order = search._target_order(h)
    pos = {t: i for i, t in enumerate(order)}
    leaves = {_leaf_sequence(h, w) for w in search._certified_witnesses(
        h, SearchLimits(max_target_vertices=64))}
    for seq in leaves:
        assert tuple(search._renumbered(seq)) == seq
        for u, w in search._twin_swaps(h):
            swap = {u: w, w: u}
            image = [seq[pos[swap.get(t, t)]] for t in order]
            assert tuple(search._renumbered(image)) in leaves


def _triangle_free_classes(max_edges: int) -> list[list[nx.Graph]]:
    """networkx: the triangle-free graphs with k edges and no isolated
    vertex, up to isomorphism, for k = 1..max_edges.  Each class of k edges
    is grown from one of k - 1 by a new edge between two vertices with no
    common neighbour, from a vertex to a new one, or between two new ones.
    Candidates are bucketed by degree sequence before the isomorphism test."""
    levels = [[nx.Graph([(0, 1)])]]
    for _ in range(1, max_edges):
        buckets: dict[tuple, list[nx.Graph]] = {}
        for g in levels[-1]:
            n = g.number_of_nodes()
            new_edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                         if not g.has_edge(u, v) and not set(g[u]) & set(g[v])]
            new_edges += [(u, n) for u in range(n)] + [(n, n + 1)]
            for e in new_edges:
                grown = nx.Graph(g)
                grown.add_edge(*e)
                key = tuple(sorted(d for _, d in grown.degree()))
                bucket = buckets.setdefault(key, [])
                if not any(nx.is_isomorphic(grown, other) for other in bucket):
                    bucket.append(grown)
        levels.append([g for bucket in buckets.values() for g in bucket])
    return levels


def test_edgeless_classes_are_the_triangle_free_graphs():
    # T(G) is edgeless exactly when G is triangle-free, so the classes of
    # the edgeless target on n vertices are the triangle-free graphs with n
    # edges and no isolated vertex
    levels = _triangle_free_classes(7)
    assert [len(level) for level in levels] == [1, 2, 4, 9, 19, 45, 105]
    for n, level in enumerate(levels, 1):
        found = brute_force_preimages(Graph(n, []))
        assert sorted(sorted(w.candidate.degree(v) for v in range(w.candidate.n))
                      for w in found) == \
            sorted(sorted(d for _, d in g.degree()) for g in level)


def _in_triangles(h: Graph) -> bool:
    """Whether networkx finds every edge of h in a triangle of h."""
    hx = nx.Graph(list(h.edges))
    covered = {frozenset(e) for tri in nx.enumerate_all_cliques(hx) if len(tri) == 3
               for e in itertools.combinations(tri, 2)}
    return covered == {frozenset(e) for e in h.edges}


@settings(max_examples=80, deadline=None, database=None)
@given(small_graphs())
def test_every_edge_of_an_image_lies_in_a_triangle(g):
    # the lemma behind the oracle's up-front refutation: an edge ef of T(G)
    # comes from a triangle {e, f, g} of G, and g is adjacent to e and f
    assert _in_triangles(triangular_line_graph(g).derived)


def _assert_refuted_without_search(h):
    limits = SearchLimits(max_target_vertices=64, node_budget=0)
    assert brute_force_preimages(h, limits) == []
    assert count_labeled_preimages(h, limits) == 0
    assert is_tlg_small(h, limits) == ("NO", None)


@pytest.mark.parametrize("h", [
    *(Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (2, 3, 6)),
    *(Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 5, 6)),
    *(Graph(k + 1, [(0, i) for i in range(1, k + 1)]) for k in (3, 4, 5)),
    PENDANT,
], ids=["path2", "path3", "path6", "cycle4", "cycle5", "cycle6",
        "star3", "star4", "star5", "pendant"])
def test_edge_in_no_triangle_is_refuted_without_search(h):
    assert not _in_triangles(h)
    _assert_refuted_without_search(h)
    # the target cap is checked first
    with pytest.raises(CapacityError):
        count_labeled_preimages(h, SearchLimits(max_target_vertices=h.n - 1))


@settings(max_examples=40, deadline=None, database=None)
@given(small_graphs(), st.integers(0))
def test_image_plus_pendant_is_refuted_without_search(g, at):
    # T(G) plus a pendant edge is no image, whatever T(G) is
    t = triangular_line_graph(g).derived
    assume(t.n > 0)
    _assert_refuted_without_search(Graph(t.n + 1, [*t.edges, (at % t.n, t.n)]))


# ---------------------------------------------------------------------------
# Template solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: designate_attachments(make_sun(7)),
    lambda: make_sun(16),                # a lone k-sun is its own unit
], ids=["sun7", "sun16"])
def test_template_solve_single_7sun(build):
    found = template_solve(build())
    assert len(found) == 2
    kinds = {a.choices["self"] for a in found}
    assert kinds == {WHEEL, SQUARED_CYCLE}
    for a in found:
        assert verify_certificate(a.witness)


@pytest.mark.parametrize("k", [4, 5, 7, 12, 16])
def test_unit_corners_are_the_atoms_the_other_edges_share(k):
    # Glue.add identifies these corners across parts, so each must be the
    # one atom the edges of its triangle's other two vertices share
    sun = make_sun(k)
    triangles = {frozenset(tri) for tri in enumerate_triangles(sun.graph)}
    for kind in (WHEEL, SQUARED_CYCLE):
        part = glue_plan(sun).part(0, kind)
        edges = dict(part.placing)
        assert {key for key, _ in part.own} == triangles
        for key, opposite in part.own:
            assert set(opposite) == key
            for t, atom in opposite.items():
                u, v = key - {t}
                assert set(edges[u]) & set(edges[v]) == {atom}


@pytest.mark.parametrize("build", [
    lambda: make_wire(3),
    lambda: make_binary_enforced_sun(12),
    lambda: make_binary_enforced_sun(16),
    lambda: make_variable_cluster(0, 1),
    lambda: join_clause(make_sun(12), make_sun(12), make_sun(12)),
    lambda: compile_formula(parse_dimacs("p cnf 3 1\n1 2 3 0\n"), 16).blueprint,
], ids=["wire3", "enforced12", "enforced16", "cluster", "clause", "formula"])
def test_parts_match_the_units_taken_before_them(build):
    # each part against its unit's roles and the units before it in plan
    # order, accumulated here
    bp = build()
    plan = glue_plan(bp)
    units = dict(search.sun_units(bp))
    held_triangles, held_vertices = set(), set()
    for i, name in enumerate(plan.names):
        unit = units[name]
        cycle, apex = unit.roles["cycle"], unit.roles["apex"]
        triangles = {frozenset((cycle[p], apex[p], cycle[(p + 1) % len(cycle)]))
                     for p in range(len(cycle))}
        for kind in (WHEEL, SQUARED_CYCLE):
            part = plan.part(i, kind)
            own = {key for key, _ in part.own}
            shared = {key for _, key, _ in part.shared}
            assert own | shared == triangles and not own & shared
            assert shared == triangles & held_triangles
            assert {t for t, _ in part.placing} == set(unit.vertices) - held_vertices
            settled = set().union(*shared)
            assert all(t in held_vertices - settled for t, _ in part.pending)
            assert part.hi - part.lo == len(cycle) + (kind == WHEEL)
            atoms = [x for _, pair in part.placing + part.pending for x in pair]
            atoms += [x for _, mine in part.own for x in mine.values()]
            atoms += [x for x, _, _ in part.shared]
            assert all(part.lo <= x < part.hi for x in atoms)
        held_triangles |= triangles
        held_vertices.update(unit.vertices)


@pytest.mark.parametrize("step, failure", [
    (1, "a loop"),                            # rim atoms joined by apex a_0's edge
    (2, "two target vertices on one edge"),   # both joined to rim atom lo + 1
])
def test_union_reports_its_failure_and_rollback_undoes_it(step, failure):
    # the 7-wheel's rim atoms lo..lo+6 and hub lo+7: lo and lo+1 are one
    # edge's ends, and lo and lo+2 reach lo+1 along a_0's and a_1's edges
    plan = glue_plan(make_sun(7))
    glue = search.Glue(plan)
    part = plan.part(0, WHEEL)
    assert glue.add(part) is None
    before = (list(glue.parent), list(glue.size), [n and dict(n) for n in glue.nbr])
    mark = glue.mark()
    assert glue.union(part.lo, part.lo + step) == failure
    assert glue.find(part.lo) == glue.find(part.lo + step)
    glue.rollback(mark)
    assert (glue.parent, glue.size, glue.nbr) == before


def test_ways_finds_none_for_a_merged_copy_and_both_orientations_else():
    # unit 0 of wire(1) as a 7-wheel; the first atoms of unit 1 are fresh
    plan = glue_plan(make_wire(1))
    glue = search.Glue(plan)
    part = plan.part(0, WHEEL)
    assert glue.add(part) is None
    p, q = part.hi, part.hi + 1
    for t, _ in part.placing:
        x, y = glue.edge[t]
        assert glue.ways(t, (x, y)) == glue.ways(t, (y, x)) == ()
        assert glue.ways(t, (p, q)) == (((p, x), (q, y)), ((p, y), (q, x)))


def _glued(plan) -> tuple:
    """Every vector the free glue search verifies, with its witness bytes,
    and the nodes it took."""
    budget = search._Budget()
    found = [(sorted(a.choices.items()), a.witness.to_json()) for a in
             search._verified_glues(plan, plan.kinds({}), budget, [])]
    return found, budget.nodes


def test_glue_search_skips_a_copy_already_merged():
    # unit 1 of wire(2) shares a triangle with unit 0, and adding it merges
    # its copies of that triangle's vertices, which _Part leaves out of
    # `pending`; one put back must be skipped, at no node, not tried
    bp = make_wire(2)
    plain, settled = glue_plan(bp), glue_plan(bp)
    for kind in (WHEEL, SQUARED_CYCLE):
        part = settled.part(1, kind)
        listed = {frozenset(pair) for _, pair in part.placing + part.pending}
        part.pending.append(next(
            (t, (part.lo + i, v)) for i, nbr in enumerate(part.nbrs)
            for v, t in nbr.items() if frozenset((part.lo + i, v)) not in listed))
    found, nodes = _glued(plain)
    assert len(found) == 2
    assert _glued(settled) == (found, nodes)


def test_a_vector_that_two_glues_complete_is_kept_once():
    # two 7-suns sharing one apex and no triangle: the second unit has a
    # copy of that apex to settle, and both orientations of its edge glue,
    # so each of the four vectors completes twice
    sun = make_sun(7)
    asm = Assembly()
    asm.add(sun, "S")
    asm.add(sun, "T")
    asm.identify(asm.sub("S").roles["apex"][0], asm.sub("T").roles["apex"][0])
    bp = asm.build("pair")
    plan = glue_plan(bp)
    complete = [tuple(sorted(choices.items())) for choices, _ in
                search._glue_search(plan, plan.kinds({}), search._Budget(), [])]
    assert len(complete) == 8 and len(set(complete)) == 4
    found = template_solve(bp)
    assert [tuple(sorted(a.choices.items())) for a in found] == sorted(set(complete))
    assert all(verify_certificate(a.witness) for a in found)


def test_template_solve_agrees_with_oracle_on_7sun():
    solved = {canonical_form(a.witness.candidate)
              for a in template_solve(designate_attachments(make_sun(7)))}
    brute = {canonical_form(w.candidate)
             for w in brute_force_preimages(make_sun(7).graph)}
    assert solved == brute


def _template_kinds(k: int, witnesses) -> list:
    """The template each witness's candidate is isomorphic to, or None."""
    templates = {WHEEL: make_wheel(k).graph}
    if k >= 5:  # the squared 4-cycle is no simple graph
        templates[SQUARED_CYCLE] = make_squared_cycle(k).graph
    return [next((kind for kind, t in templates.items()
                  if is_isomorphic(w.candidate, t)), None) for w in witnesses]


@pytest.mark.parametrize("k, kinds", [
    (4, {WHEEL}), (5, {WHEEL}), (6, {WHEEL}), (7, {WHEEL, SQUARED_CYCLE}),
])
def test_template_solve_matches_the_oracle_on_small_suns(k, kinds):
    # every oracle class of a small sun is a template, and template_solve
    # finds exactly those kinds; the 4-sun's squared glue, whose edge map
    # is no bijection, counts as a glue that does not verify
    classes = _template_kinds(k, brute_force_preimages(make_sun(k).graph))
    assert sorted(classes) == sorted(kinds)
    assert {a.choices["self"] for a in template_solve(make_sun(k))} == kinds


def test_four_sun_squared_glue_does_not_verify():
    # the squared template puts apexes 0 and 2 on the one chord (0, 2)
    with pytest.raises(GlueError,
                       match="the glued candidate does not verify$") as exc:
        glue_templates(glue_plan(make_sun(4)), {"self": SQUARED_CYCLE})
    assert isinstance(exc.value, CertificateError)
    assert exc.value.failure == "the glued candidate does not verify"


def test_lone_eight_sun_has_classes_no_template_reaches():
    # a lone k-sun unit is complete only conditionally: of the 8-sun's 7
    # preimage classes (32 labeled preimages) only the wheel and the squared
    # cycle are templates, and template_solve returns just their 2 vectors
    g = make_sun(8).graph
    classes = _template_kinds(8, brute_force_preimages(g))
    assert len(classes) == 7 and count_labeled_preimages(g) == 32
    assert sorted(kind for kind in classes if kind) == [SQUARED_CYCLE, WHEEL]
    assert len(template_solve(make_sun(8))) == 2


def _sun7_join(attach, bowtie):
    sun = designate_attachments(make_sun(7))
    return attach(sun, bowtie, sun, "root")


def _suns_at_a_vertex():
    # two 7-suns sharing cycle vertex c0 and no triangle: the second sun's
    # copy of c0 is settled by Glue.ways, which branches 4 times
    asm = Assembly()
    asm.add(make_sun(7), "a")
    asm.add(make_sun(7), "b")
    asm.identify(0, 14)
    return asm.build("suns_at_a_vertex")


@pytest.mark.parametrize("build,leaves,n_vectors", [
    (lambda: make_wire(0), 2, 2),
    (lambda: make_wire(1), 2, 2),
    (lambda: make_wire(2), 10, 2),
    (lambda: make_wire(3), 51, 2),
    (lambda: _sun7_join(attach_equal, "equal"), 2, 2),
    (lambda: _sun7_join(attach_not, "not"), 2, 2),
    (_suns_at_a_vertex, 10, 4),
    pytest.param(lambda: make_wire(4), 679, 2, marks=pytest.mark.slow),
], ids=["wire0", "wire1", "wire2", "wire3", "equal", "not", "suns_at_a_vertex", "wire4"])
def test_template_solve_choice_vectors_match_the_oracle(build, leaves, n_vectors):
    # every oracle preimage restricts to a template on each unit, and the
    # choice vectors it projects to are template_solve's; several preimages
    # can share one vector (wire(2): 10 leaves, 2 vectors)
    bp = build()
    units = search.sun_units(bp)
    wheel7, cycle7 = make_wheel(7).graph, make_squared_cycle(7).graph
    vectors = set()
    count = 0
    for w in search._certified_witnesses(
            bp.graph, SearchLimits(max_target_vertices=64)):
        count += 1
        vector = []
        for name, sg in units:
            c = restrict_preimage(w, sg.vertices).candidate
            kind = (WHEEL if is_isomorphic(c, wheel7)
                    else SQUARED_CYCLE if is_isomorphic(c, cycle7) else None)
            assert kind is not None, f"{name} restricts to no template"
            vector.append((name, kind))
        vectors.add(tuple(sorted(vector)))
    assert count == leaves
    assert vectors == {tuple(sorted(a.choices.items()))
                       for a in template_solve(bp)}
    assert len(vectors) == n_vectors


def test_equal_join_forces_agreement():
    sun = designate_attachments(make_sun(7))
    found = template_solve(attach_equal(sun, "equal", sun, "root"))
    assert len(found) == 2
    for a in found:
        assert verify_certificate(a.witness)
        assert a.choices["a"] == a.choices["b"]
    assert {a.choices["a"] for a in found} == {WHEEL, SQUARED_CYCLE}


def test_not_join_forces_disagreement():
    sun = designate_attachments(make_sun(7))
    found = template_solve(attach_not(sun, "not", sun, "root"))
    assert len(found) == 2
    for a in found:
        assert verify_certificate(a.witness)
        assert a.choices["a"] != a.choices["b"]


def test_pinned_solve_restricts_results():
    sun = designate_attachments(make_sun(7))
    eq = attach_equal(sun, "equal", sun, "root")
    pinned = template_solve(eq, pin={"a": SQUARED_CYCLE})
    assert len(pinned) == 1
    assert pinned[0].choices == {"a": SQUARED_CYCLE, "b": SQUARED_CYCLE}
    assert template_solve(eq, pin={"a": SQUARED_CYCLE, "b": WHEEL}) == []
    nt = attach_not(sun, "not", sun, "root")
    pinned = template_solve(nt, pin={"a": WHEEL})
    assert len(pinned) == 1
    assert pinned[0].choices["b"] == SQUARED_CYCLE


def test_pinned_solve_validates_unit_names():
    sun = designate_attachments(make_sun(7))
    with pytest.raises(StructureError):
        template_solve(sun, pin={"nonexistent": WHEEL})
    with pytest.raises(StructureError, match="no registered sun units"):
        template_solve(make_bowtie())
    with pytest.raises(StructureError, match=r"no choice for units \['H1'\]"):
        glue_templates(glue_plan(make_wire(1)), {"H0": WHEEL})
    # a pinned kind that is neither template is refused, naming the unit
    with pytest.raises(StructureError, match="unit H0 pinned to unknown kind 'wheel'"):
        template_solve(make_wire(1), pin={"H0": "wheel"})
    with pytest.raises(StructureError, match="unit H1 pinned to unknown kind None"):
        glue_templates(glue_plan(make_wire(1)), {"H0": "WHEEL", "H1": None})
    # names that are no unit are refused before any kind is read
    with pytest.raises(StructureError, match=re.escape(
            "pinned units not registered: ['H0/root', 'nonsense']")):
        glue_templates(glue_plan(make_wire(1)), {
            "H0": WHEEL, "H1": SQUARED_CYCLE, "H0/root": "garbage", "nonsense": 3})
    # fewer than one result is no enumeration
    for bad in (0, -1):
        with pytest.raises(StructureError, match=f"^max_results must be at least 1, got {bad}$"):
            template_solve(make_wire(2), max_results=bad)


@pytest.mark.parametrize("build, name", [
    (lambda: make_binary_enforced_sun(12), "emb0/chain"),  # registered, no unit
    (lambda: make_wire(1), "H0/root"),
    (lambda: make_wire(1), "nonsense"),  # not registered at all
])
def test_pins_name_only_units(build, name):
    # the glue plan's units are the one list a pin may name: both solvers
    # refuse any other name, even beside a choice for every unit
    bp = build()
    plan = glue_plan(bp)
    assert name not in plan.names
    choices = dict.fromkeys(plan.names, WHEEL) | {name: WHEEL}
    refusal = re.escape(f"pinned units not registered: [{name!r}]")
    with pytest.raises(StructureError, match=refusal):
        template_solve(bp, pin={name: WHEEL})
    with pytest.raises(StructureError, match=refusal):
        glue_templates(plan, choices)


def test_max_results_short_circuits():
    sun = designate_attachments(make_sun(7))
    found = template_solve(sun, max_results=1)
    assert len(found) == 1
    assert verify_certificate(found[0].witness)


def test_binary_enforcement_collapses_twelve_sun():
    # at tap size 12 the chain chords force a triangle among the would-be
    # squared-cycle fragments, leaving only the shared-hub wheel preimage
    found = template_solve(make_binary_enforced_sun(12))
    assert len(found) == 1
    a = found[0]
    assert set(a.choices.values()) == {WHEEL}
    assert verify_certificate(a.witness)
    bp = make_binary_enforced_sun(12)
    inv = {t: e for e, t in a.witness.edge_to_vertex.items()}
    hubs = None
    for name, sg in bp.sub_gadgets.items():
        if sg.kind != "sun7":
            continue
        common = None
        for slot in sg.roles["cycle"]:
            ends = set(inv[slot])
            common = ends if common is None else common & ends
        assert len(common) == 1
        hubs = common if hubs is None else hubs | common
    # all twelve wheel fragments share one hub vertex
    assert len(hubs) == 1


def test_binary_enforcement_keeps_both_sides_at_thirteen():
    # one step up the cycle length, the chord pattern avoids the forced
    # triangle and both template families survive
    found = template_solve(make_binary_enforced_sun(13))
    kinds = {frozenset(a.choices.values()) for a in found}
    assert frozenset({WHEEL}) in kinds
    assert frozenset({SQUARED_CYCLE}) in kinds
    assert len(found) == 2
    for a in found:
        assert verify_certificate(a.witness)


def _enforced_clause(k: int):
    return join_clause(*(make_binary_enforced_sun(k) for _ in range(3)))


def test_enforced_thirteen_sun_clause_has_no_feasible_pattern():
    # a lone enforced 13-sun keeps both sides, but three of them twisted
    # into a clause, as the compiled reduction's taps are, admit no pattern
    # at all: 13 is not a sound enforcement size
    assert template_solve(_enforced_clause(13)) == []


def test_enforced_sixteen_sun_clause_has_seven_patterns():
    # at 16 (clause triangles at positions 0 and k // 2 = 8) the clause of
    # enforced taps behaves like the paper's clause of plain 12-suns
    found = template_solve(_enforced_clause(16))
    patterns = {tuple(a.choices[f"S{ell}/emb0"] for ell in (1, 2, 3))
                for a in found}
    assert len(found) == 7 and len(patterns) == 7
    assert (WHEEL, WHEEL, WHEEL) not in patterns
    for a in found:
        assert verify_certificate(a.witness)
        for ell in (1, 2, 3):
            # every embedded 7-sun of a leg makes the same choice
            assert {kind for name, kind in a.choices.items()
                    if name.startswith(f"S{ell}/")} == {a.choices[f"S{ell}/emb0"]}


def test_clause_gadget_pinned_patterns():
    bp = join_clause(make_sun(12), make_sun(12), make_sun(12))
    # the all-wheel pattern is infeasible; one mixed pattern is feasible
    assert template_solve(bp, pin={"S1": WHEEL, "S2": WHEEL, "S3": WHEEL}) == []
    found = template_solve(
        bp, pin={"S1": SQUARED_CYCLE, "S2": SQUARED_CYCLE, "S3": SQUARED_CYCLE},
        max_results=1)
    assert len(found) == 1
    assert verify_certificate(found[0].witness)


def test_long_wire_glues_without_recursion_limit():
    # 401 units: the glue search keeps its branch points on its own stack
    pins = {f"H{j}": WHEEL if j % 2 == 0 else SQUARED_CYCLE for j in range(401)}
    bp = make_wire(400)
    found = template_solve(bp, pin=pins, max_results=1)
    assert len(found) == 1 and found[0].choices == pins
    assert verify_certificate(found[0].witness)
    assert verify_certificate(glue_templates(glue_plan(bp), pins))


def test_glue_templates_names_the_unit_that_cannot_glue():
    # two adjacent wire suns cannot both be wheels
    with pytest.raises(CertificateError) as exc:
        glue_templates(glue_plan(make_wire(1)), {"H0": WHEEL, "H1": WHEEL})
    assert "H1" in str(exc.value)


def test_glue_templates_names_the_deepest_unit_that_cannot_glue():
    # a NOT-joined chain of 7-suns S - T - U, with S's apex a_0 identified
    # with T's cycle vertex c_3 too, outside both joins, so that T has a
    # copy of it to settle.  With T a wheel, one orientation of that copy
    # glues, and then U fails (NOT-joined suns cannot both be wheels); the
    # other orientation fails at T itself, later in the search.  The error
    # names the deeper failure.
    sun = designate_attachments(make_sun(7))
    asm = Assembly()
    for name in "STU":
        asm.add(sun, name)
    asm.bowtie_join("S/equal", "T/root", NOT)
    asm.bowtie_join("T/not", "U/root", NOT)
    asm.identify(asm.sub("S").roles["apex"][0], asm.sub("T").roles["cycle"][3])
    plan = glue_plan(asm.build("chain"))
    assert plan.names == ["S", "T", "U"]
    pins = {"S": SQUARED_CYCLE, "T": WHEEL}
    assert verify_certificate(glue_templates(plan, {**pins, "U": SQUARED_CYCLE}))
    with pytest.raises(GlueError) as exc:
        glue_templates(plan, {**pins, "U": WHEEL})
    assert str(exc.value).endswith(
        "gluing the WHEEL template of U makes two target vertices on one edge")


def test_glue_templates_reports_a_glue_that_does_not_verify():
    # an edge between two apexes lies in no triangle, so no glue of the
    # sun's templates realizes it
    sun = designate_attachments(make_sun(7))
    apex = sun.roles["apex"]
    graph = Graph(sun.graph.n, list(sun.graph.edges) + [(apex[0], apex[3])])
    bp = GadgetBlueprint(graph, sun.kind, dict(sun.roles))
    with pytest.raises(CertificateError, match="does not verify"):
        glue_templates(glue_plan(bp), {"self": WHEEL})


def test_vertex_outside_every_unit_is_a_structure_error():
    # vertex 14 hangs off the 7-sun S and lies in no sun unit
    sun = make_sun(7)
    graph = Graph(15, list(sun.graph.edges) + [(0, 14)])
    bp = GadgetBlueprint(graph, "host", {}, {
        "S": SubGadget(sun.kind, tuple(range(14)), dict(sun.roles))})
    with pytest.raises(StructureError, match="vertex 14"):
        template_solve(bp)
    with pytest.raises(StructureError, match="vertex 14"):
        glue_templates(glue_plan(bp), {"S": WHEEL})
    # two 7-suns S (0..13) and T (14..27), and a triangle (0, 14, 15) with a
    # vertex in each of them but inside neither
    shifted = [(u + 14, v + 14) for u, v in sun.graph.edges]
    graph = Graph(28, list(sun.graph.edges) + shifted + [(0, 14), (0, 15)])
    bp = GadgetBlueprint(graph, "host", {}, {
        "S": SubGadget(sun.kind, tuple(range(14)), dict(sun.roles)),
        "T": SubGadget(sun.kind, tuple(range(14, 28)),
                       {r: tuple(v + 14 for v in vs) for r, vs in sun.roles.items()})})
    with pytest.raises(StructureError, match=r"triangle \(0, 14, 15\)"):
        template_solve(bp)


@pytest.mark.parametrize("build, pin, nodes", [
    (lambda: make_wire(3), None, 14),
    (lambda: make_binary_enforced_sun(12), None, 38),
    (lambda: make_binary_enforced_sun(13), None, 54),
    (lambda: make_binary_enforced_sun(14), None, 58),
    (lambda: make_binary_enforced_sun(16), None, 66),
    (lambda: join_clause(make_sun(12), make_sun(12), make_sun(12)), None, 14),
    (lambda: make_binary_enforced_sun(12), {"emb0": SQUARED_CYCLE}, 13),
], ids=["wire3", "enforced12", "enforced13", "enforced14", "enforced16", "clause12",
        "enforced12_cycle"])
def test_template_solve_node_counts(build, pin, nodes):
    # the exact number of search nodes, so that pruning changes are seen
    template_solve(build(), SearchLimits(node_budget=nodes), pin=pin)
    with pytest.raises(BudgetExceededError):
        template_solve(build(), SearchLimits(node_budget=nodes - 1), pin=pin)
