from __future__ import annotations

import hashlib
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from trilin.errors import (
    BudgetExceededError,
    CapacityError,
    CertificateError,
    StructureError,
)
from trilin import search
from trilin.gadgets import (
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
    make_wheel,
    make_wire,
)
from trilin.graph import Graph, canonical_form, enumerate_triangles, is_isomorphic
from trilin.operators import (
    restrict_preimage,
    triangular_line_graph,
    verify_certificate,
)
from trilin.search import (
    SQUARED_CYCLE,
    WHEEL,
    SearchLimits,
    brute_force_preimages,
    count_labeled_preimages,
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
    # search runs for seconds to its 45 classes
    with pytest.raises(BudgetExceededError, match="time budget"):
        brute_force_preimages(Graph(6, []), SearchLimits(time_budget=0))


PENDANT = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # triangle plus a pendant


@pytest.mark.parametrize("build, nodes", [
    (lambda: make_sun(7).graph, 712),
    (lambda: make_bowtie().graph, 22),
    (lambda: PENDANT, 0),
    (lambda: Graph(4, []), 107),
    (lambda: Graph(5, []), 1_001),
    (lambda: make_sun(8).graph, 2_387),
    (lambda: make_wire(2).graph, 6_220),
], ids=["sun7", "bowtie", "pendant", "edgeless4", "edgeless5", "sun8", "wire2"])
def test_brute_force_node_counts(build, nodes):
    # the exact number of search nodes, so that pruning changes are seen;
    # both functions walk the same tree.  PENDANT's pendant edge lies in no
    # triangle, which refutes it before the first node.
    h = build()
    for run in (brute_force_preimages, count_labeled_preimages):
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


@pytest.mark.parametrize("build, calls, digest", [
    (lambda: Graph(3, []), 7,
     "dcbd483348e2ed202262198723e054102ef08af4e1a42d02b173ea5d8f2555bd"),
    (lambda: Graph(4, []), 38,
     "77627d81ae6ae2be439c92b5082b58c2e439d9336a271492f136bbca595fb6d1"),
    (lambda: Graph(5, []), 275,
     "ceea57eb52998bce0dd817954583da50a4f09bd52ad7833ba435de982ea48b48"),
    (lambda: make_sun(7).graph, 2,
     "49e848a771c5beca6bff05a13f1605ff3a84d0ce1ba39c8bf0924f538c4394cf"),
], ids=["edgeless3", "edgeless4", "edgeless5", "sun7"])
def test_oracle_canonizes_each_distinct_candidate_once(monkeypatch, build, calls, digest):
    # canonizing every verified leaf took 17 / 149 / 1,829 / 4 calls; the
    # witnesses kept, and their order, are those of that version
    counted = []

    def counting_form(g):
        counted.append(g)
        return canonical_form(g)

    monkeypatch.setattr(search, "canonical_form", counting_form)
    found = brute_force_preimages(build())
    assert len(counted) == calls
    assert len({frozenset(g.edges) for g in counted}) == calls
    dump = json.dumps([[sorted(w.candidate.edges), sorted(w.edge_to_vertex.items())]
                       for w in found])
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


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
def small_graphs(draw):
    n = draw(st.integers(1, 7))
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
    [(_, parts)] = search.unit_parts(search.sun_units(sun))
    triangles = {frozenset(tri) for tri in enumerate_triangles(sun.graph)}
    for kind in (WHEEL, SQUARED_CYCLE):
        edges, corners = parts[kind]
        assert {key for key, _ in corners} == triangles
        for key, opposite in corners:
            assert set(opposite) == key
            for t, atom in opposite.items():
                u, v = key - {t}
                assert set(edges[u]) & set(edges[v]) == {atom}


def test_template_solve_agrees_with_oracle_on_7sun():
    solved = {canonical_form(a.witness.candidate)
              for a in template_solve(designate_attachments(make_sun(7)))}
    brute = {canonical_form(w.candidate)
             for w in brute_force_preimages(make_sun(7).graph)}
    assert solved == brute


def _sun7_join(attach, bowtie):
    sun = designate_attachments(make_sun(7))
    return attach(sun, bowtie, sun, "root")


@pytest.mark.parametrize("build,leaves", [
    (lambda: make_wire(0), 2),
    (lambda: make_wire(1), 2),
    (lambda: make_wire(2), 10),
    (lambda: make_wire(3), 51),
    (lambda: _sun7_join(attach_equal, "equal"), 2),
    (lambda: _sun7_join(attach_not, "not"), 2),
    pytest.param(lambda: make_wire(4), 679, marks=pytest.mark.slow),
], ids=["wire0", "wire1", "wire2", "wire3", "equal", "not", "wire4"])
def test_template_solve_choice_vectors_match_the_oracle(build, leaves):
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
    assert len(vectors) == 2


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
        glue_templates(make_wire(1), {"H0": WHEEL})
    # a pinned kind that is neither template is refused, naming the unit
    with pytest.raises(StructureError, match="unit H0 pinned to unknown kind 'wheel'"):
        template_solve(make_wire(1), pin={"H0": "wheel"})
    with pytest.raises(StructureError, match="unit H1 pinned to unknown kind None"):
        glue_templates(make_wire(1), {"H0": "WHEEL", "H1": None})


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
    assert verify_certificate(glue_templates(bp, pins))


def test_glue_templates_names_the_unit_that_cannot_glue():
    # two adjacent wire suns cannot both be wheels
    with pytest.raises(CertificateError) as exc:
        glue_templates(make_wire(1), {"H0": WHEEL, "H1": WHEEL})
    assert "H1" in str(exc.value)


def test_glue_templates_reports_a_glue_that_does_not_verify():
    # an edge between two apexes lies in no triangle, so no glue of the
    # sun's templates realizes it
    sun = designate_attachments(make_sun(7))
    apex = sun.roles["apex"]
    graph = Graph(sun.graph.n, list(sun.graph.edges) + [(apex[0], apex[3])])
    bp = GadgetBlueprint(graph, sun.kind, dict(sun.roles))
    with pytest.raises(CertificateError, match="does not verify"):
        glue_templates(bp, {"self": WHEEL})


def test_vertex_outside_every_unit_is_a_structure_error():
    # vertex 14 hangs off the 7-sun S and lies in no sun unit
    sun = make_sun(7)
    graph = Graph(15, list(sun.graph.edges) + [(0, 14)])
    bp = GadgetBlueprint(graph, "host", {}, {
        "S": SubGadget(sun.kind, tuple(range(14)), dict(sun.roles))})
    with pytest.raises(StructureError, match="vertex 14"):
        template_solve(bp)
    with pytest.raises(StructureError, match="vertex 14"):
        glue_templates(bp, {"S": WHEEL})
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
    (lambda: make_binary_enforced_sun(16), None, 66),
    (lambda: join_clause(make_sun(12), make_sun(12), make_sun(12)), None, 14),
    (lambda: make_binary_enforced_sun(12), {"emb0": SQUARED_CYCLE}, 13),
], ids=["wire3", "enforced16", "clause12", "enforced12_cycle"])
def test_template_solve_node_counts(build, pin, nodes):
    # the exact number of search nodes, so that pruning changes are seen
    template_solve(build(), SearchLimits(node_budget=nodes), pin=pin)
    with pytest.raises(BudgetExceededError):
        template_solve(build(), SearchLimits(node_budget=nodes - 1), pin=pin)
