from __future__ import annotations

import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import trilin.gadgets as gadgets
from trilin.errors import GraphConstructionError, StructureError
from trilin.gadgets import (
    Assembly,
    GadgetBlueprint,
    attach_equal,
    attach_not,
    designate_attachments,
    join_clause,
    make_binary_enforced_sun,
    make_bowtie,
    make_fan,
    make_large_variable_gadget,
    make_squared_cycle,
    make_sun,
    make_triangle_strip,
    make_variable_cluster,
    make_wheel,
    make_wire,
)
from trilin.graph import (
    Graph,
    enumerate_triangles,
    every_edge_in_unique_triangle,
    is_isomorphic,
    to_json_obj,
)
from trilin.operators import (
    is_triangle_induced,
    triangular_line_graph,
    verify_certificate,
    witness_of_operator,
)
from trilin.reduction import CnfFormula, compile_formula, parse_dimacs
from trilin.search import glue_plan, sun_units, template_solve


# ---------------------------------------------------------------------------
# Elementary shapes
# ---------------------------------------------------------------------------


def test_bowtie_shape():
    g = make_bowtie().graph
    assert g.n == 5 and len(g.edges) == 6
    assert len(enumerate_triangles(g)) == 2
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [2, 2, 2, 2, 4]


def test_fan_and_strip_counts():
    for k in (3, 4, 6):
        fan = make_fan(k).graph
        assert fan.n == k + 2 and len(fan.edges) == 2 * k + 1
        assert len(enumerate_triangles(fan)) == k
        strip = make_triangle_strip(k).graph
        assert strip.n == k + 2 and len(strip.edges) == 2 * k + 1
        assert len(enumerate_triangles(strip)) == k


def test_wheel_counts():
    for k in (4, 7, 12):
        g = make_wheel(k).graph
        assert g.n == k + 1 and len(g.edges) == 2 * k
        hub = max(range(g.n), key=g.degree)
        assert g.degree(hub) == k


def test_squared_cycle_counts():
    for k in (7, 9, 12):
        g = make_squared_cycle(k).graph
        assert g.n == k and len(g.edges) == 2 * k
        assert all(g.degree(v) == 4 for v in range(g.n))


def test_wheel_and_squared_cycle_diverge_at_seven():
    # below 7 the two templates coincide or degenerate; at 7 they differ
    assert is_isomorphic(make_wheel(6).graph, make_squared_cycle(7).graph) is False
    assert not is_isomorphic(make_wheel(7).graph, make_squared_cycle(7).graph)


def test_sun_counts_and_unique_triangles():
    for k in (4, 7, 12):
        g = make_sun(k).graph
        assert g.n == 2 * k and len(g.edges) == 3 * k
        assert every_edge_in_unique_triangle(g)
        assert len(enumerate_triangles(g)) == k


def test_small_parameter_validation():
    with pytest.raises(StructureError):
        make_sun(3)
    with pytest.raises(StructureError):
        make_wheel(2)
    with pytest.raises(StructureError):
        make_fan(2)
    with pytest.raises(StructureError):
        make_triangle_strip(2)
    with pytest.raises(StructureError):
        make_squared_cycle(4)
    with pytest.raises(StructureError):
        make_wire(-1)


# ---------------------------------------------------------------------------
# Attachment bowties and EQUAL / NOT joins
# ---------------------------------------------------------------------------


def test_designate_attachments_marks_disjoint_bowties():
    sun = designate_attachments(make_sun(7))
    names = {"root", "equal", "not"}
    assert names <= set(sun.sub_gadgets)
    tri_sets = []
    for name in names:
        sg = sun.sub(name)
        assert sg.kind == "bowtie"
        center = sg.roles["center"][0]
        t1, t2 = sg.roles["t1"], sg.roles["t2"]
        tri_sets.append(frozenset((center,) + t1))
        tri_sets.append(frozenset((center,) + t2))
    # the six triangles grabbed by the three bowties are pairwise distinct
    assert len(set(tri_sets)) == 6


def test_designate_attachments_rejects_non_7sun():
    with pytest.raises(StructureError):
        designate_attachments(make_sun(9))
    short = dataclasses.replace(make_sun(7), roles={"cycle": (0, 1), "apex": (7, 8)})
    with pytest.raises(StructureError, match="wrong arity"):
        designate_attachments(short)


def test_equal_join_shape():
    sun = designate_attachments(make_sun(7))
    joined = attach_equal(sun, "equal", sun, "root")
    g = joined.graph
    # two 14-vertex suns sharing a 5-vertex bowtie
    assert g.n == 23 and len(g.edges) == 36
    assert every_edge_in_unique_triangle(g)
    assert {"a", "b"} <= set(joined.sub_gadgets)


def test_not_join_shape():
    sun = designate_attachments(make_sun(7))
    joined = attach_not(sun, "not", sun, "root")
    g = joined.graph
    assert g.n == 23 and len(g.edges) == 36
    assert every_edge_in_unique_triangle(g)


def test_join_requires_bowtie_roles():
    sun = designate_attachments(make_sun(7))
    with pytest.raises(StructureError):
        attach_equal(sun, "cycle", sun, "root")
    # the wire's H0 exists but is a 7-sun unit
    with pytest.raises(StructureError, match="is not a bowtie"):
        attach_equal(make_wire(1), "H0", sun, "root")
    with pytest.raises(StructureError, match="unknown join mode 'XOR'"):
        gadgets._join(sun, "equal", sun, "root", "XOR", "xor_join")


# ---------------------------------------------------------------------------
# Binary-enforced suns
# ---------------------------------------------------------------------------


def test_binary_enforced_sun_shape():
    bp = make_binary_enforced_sun(12)
    g = bp.graph
    assert g.n == 84 and len(g.edges) == 144
    assert every_edge_in_unique_triangle(g)
    # twelve embedded 7-suns, each triangle-induced, plus the base sun
    embs = [name for name, sg in bp.sub_gadgets.items() if sg.kind == "sun7"]
    assert len(embs) == 12
    for name in embs:
        sg = bp.sub(name)
        assert len(sg.vertices) == 14
        assert is_triangle_induced(g, sg.vertices)
        assert is_isomorphic(
            g.__class__(14, [
                (a, b) for a, b in (
                    (sorted(sg.vertices).index(u), sorted(sg.vertices).index(v))
                    for u, v in g.sorted_edges
                    if u in sg.vertices and v in sg.vertices
                )
            ]),
            make_sun(7).graph,
        )
    assert bp.sub("sun12").kind == "sun12"
    units = sun_units(bp)
    for tri in enumerate_triangles(g):
        assert any(set(tri) <= set(sg.vertices) for _, sg in units)


def test_binary_enforced_sun_minimum_size():
    with pytest.raises(StructureError):
        make_binary_enforced_sun(8)


def test_binary_units_registry():
    bp = make_binary_enforced_sun(12)
    units = sun_units(bp)
    assert [name for name, _ in units] == sorted(
        [f"emb{i}" for i in range(12)] + ["sun12"])
    assert sorted(sg.kind for _, sg in units) == ["sun12"] + ["sun7"] * 12
    solo = designate_attachments(make_sun(7))
    assert [name for name, _ in sun_units(solo)] == ["self"]


# ---------------------------------------------------------------------------
# Wires, variable clusters and clause joins
# ---------------------------------------------------------------------------


def test_wire_shape():
    bp = make_wire(2)
    g = bp.graph
    # 3 suns of 14 vertices, two joins each merging 5 vertex pairs
    assert g.n == 3 * 14 - 2 * 5
    assert every_edge_in_unique_triangle(g)
    assert {"H0", "H1", "H2"} <= set(bp.sub_gadgets)


def test_variable_cluster_shape():
    bp = make_variable_cluster(0, 1)
    g = bp.graph
    assert every_edge_in_unique_triangle(g)
    assert {"H0", "H1", "H2", "V1", "V2"} <= set(bp.sub_gadgets)
    assert bp.meta["polarity"] == {1: "neg", 2: "pos"}
    # wire suns: 3 * 14 - 2 * 5; each tap adds an 84-vertex gadget minus a
    # 5-vertex bowtie merge
    assert g.n == (3 * 14 - 2 * 5) + 2 * (84 - 5)


def test_variable_cluster_rejects_zero_clauses():
    with pytest.raises(StructureError):
        make_variable_cluster(0, 0)


def test_large_variable_gadget_registers_chain_bowtie():
    bp = make_large_variable_gadget()
    assert bp.sub("emb0/chain").kind == "bowtie"
    with pytest.raises(StructureError, match="no sub-gadget named 'nope'"):
        make_sun(7).sub("nope")


def test_join_clause_shape():
    bp = join_clause(make_sun(12), make_sun(12), make_sun(12))
    g = bp.graph
    # 3 * 24 vertices, each of the 3 identifications merges 3 vertex pairs
    assert g.n == 72 - 9 and len(g.edges) == 108 - 9
    assert every_edge_in_unique_triangle(g)
    assert {"S1", "S2", "S3"} <= set(bp.sub_gadgets)


def test_join_clause_requires_degree_two_apex():
    # wheel lacks the attachment roles entirely
    with pytest.raises(StructureError):
        join_clause(make_wheel(12), make_sun(12), make_sun(12))
    # the a-triangle listed apex first leaves a cycle vertex (degree 4) third
    sun = make_sun(12)
    c0, c1, a0 = sun.roles["a_triangle"]
    rotated = dataclasses.replace(sun, roles={**sun.roles, "a_triangle": (a0, c0, c1)})
    with pytest.raises(StructureError, match="degree 2"):
        join_clause(rotated, make_sun(12), make_sun(12))


def test_assembly_identify_merges_labels():
    asm = Assembly()
    asm.add(make_bowtie(), "p")
    asm.add(make_bowtie(), "q")
    asm.identify(0, 5)
    bp = asm.build("pair")
    assert bp.graph.n == 9
    merged = [lab for lab in bp.graph.labels.values() if "=" in lab]
    assert len(merged) == 1 and merged[0].startswith("p/") and "q/" in merged[0]


def test_assembly_names_unlabeled_vertices_of_a_partly_labeled_part():
    tri = GadgetBlueprint(Graph(3, [(0, 1), (1, 2), (0, 2)], {0: "a"}), "tri")
    asm = Assembly()
    asm.add(tri, "p")
    assert asm.build("one").graph.labels == {0: "p/a", 1: "p/v1", 2: "p/v2"}


def test_assembly_rejects_a_label_that_repeats_a_default_name():
    # vertex 0 labeled "v1" and unlabeled vertex 1 would both be "p/v1"
    tri = GadgetBlueprint(Graph(3, [(0, 1), (1, 2), (0, 2)], {0: "v1"}), "tri")
    asm = Assembly()
    with pytest.raises(StructureError, match=r"'p'.*'v1'"):
        asm.add(tri, "p")


def test_assembly_prefixes_every_part_of_merged_labels():
    # a composite re-added under a prefix keeps its merged labels' parts
    # addressable: each part of "H0/c4=H1/c0" gets the prefix
    asm = Assembly()
    asm.add(make_wire(1), "w")
    labels = asm.build("wrapped").graph.labels.values()
    assert any("=" in lab for lab in labels)
    assert all(p.startswith("w/") for lab in labels for p in lab.split("="))


def test_add_copy_equals_replaying_the_adds_under_the_prefix():
    # a copy shifts ids and puts every path and label part, merged labels
    # ("H0/c4=H1/c0") included, under its prefix, identifications and all
    def fill(asm, prefix):
        asm.add(make_wire(1), f"{prefix}w")
        asm.add(make_bowtie(), f"{prefix}b")
        asm.bowtie_join(f"{prefix}w/H1/equal", f"{prefix}b", gadgets.EQUAL)

    part, copied, replayed = Assembly(), Assembly(), Assembly()
    fill(part, "")
    for i in range(2):
        copied.add_copy(part, f"x{i}")
        fill(replayed, f"x{i}/")
    got, want = copied.build("copies"), replayed.build("copies")
    assert got.to_json() == want.to_json()
    assert any(lab.count("=") > 1 for lab in got.graph.labels.values())
    assert dict(got.sub_gadgets) == dict(want.sub_gadgets)


def _reference_build(asm: Assembly) -> tuple[list[int], dict[int, str], list]:
    """The vertex map, labels and edges of asm's build, worked out one
    vertex at a time: the reference for Assembly.build, which works a run
    of vertices at a time between merged-away ones."""
    parent = list(range(asm._n))
    for u, v in asm._pairs:
        ru, rv = gadgets._find(parent, u), gadgets._find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    vmap: list[int] = []
    labels: dict[int, str] = {}
    for v, p in enumerate(parent):
        if p == v:
            vmap.append(len(labels))
            labels[len(labels)] = asm._labels[v]
        else:
            vmap.append(vmap[p])
    merged = {x for pair in asm._pairs for x in pair}
    parts: dict[int, set[str]] = {}
    for v, label in enumerate(asm._labels):
        if v in merged or "=" in label:
            parts.setdefault(vmap[v], set()).update(label.split("="))
    for nid, ps in parts.items():
        labels[nid] = "=".join(sorted(ps))
    edges = [(vmap[off + u], vmap[off + v])
             for off, _, part_edges in asm._parts for u, v in part_edges]
    return vmap, labels, edges


def _random_part(rng: random.Random, tag: str) -> GadgetBlueprint:
    """A small random graph, some vertices unlabeled and some labels in
    several parts ("z1=a1"), none of them a part of another label."""
    k = rng.randint(1, 6)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.3]
    labels = {}
    for v in range(k):
        roll = rng.random()
        if roll < 0.2:
            labels[v] = f"z{v}={tag}a{v}"  # parts out of order
        elif roll < 0.8:
            labels[v] = f"{tag}u{v}"
    return GadgetBlueprint(Graph(k, edges, labels), "part")


def _random_assembly(rng: random.Random) -> Assembly:
    """Random parts, built composites and unbuilt copies, joined by
    identification chains that run from later parts into earlier ones and
    the reverse."""
    asm = Assembly()
    for i in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            # two parts, one vertex of each merged: copied, or built and added
            inner = Assembly()
            inner.add(_random_part(rng, "c"), "p")
            inner.add(_random_part(rng, "d"), "q")
            inner.identify(0, inner._n - 1)
            if rng.random() < 0.5:
                asm.add_copy(inner, f"C{i}")
            else:
                asm.add(inner.build("inner"), f"B{i}")
        else:
            asm.add(_random_part(rng, "p"), f"P{i}")
        start = asm._n - 1
        for _ in range(rng.randint(0, 2)):
            chain = [rng.randrange(asm._n) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                chain = [start, *chain]
            for u, v in zip(chain, chain[1:]):
                asm.identify(u, v)
    return asm


def test_build_matches_the_per_vertex_reference():
    rng = random.Random(20241019)
    built = 0
    for _ in range(400):
        asm = _random_assembly(rng)
        vmap, labels, edges = _reference_build(asm)
        try:
            want = Graph(len(labels), edges, labels)
        except GraphConstructionError as exc:  # a merge made a loop or a repeated label
            with pytest.raises(GraphConstructionError, match=f"^{re.escape(str(exc))}$"):
                asm.build("random")
            continue
        bp = asm.build("random")
        built += 1
        assert bp.sub_gadgets._vmap == vmap
        assert list(bp.graph.labels.items()) == list(labels.items())
        assert bp.graph.edges == want.edges
        assert bp.graph.sorted_edges == tuple(sorted(want.edges))
    assert built > 150


# ---------------------------------------------------------------------------
# A built blueprint's registry, translated on first read
# ---------------------------------------------------------------------------


def _count_translations(monkeypatch) -> list:
    calls = []
    translate = gadgets._Registry._translate
    monkeypatch.setattr(gadgets._Registry, "_translate",
                        lambda self, off, sg: calls.append(1) or translate(self, off, sg))
    return calls


def test_registry_equals_an_eager_translation():
    # translate every entry independently: union vertex -> its label part ->
    # the built vertex whose label holds that part
    asm = Assembly()
    asm.add_copy(gadgets._cluster_assembly(1, 12), "x")
    parts = list(asm._labels)
    names = list(asm._subs)
    shifted = {name: asm.sub(name) for name in names}
    bp = asm.build("cluster")
    new_id = {p: v for v, lab in bp.graph.labels.items() for p in lab.split("=")}
    tr = lambda t: tuple(new_id[parts[x]] for x in t)
    assert list(bp.sub_gadgets) == names
    for name, sg in shifted.items():
        assert bp.sub_gadgets[name] == gadgets.SubGadget(
            sg.kind, tuple(sorted(set(tr(sg.vertices)))),
            {k: tr(v) for k, v in sg.roles.items()}), name
    assert bp.sub_gadgets == {name: bp.sub(name) for name in names}


def test_built_blueprint_ignores_later_assembly_changes():
    def assembly():
        asm = Assembly()
        asm.add(make_wire(1), "w")
        return asm

    asm = assembly()
    bp = asm.build("wrapped")
    asm.add(make_bowtie(), "z")
    asm.identify(0, bp.graph.n)
    asm.build("grown")
    assert "z" not in bp.sub_gadgets
    assert bp.to_json() == assembly().build("wrapped").to_json()


def test_equal_join_of_two_built_wires():
    # Assembly.add reads the registry of a built blueprint
    wire = make_wire(1)
    bp = attach_equal(wire, "H1/equal", wire, "H0/equal")
    assert bp.graph.n == 2 * wire.graph.n - 5
    assert bp.sub("a/H1/equal").roles["center"] == bp.sub("b/H0/equal").roles["center"]
    for name in ("H0", "H1", "H0/root", "H1/not"):
        assert bp.sub(f"a/{name}") == wire.sub(name)
    for name in ("b/H0", "b/H1"):
        assert len(bp.sub(name).vertices) == 14
        assert is_triangle_induced(bp.graph, bp.sub(name).vertices)
    assert every_edge_in_unique_triangle(bp.graph)


def test_compile_and_check_translate_no_sub_gadget(monkeypatch):
    # compiling, computing T(G) and verifying it never read the registry
    calls = _count_translations(monkeypatch)
    r = compile_formula(parse_dimacs("p cnf 4 2\n1 2 3 0\n-2 3 -4 0\n"))
    assert verify_certificate(witness_of_operator(triangular_line_graph(r.blueprint.graph)))
    assert calls == [] and len(r.blueprint.sub_gadgets) > 0


def test_to_json_then_template_solve_translates_each_entry_once(monkeypatch):
    # the JSON translates nothing, and the solver reads only the 3 units
    # H0..H2 of the 12 entries, each once
    calls = _count_translations(monkeypatch)
    bp = make_wire(2)
    bp.to_json()
    assert template_solve(bp)
    assert len(calls) == 3 and len(bp.sub_gadgets) == 12


def test_glue_plan_translates_only_the_units(monkeypatch):
    # 928 entries, of which the 4 x (7 wire suns + 6 taps x 17) = 436
    # units are the only ones read
    r = compile_formula(parse_dimacs("p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n"), 16)
    calls = _count_translations(monkeypatch)
    plan = glue_plan(r.blueprint)
    assert len(r.blueprint.sub_gadgets) == 928
    assert len(plan.names) == len(calls) == 436


# ---------------------------------------------------------------------------
# A blueprint's JSON text against a reference built from its read entries
# ---------------------------------------------------------------------------


def _reference_json(bp: GadgetBlueprint) -> str:
    # json.dumps of every entry as the registry gives it when read: a built
    # registry's vertices come sorted, a plain dict's in stored order
    roles = lambda r: {k: list(v) for k, v in sorted(r.items())}
    subs = bp.sub_gadgets
    return json.dumps({
        "graph": to_json_obj(bp.graph),
        "kind": bp.kind,
        "roles": roles(bp.roles),
        "sub_gadgets": {name: {"kind": subs[name].kind, "vertices": list(subs[name].vertices),
                               "roles": roles(subs[name].roles)}
                        for name in sorted(subs)},
        "meta": bp.meta,
    }, separators=(",", ":"))


def _assert_matches_reference(bp: GadgetBlueprint) -> None:
    # written first, so the text owes nothing to entries the reference reads
    text = bp.to_json()
    assert text == _reference_json(bp)
    assert bp.to_json_obj() == json.loads(text)


_SEVEN = designate_attachments(make_sun(7))


@pytest.mark.parametrize("build", [
    make_bowtie, lambda: make_fan(4), lambda: make_triangle_strip(5),
    lambda: make_wheel(6), lambda: make_squared_cycle(7), lambda: make_sun(7),
    lambda: make_sun(12), lambda: _SEVEN, lambda: make_binary_enforced_sun(12),
    lambda: make_binary_enforced_sun(16), make_large_variable_gadget,
    *(lambda k=k: make_wire(k) for k in range(5)),
    lambda: attach_equal(_SEVEN, "equal", _SEVEN, "root"),
    lambda: attach_not(_SEVEN, "not", _SEVEN, "root"),
    lambda: join_clause(make_sun(12), make_sun(12), make_sun(12)),
    lambda: join_clause(*[make_large_variable_gadget(13)] * 3),
    lambda: make_variable_cluster(0, 1), lambda: make_variable_cluster(3, 2, 13),
], ids=["bowtie", "fan", "strip", "wheel", "squared_cycle", "sun7", "sun12",
        "designated_sun7", "binary_sun12", "binary_sun16", "large_variable",
        *(f"wire{k}" for k in range(5)), "equal_join", "not_join", "clause",
        "clause_large13", "cluster", "cluster13"])
def test_blueprint_json_matches_the_reference(build):
    _assert_matches_reference(build())


@pytest.mark.parametrize("enforce", [12, 13, 16])
@pytest.mark.parametrize("dimacs", [
    "p cnf 3 1\n1 2 3 0\n",
    "p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n",
    "p cnf 5 2\n1 -3 5 0\n-2 3 4 0\n",
], ids=["one_clause", "three_clauses", "five_vars"])
def test_compiled_json_matches_the_reference(dimacs, enforce):
    _assert_matches_reference(compile_formula(parse_dimacs(dimacs), enforce).blueprint)


@st.composite
def formulas(draw):
    n = draw(st.integers(3, 6))
    clause = st.tuples(st.permutations(range(n)), st.tuples(*[st.booleans()] * 3))
    clauses = draw(st.lists(clause, min_size=1, max_size=3))
    return CnfFormula(n, tuple(tuple(zip(perm[:3], signs)) for perm, signs in clauses))


@settings(max_examples=25, deadline=None, database=None)
@given(formulas(), st.sampled_from([12, 13, 16]))
def test_drawn_compiled_json_matches_the_reference(formula, enforce):
    _assert_matches_reference(compile_formula(formula, enforce).blueprint)


def test_registry_text_escapes_names_and_kinds_and_keeps_odd_roles():
    odd = 'q"\\\x01\t\u00e9\u2603'
    part = GadgetBlueprint(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), f"kind{odd}",
                           {"one": (2,), "none": (), "back": (3, 1, 0), f"r{odd}": (0, 2)})
    asm = Assembly()
    asm.add(part, f"p{odd}")
    asm.add(part, "plain")
    asm.add(GadgetBlueprint(Graph(0, []), "nothing"), "z")
    asm.identify(0, 5)
    asm.identify(4, 7)  # two vertices of one entry become one
    bp = asm.build("odd")
    _assert_matches_reference(bp)
    text = bp.to_json()
    assert text.isascii() and "\\u2603" in text and "\\u0001" in text
    plain = json.loads(text)["sub_gadgets"]["plain"]
    assert plain == {"kind": f"kind{odd}", "vertices": [0, 4, 5],
                     "roles": {"back": [4, 0, 4], "none": [], "one": [5], f"r{odd}": [4, 5]}}
    assert json.loads(text)["sub_gadgets"]["z"] == {"kind": "nothing", "vertices": [], "roles": {}}


def test_empty_assembly_writes_an_empty_registry():
    bp = Assembly().build("empty")
    _assert_matches_reference(bp)
    assert '"sub_gadgets":{}' in bp.to_json()


def test_plain_registry_keeps_stored_vertex_order():
    root = _SEVEN.sub("root").vertices
    assert list(root) != sorted(root)
    assert json.loads(_SEVEN.to_json())["sub_gadgets"]["root"]["vertices"] == list(root)
