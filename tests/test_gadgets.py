from __future__ import annotations

import dataclasses

import pytest

import trilin.gadgets as gadgets
from trilin.errors import ParseError, StructureError
from trilin.gadgets import (
    Assembly,
    GadgetBlueprint,
    attach_equal,
    attach_not,
    designate_attachments,
    join_clause,
    make_binary_enforced_sun,
    make_bowtie,
    make_double_triangle,
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
)
from trilin.operators import (
    is_triangle_induced,
    triangular_line_graph,
    verify_certificate,
    witness_of_operator,
)
from trilin.reduction import compile_formula, parse_dimacs
from trilin.search import sun_units, template_solve


# ---------------------------------------------------------------------------
# Elementary shapes
# ---------------------------------------------------------------------------


def test_bowtie_shape():
    g = make_bowtie().graph
    assert g.n == 5 and len(g.edges) == 6
    assert len(enumerate_triangles(g)) == 2
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [2, 2, 2, 2, 4]


def test_double_triangle_is_k4_minus_edge():
    g = make_double_triangle().graph
    assert g.n == 4 and len(g.edges) == 5
    assert is_isomorphic(triangular_line_graph(g).derived, make_bowtie().graph)


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


def test_blueprint_json_round_trip():
    bp = designate_attachments(make_sun(7))
    back = GadgetBlueprint.from_json_obj(bp.to_json_obj())
    assert back.graph == bp.graph
    assert back.kind == bp.kind
    assert set(back.sub_gadgets) == set(bp.sub_gadgets)
    assert back.sub("root").roles == bp.sub("root").roles


TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("obj", [
    {"graph": TRIANGLE, "sub_gadgets": []},
    {"graph": TRIANGLE, "roles": []},
    {"graph": TRIANGLE, "sub_gadgets": {"s": {"kind": "t", "vertices": [0, 9], "roles": {}}}},
    {"graph": TRIANGLE, "roles": {"cycle": "ab"}},
    {"graph": TRIANGLE, "meta": 5},
    # vertex 0 named "v1" collides with the default name of unlabeled vertex 1
    {"graph": {**TRIANGLE, "labels": {"0": "v1"}}},
], ids=["sub_gadgets_list", "roles_list", "vertex_out_of_range", "role_string",
        "meta_int", "label_repeats_default_name"])
def test_blueprint_json_rejects_malformed_fields(obj):
    with pytest.raises(ParseError):
        GadgetBlueprint.from_json_obj(obj)


def test_blueprint_json_accepts_partial_labels():
    bp = GadgetBlueprint.from_json_obj({"graph": {**TRIANGLE, "labels": {"0": "a"}}})
    assert bp.graph.labels == {0: "a"}


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
    bp = make_large_variable_gadget(0, 1)
    assert bp.sub("emb0/chain").kind == "bowtie"


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
    gadgets._add_cluster(asm, "x/", 0, 1, 12)
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
    calls = _count_translations(monkeypatch)
    bp = make_wire(2)
    bp.to_json()
    assert template_solve(bp)
    assert len(calls) == len(bp.sub_gadgets)
