from __future__ import annotations

import itertools
import re
import subprocess
import sys

import pytest

from trilin.errors import (
    CertificateError,
    ParseError,
    StructureError,
    UnsatisfyingAssignmentError,
)
from trilin import reduction
from trilin.gadgets import Assembly
from trilin.graph import every_edge_in_unique_triangle
from trilin.operators import verify_certificate
from trilin.reduction import (
    CnfFormula,
    assignment_from_witness,
    compile_formula,
    decide,
    parse_dimacs,
    satisfies,
    violated_clause,
    witness_from_assignment,
)
from trilin.search import SearchLimits, template_solve

from test_acceptance import build_corpus

SINGLE = "p cnf 3 1\n1 2 3 0\n"


def brute_sat(f: CnfFormula):
    for bits in itertools.product((False, True), repeat=f.variable_count):
        if satisfies(f, bits):
            return bits
    return None


# ---------------------------------------------------------------------------
# DIMACS parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert f.variable_count == 3
    assert f.clauses == (
        ((0, True), (1, False), (2, True)),
        ((0, False), (1, True), (2, False)),
    )


def test_parse_clause_spanning_lines():
    f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert len(f.clauses) == 1


@pytest.mark.parametrize("text", [
    "1 2 3 0\n",                       # clause before header
    "p cnf 3 2\n1 2 3 0\n",            # clause count mismatch
    "p cnf 3 1\n1 2 3\n",              # missing terminator
    "p cnf 3 1\n1 2 4 0\n",            # variable out of range
    "p cnf 3 1\n1 2 0\n",              # not exactly three literals
    "p cnf 3 1\n1 -1 2 0\n",           # repeated variable
    "p dnf 3 1\n1 2 3 0\n",            # wrong format tag
    "p cnf 3 1\np cnf 3 1\n1 2 3 0\n",  # duplicate header
    "p cnf 3 1\nx y z 0\n",            # junk literal
    "p cnf -2 0\n",                     # negative variable count
    "p cnf x 1\n",                      # non-integer variable count
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_dimacs(text)


def test_violated_clause_reports_first():
    f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    assert violated_clause(f, (False, False, False)) == 1
    assert violated_clause(f, (True, True, True)) == 2
    assert violated_clause(f, (True, False, False)) is None
    with pytest.raises(StructureError, match="length mismatch"):
        violated_clause(f, (True,))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def test_compile_single_clause():
    r = compile_formula(parse_dimacs(SINGLE))
    g = r.blueprint.graph
    assert g.n == 561 and len(g.edges) == 972
    assert every_edge_in_unique_triangle(g)
    assert r.variable_roots == {0: "x1/H0", 1: "x2/H0", 2: "x3/H0"}
    # positive literals of clause 1 tap index 2
    assert r.clause_legs == {1: ("x1/V2", "x2/V2", "x3/V2")}


def test_compile_uses_negative_taps():
    r = compile_formula(parse_dimacs("p cnf 3 1\n-1 2 -3 0\n"))
    assert r.clause_legs[1] == ("x1/V1", "x2/V2", "x3/V1")


def test_compile_is_deterministic():
    a = compile_formula(parse_dimacs(SINGLE)).blueprint.to_json()
    b = compile_formula(parse_dimacs(SINGLE)).blueprint.to_json()
    assert a == b


def test_compiled_labels_carry_full_paths():
    # merged vertices join the labels of all their parts with "=", and each
    # part keeps its variable's prefix
    r = compile_formula(parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"))
    labels = r.blueprint.graph.labels.values()
    assert any("=" in lab for lab in labels)
    for lab in labels:
        assert all(re.match(r"x[123]/[HV]\d+/", p) for p in lab.split("=")), lab


def test_compile_builds_one_assembly(monkeypatch):
    # the clusters go into the formula's Assembly directly: no variable
    # cluster is built as a blueprint and added again
    calls = []
    build = Assembly.build
    monkeypatch.setattr(Assembly, "build",
                        lambda self, *a, **kw: calls.append(1) or build(self, *a, **kw))
    r = compile_formula(parse_dimacs("p cnf 4 2\n1 2 3 0\n-2 3 -4 0\n"))
    assert len(calls) == 1
    assert not any(re.fullmatch(r"x\d+", name) for name in r.blueprint.sub_gadgets)


def test_compile_builds_one_enforced_sun_per_variable(monkeypatch):
    # every tap of a cluster adds the same large variable gadget
    import trilin.gadgets as gadgets

    calls = []
    make = gadgets.make_binary_enforced_sun
    monkeypatch.setattr(gadgets, "make_binary_enforced_sun",
                        lambda k: calls.append(k) or make(k))
    compile_formula(parse_dimacs("p cnf 4 2\n1 2 3 0\n-2 3 -4 0\n"))
    assert calls == [12] * 4


def test_compile_rejects_empty_formula():
    with pytest.raises(StructureError):
        compile_formula(CnfFormula(3, ()))
    # below 12 the enforced sun has no clause-attachment triangles
    with pytest.raises(StructureError, match="'x1/V2' lacks clause-attachment roles"):
        compile_formula(parse_dimacs(SINGLE), enforce=11)
    # decide refuses them too, although its tap check fails below 12
    with pytest.raises(StructureError, match="formula has no clauses"):
        decide(CnfFormula(3, ()))
    with pytest.raises(StructureError, match="clause-attachment triangles, got 11"):
        decide(parse_dimacs(SINGLE), enforce=11)


def test_compile_two_clauses_grows_wire():
    r = compile_formula(parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"))
    g = r.blueprint.graph
    assert every_edge_in_unique_triangle(g)
    # m = 2: five wire suns and four taps per variable
    assert "x1/H4" in r.blueprint.sub_gadgets
    assert "x1/V4" in r.blueprint.sub_gadgets
    assert r.clause_legs[2] == ("x1/V3", "x2/V3", "x3/V3")


# ---------------------------------------------------------------------------
# Witness construction and the decision wrapper
# ---------------------------------------------------------------------------


def test_witness_rejects_unsatisfying_assignment():
    r = compile_formula(parse_dimacs(SINGLE))
    with pytest.raises(UnsatisfyingAssignmentError) as exc:
        witness_from_assignment(r, (False, False, False))
    assert exc.value.clause_index == 1


def test_witness_reports_missing_cycle_preimage():
    # the enforced 12-sun admits no squared-cycle-side preimage, so the
    # pins prescribed by any satisfying assignment cannot materialize
    r = compile_formula(parse_dimacs(SINGLE))
    with pytest.raises(CertificateError) as exc:
        witness_from_assignment(r, (True, False, False))
    assert "sun12" in str(exc.value)


def test_witness_names_the_first_cycle_tap_by_path():
    # the squared-cycle taps in sorted path order: x1/V10 precedes x1/V2
    prefix = ("no preimage realizes the prescribed choices: the enforced "
              "12-sun has no squared-cycle-side preimage, required at ")
    for text, rest in ((SINGLE, "x1/V2/sun12 (and 2 more)"),
                       ("p cnf 3 5\n" + "1 2 3 0\n" * 5,
                        "x1/V10/sun12 (and 14 more)")):
        r = compile_formula(parse_dimacs(text))
        with pytest.raises(CertificateError) as exc:
            witness_from_assignment(r, (True, False, False))
        assert str(exc.value) == prefix + rest


def test_witness_at_sound_size_round_trips():
    f = parse_dimacs(SINGLE)
    r = compile_formula(f, enforce=16)
    assert r.enforce == 16 and "x1/V2/sun16" in r.blueprint.sub_gadgets
    w = witness_from_assignment(r, (True, False, False))
    assert verify_certificate(w)
    assert assignment_from_witness(r, w) == (True, False, False)


def test_assignment_from_witness_verifies_the_whole_witness_once(monkeypatch):
    # one check of the whole witness, then one per variable's restriction
    import trilin.operators as operators
    import trilin.reduction as reduction

    r = compile_formula(parse_dimacs("p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n"),
                        enforce=16)
    w = witness_from_assignment(r, (False, False, False, True))
    sizes = []
    verify = operators.verify_certificate
    counting = lambda w: sizes.append(w.target.n) or verify(w)
    monkeypatch.setattr(operators, "verify_certificate", counting)
    monkeypatch.setattr(reduction, "verify_certificate", counting)
    assert assignment_from_witness(r, w) == (False, False, False, True)
    assert sizes == [w.target.n] + [14] * 4


def test_assignment_from_witness_rejects_a_witness_of_another_graph():
    r = compile_formula(parse_dimacs(SINGLE), enforce=16)
    w = witness_from_assignment(r, (True, False, False))
    other = compile_formula(parse_dimacs("p cnf 3 1\n-1 2 3 0\n"), enforce=16)
    with pytest.raises(CertificateError, match="^witness does not certify the compiled graph$"):
        assignment_from_witness(other, type(w)(other.blueprint.graph, w.candidate,
                                               w.edge_to_vertex))


def test_decide_reports_unsat_for_contradiction():
    text = "p cnf 3 8\n" + "".join(
        f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0\n"
        for a, b, c in itertools.product((False, True), repeat=3))
    res = decide(parse_dimacs(text))
    assert res.status == "UNSAT"
    assert res.assignment is None and res.witness is None


def test_decide_matches_truth_table_status_on_unsat():
    f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    assert brute_sat(f) is not None
    # at the default enforcement size 12 the cycle-side collapse makes
    # every materialization fail, so the decision procedure reports UNSAT
    # even for satisfiable formulas; at size 16 it agrees with the truth
    # table (acceptance criterion 8)
    res = decide(f)
    assert res.status in ("SAT", "UNSAT")


def test_decide_guard_on_variable_count():
    f = CnfFormula(21, (((0, True), (1, True), (2, True)),))
    with pytest.raises(StructureError):
        decide(f)
    with pytest.raises(StructureError):
        decide(parse_dimacs(SINGLE), max_vars=2)


def test_decide_budget_reports_unknown():
    res = decide(parse_dimacs(SINGLE), limits=SearchLimits(node_budget=1))
    assert res.status == "UNKNOWN"
    assert "budget" in res.reason.lower()


def test_decide_budget_holds_across_assignments():
    # at size 13 the tap check takes 27 nodes and each of the 7 satisfying
    # assignments fails to glue after 46-48 more; one budget for the whole
    # decision runs out in the first glue
    res = decide(parse_dimacs(SINGLE), SearchLimits(node_budget=48), enforce=13)
    assert res.status == "UNKNOWN"
    assert "budget" in res.reason.lower()


@pytest.mark.parametrize("enforce, status, assignment, failures", [
    (13, "UNSAT", None, 7),
    (14, "SAT", (True, True, True), 6),
])
def test_decide_tries_the_next_assignment_after_a_failed_glue(
        monkeypatch, enforce, status, assignment, failures):
    # at 13 all 7 satisfying assignments fail to glue; at 14 the first 6 do
    # and (1, 1, 1), the last in lexicographic order, glues
    failed = []
    glue = reduction.glue_templates

    def counting_glue(*args):
        try:
            return glue(*args)
        except CertificateError:
            failed.append(args)
            raise

    monkeypatch.setattr(reduction, "glue_templates", counting_glue)
    res = decide(parse_dimacs(SINGLE), enforce=enforce)
    assert (res.status, res.assignment) == (status, assignment)
    assert len(failed) == failures


def test_decide_tap_check_ticks_the_decision_budget():
    # a fresh interpreter, so a tap check cached by an earlier call cannot
    # hide ticks; the enforced 16-sun's check needs 33 nodes, so a budget
    # of 5 stops it
    script = (
        "from trilin import search\n"
        "from trilin.reduction import decide, parse_dimacs\n"
        "ticks = []\n"
        "tick = search._Budget.tick\n"
        "search._Budget.tick = lambda self: (ticks.append(1), tick(self))\n"
        "res = decide(parse_dimacs('p cnf 3 1\\n1 2 3 0\\n'),\n"
        "             search.SearchLimits(node_budget=5), enforce=16)\n"
        "print(res.status, len(ticks))\n")
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    status, ticks = res.stdout.split()
    assert status == "UNKNOWN" and int(ticks) <= 6


def test_decide_skips_the_loop_when_no_tap_materializes(monkeypatch):
    # at size 12 no assignment can glue, so the formula is never compiled,
    # the 2^20 assignments are never enumerated, and a small budget still
    # reaches a verdict
    compiled = []
    monkeypatch.setattr(reduction, "compile_formula", lambda *a: compiled.append(a))
    f = CnfFormula(20, (((0, True), (1, True), (2, True)),))
    assert decide(f, SearchLimits(node_budget=10_000)).status == "UNSAT"
    assert compiled == []


UNSAT8 = "p cnf 3 8\n" + "".join(
    f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0\n"
    for a, b, c in itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("text,enforce", [
    (SINGLE, 16), (SINGLE, 12), (UNSAT8, 16), (UNSAT8, 12),
    # formulas of the acceptance corpus
    ("p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n", 16),
    ("p cnf 4 2\n-1 -2 3 0\n1 -3 -4 0\n", 16),
    ("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n", 16),
    ("p cnf 4 2\n-1 -2 -4 0\n-2 -3 -4 0\n", 16),
])
def test_compiled_graph_preimage_decodes_to_the_truth_table(text, enforce):
    # the reverse direction of the reduction theorem: a preimage found by
    # searching the compiled graph, nothing pinned, encodes a satisfying
    # assignment; at size 12 the collapse leaves no preimage at all
    f = parse_dimacs(text)
    r = compile_formula(f, enforce)
    found = template_solve(r.blueprint, max_results=1)
    assert len(found) == (enforce == 16 and brute_sat(f) is not None)
    for a in found:
        assert satisfies(f, assignment_from_witness(r, a.witness))


@pytest.mark.parametrize("formulas", [
    [parse_dimacs(SINGLE)],
    [parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")],
    [parse_dimacs("p cnf 4 2\n-1 -2 3 0\n1 -3 -4 0\n")],
    pytest.param(build_corpus(), marks=pytest.mark.slow),
], ids=["single", "3x2", "4x2", "corpus"])
def test_vectors_decode_one_to_one_onto_satisfying_assignments(formulas):
    # at size 16 the reduction is parsimonious on vectors: the full
    # enumeration has one vector per satisfying assignment, each decoding
    # to its assignment and pinning exactly what that assignment prescribes
    for f in formulas:
        r = compile_formula(f, 16)
        decoded = []
        for a in template_solve(r.blueprint):
            bits = assignment_from_witness(r, a.witness)
            assert a.choices == reduction._pins(r, bits)
            decoded.append(bits)
        assert sorted(decoded) == [
            bits for bits in itertools.product((False, True), repeat=f.variable_count)
            if satisfies(f, bits)]
