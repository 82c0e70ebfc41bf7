from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from trilin.errors import (
    BudgetExceededError,
    CertificateError,
    GlueError,
    ParseError,
    StructureError,
    UnsatisfyingAssignmentError,
)
from trilin import reduction, search
from trilin.gadgets import (
    EQUAL,
    NOT,
    Assembly,
    _clause_pairs,
    designate_attachments,
    make_binary_enforced_sun,
    make_large_variable_gadget,
    make_sun,
)
from trilin.graph import every_edge_in_unique_triangle
from trilin.operators import restrict_preimage, verify_certificate
from trilin.reduction import (
    CnfFormula,
    _tap_index,
    assignment_from_witness,
    compile_formula,
    decide,
    parse_dimacs,
    satisfies,
    violated_clause,
    witness_from_assignment,
)
from trilin.search import SQUARED_CYCLE, WHEEL, SearchLimits, _Budget, template_solve

from test_acceptance import build_corpus

SINGLE = "p cnf 3 1\n1 2 3 0\n"
# every sign pattern of three variables: the smallest 3-CNF UNSAT
ALL_EIGHT = "p cnf 3 8\n" + "".join(
    f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0\n"
    for a, b, c in itertools.product((False, True), repeat=3))


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


def test_compile_builds_one_enforced_sun_per_formula(monkeypatch):
    # every tap of a cluster adds the same large variable gadget, and every
    # variable gets a copy of the same unbuilt cluster
    import trilin.gadgets as gadgets

    calls = []
    make = gadgets.make_binary_enforced_sun
    monkeypatch.setattr(gadgets, "make_binary_enforced_sun",
                        lambda k: calls.append(k) or make(k))
    compile_formula(parse_dimacs("p cnf 4 2\n1 2 3 0\n-2 3 -4 0\n"))
    assert calls == [12]
    calls.clear()
    gadgets.make_variable_cluster(0, 2, 13)
    assert calls == [13]


def _compile_per_variable(formula, enforce):
    """The compiled blueprint built the long way: each variable's cluster
    replayed into the formula's Assembly under its prefix, its suns and tap
    added and joined anew (the construction compile_formula copies)."""
    m = len(formula.clauses)
    sun = designate_attachments(make_sun(7))
    asm = Assembly()
    for i in range(formula.variable_count):
        x = f"x{i + 1}/"
        for j in range(2 * m + 1):
            asm.add(sun, f"{x}H{j}")
            if j:
                asm.bowtie_join(f"{x}H{j - 1}/not", f"{x}H{j}/root", NOT)
        tap = make_large_variable_gadget(enforce)
        for j in range(1, 2 * m + 1):
            asm.add(tap, f"{x}V{j}")
            asm.bowtie_join(f"{x}H{j}/equal", f"{x}V{j}/emb0/chain", EQUAL)
    for j, clause in enumerate(formula.clauses, start=1):
        _clause_pairs(asm, [f"x{v + 1}/V{_tap_index(j, pos)}" for v, pos in clause])
    return asm.build("reduction", meta={"variables": formula.variable_count,
                                        "clauses": m})


def _seeded_formulas(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(3, 6), rng.randint(1, 5)
        yield CnfFormula(n, tuple(
            tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), 3))
            for _ in range(m)))


@pytest.mark.parametrize("enforce", [12, 13, 16])
def test_copied_clusters_equal_the_per_variable_construction(enforce):
    # compile_formula copies one unbuilt cluster per variable; the blueprint
    # must be the one the per-variable replay builds, byte for byte, with
    # the same labeled graph and the same sub-gadget under every name
    for formula in _seeded_formulas(enforce, 3):
        got = compile_formula(formula, enforce).blueprint
        want = _compile_per_variable(formula, enforce)
        assert got.to_json() == want.to_json()
        assert got.graph == want.graph and got.graph.labels == want.graph.labels
        assert list(got.sub_gadgets) == list(want.sub_gadgets)
        for name in want.sub_gadgets:
            assert got.sub(name) == want.sub(name), name


def test_compile_rejects_empty_formula():
    with pytest.raises(StructureError):
        compile_formula(CnfFormula(3, ()))
    # below 12 the enforced sun has no clause-attachment triangles
    with pytest.raises(StructureError, match="clause-attachment triangles, got 11"):
        compile_formula(parse_dimacs(SINGLE), enforce=11)
    # decide refuses them too, with the same message, before its tap check
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


def test_witness_names_two_target_vertices_on_one_edge_before_a_triangle():
    # at 14, (1, 1, 0)'s pins for "1 2 3" fail at a union of two classes
    # that share a neighbour under two labels.  The union reports that, and
    # checks no triangle on the shared neighbour: the triangle was there
    # before, and testing it against the absorbing class's label would
    # report "a triangle the target lacks" first
    r = compile_formula(parse_dimacs(SINGLE), enforce=14)
    with pytest.raises(GlueError) as exc:
        witness_from_assignment(r, (True, True, False))
    assert exc.value.failure == ("gluing the WHEEL template of x3/V2/sun14 makes "
                                 "two target vertices on one edge")


@pytest.mark.parametrize("enforce", [17, 18])
def test_decide_at_17_and_18_agrees_with_the_truth_table(enforce):
    # each SAT answer's witness decodes to a satisfying assignment, and each
    # UNSAT answer is an exhausted glue search of the compiled graph
    for text in (SINGLE, "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n", ALL_EIGHT):
        f = parse_dimacs(text)
        res = decide(f, enforce=enforce)
        assert res.status == ("UNSAT" if brute_sat(f) is None else "SAT"), text
        if res.status == "SAT":
            r = compile_formula(f, enforce)
            assert assignment_from_witness(r, res.witness) == res.assignment
            assert satisfies(f, res.assignment)


@pytest.mark.slow
@pytest.mark.parametrize("enforce", [17, 18])
def test_decide_at_17_and_18_agrees_with_the_truth_table_on_the_corpus(enforce):
    # both directions on the acceptance corpus, as criterion 8 checks at 16
    for f in build_corpus():
        res = decide(f, enforce=enforce)
        assert res.status == ("UNSAT" if brute_sat(f) is None else "SAT"), f
        if res.status == "SAT":
            assert satisfies(f, res.assignment)


def test_assignment_from_witness_verifies_the_whole_witness_once(monkeypatch):
    # one check of the whole witness and no restriction of it; a warm SAT
    # decide verifies its glue's witness and decodes it without a second check
    import trilin.operators as operators

    f = parse_dimacs("p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n")
    r = compile_formula(f, enforce=16)
    w = witness_from_assignment(r, (False, False, False, True))  # warms the tap
    sizes = []
    verify = operators.verify_certificate
    counting = lambda w: sizes.append(w.target.n) or verify(w)
    for module in (operators, reduction, search):
        monkeypatch.setattr(module, "verify_certificate", counting)
    assert assignment_from_witness(r, w) == (False, False, False, True)
    assert sizes == [w.target.n] == [2813]
    sizes.clear()
    assert decide(f, enforce=16).status == "SAT"
    assert sizes == [2813]


@pytest.mark.parametrize("text,bits", [
    ("p cnf 4 1\n1 2 4 0\n", (False, True, False, False)),
    ("p cnf 3 2\n-1 2 3 0\n1 -2 3 0\n", (False, False, False)),
], ids=["4x1", "3x2"])
def test_assignment_from_witness_refuses_a_verified_witness_of_another_graph(text, bits):
    # each witness verifies against its own compiled graph, not the graph
    # of "1 2 3" it is read against, so the target check refuses it before
    # any root is read (unchecked, the first reads as (False, True, False))
    w = witness_from_assignment(compile_formula(parse_dimacs(text), enforce=16), bits)
    assert verify_certificate(w)
    r = compile_formula(parse_dimacs(SINGLE), enforce=16)
    with pytest.raises(CertificateError, match="^witness does not certify the compiled graph$"):
        assignment_from_witness(r, w)


def test_assignment_from_witness_rejects_a_witness_of_another_graph():
    r = compile_formula(parse_dimacs(SINGLE), enforce=16)
    w = witness_from_assignment(r, (True, False, False))
    other = compile_formula(parse_dimacs("p cnf 3 1\n-1 2 3 0\n"), enforce=16)
    with pytest.raises(CertificateError, match="^witness does not certify the compiled graph$"):
        assignment_from_witness(other, type(w)(other.blueprint.graph, w.candidate,
                                               w.edge_to_vertex))


def test_assignment_from_witness_checks_the_clauses_it_reads():
    # a witness of "1 2 3" for (1, 0, 0) read against "-1 2 3": the graph
    # is the same, so the witness and each root's restriction verify, and
    # only the clause check refuses the assignment read back
    r = compile_formula(parse_dimacs(SINGLE), enforce=16)
    w = witness_from_assignment(r, (True, False, False))
    other = dataclasses.replace(r, formula=parse_dimacs("p cnf 3 1\n-1 2 3 0\n"))
    with pytest.raises(CertificateError, match="^extracted assignment violates clause 1$"):
        assignment_from_witness(other, w)


def test_decide_reports_unsat_for_contradiction():
    res = decide(parse_dimacs(ALL_EIGHT))
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


def test_decide_budget_reports_unknown():
    res = decide(parse_dimacs(SINGLE), limits=SearchLimits(node_budget=1))
    assert res.status == "UNKNOWN"
    assert "budget" in res.reason.lower()


def test_decide_refuses_a_nan_budget():
    with pytest.raises(StructureError, match="^time_budget must be non-negative, got nan$"):
        decide(parse_dimacs(SINGLE), SearchLimits(time_budget=float("nan")))


def test_decide_budget_holds_across_assignments():
    # at size 13 the tap check takes 14 nodes and the glue search of the
    # compiled graph 246 more; one budget for the whole decision runs out
    # in that search
    res = decide(parse_dimacs(SINGLE), SearchLimits(node_budget=48), enforce=13)
    assert res.status == "UNKNOWN"
    assert "budget" in res.reason.lower()


def _assignment_route(r) -> tuple:
    """The reference decide no longer takes: glue each satisfying
    assignment's prescribed pins, in lexicographic order, until one glues.
    Returns that assignment or None, and the number of failed glues."""
    failed = 0
    for bits in itertools.product((False, True), repeat=r.formula.variable_count):
        if satisfies(r.formula, bits):
            try:
                witness_from_assignment(r, bits)
                return bits, failed
            except CertificateError:
                failed += 1
    return None, failed


@pytest.mark.parametrize("enforce, status, assignment, failures", [
    (13, "UNSAT", None, 7),
    (14, "SAT", (True, True, True), 6),
])
def test_decide_tries_the_next_assignment_after_a_failed_glue(
        monkeypatch, enforce, status, assignment, failures):
    # decide searches the compiled graph with nothing pinned, so its only
    # glue_templates call is the tap check's; the assignment route reaches
    # the same answer: at 13 all 7 satisfying assignments fail to glue, at
    # 14 the first 6 do and (1, 1, 1), the last in lexicographic order, glues
    f = parse_dimacs(SINGLE)
    calls = _capture_glues(monkeypatch)
    res = decide(f, enforce=enforce)
    assert (res.status, res.assignment) == (status, assignment)
    assert all(len(names) == enforce + 1 for names, _ in calls)
    assert _assignment_route(compile_formula(f, enforce)) == (assignment, failures)


def test_decide_reads_no_truth_table(monkeypatch):
    # the UNSAT of the 3-var 8-clause formula at 16 comes from the exhausted
    # glue search of its compiled graph, not from evaluating clauses
    def refuse(*args):
        raise AssertionError("decide evaluated a clause")

    monkeypatch.setattr(reduction, "violated_clause", refuse)
    monkeypatch.setattr(reduction, "satisfies", refuse)
    res = decide(parse_dimacs(ALL_EIGHT), enforce=16)
    assert (res.status, res.assignment, res.witness) == ("UNSAT", None, None)


def test_decide_plans_the_compiled_graph_once(monkeypatch):
    # the first decision at size 13 plans the tap check's enforced sun and
    # the compiled graph; a second decision plans only its compiled graph
    reduction._tap_plan.cache_clear()
    plans = []
    init = search._Plan.__init__
    monkeypatch.setattr(search._Plan, "__init__",
                        lambda self, *args: (plans.append(1), init(self, *args))[1])
    for built in (2, 1):
        plans.clear()
        res = decide(parse_dimacs(SINGLE), enforce=13)
        assert res.status == "UNSAT"
        assert len(plans) == built


def _counted_ticks(monkeypatch) -> list:
    ticks = []
    tick = _Budget.tick
    monkeypatch.setattr(_Budget, "tick", lambda self: (ticks.append(1), tick(self)))
    return ticks


def test_decide_tap_check_ticks_the_decision_budget(monkeypatch):
    # the enforced 16-sun's check needs 17 nodes, so a budget of 5 stops it,
    # on the plan the first call builds and on the kept one alike
    reduction._tap_plan.cache_clear()
    ticks = _counted_ticks(monkeypatch)
    for _ in range(2):
        ticks.clear()
        res = decide(parse_dimacs(SINGLE), SearchLimits(node_budget=5), enforce=16)
        assert res.status == "UNKNOWN" and len(ticks) <= 6


@pytest.mark.parametrize("k, nodes", [(12, 7), (13, 14), (16, 17)])
def test_tap_check_is_the_same_on_a_cold_and_a_warm_plan(monkeypatch, k, nodes):
    # the plan and its answer are kept per size: a check on the kept record
    # charges the kept nodes again to its own budget, with the same result
    ticks = _counted_ticks(monkeypatch)
    reduction._tap_plan.cache_clear()
    runs = []
    for _ in range(2):
        ticks.clear()
        runs.append((reduction._cycle_tap_failure(k, _Budget(SearchLimits())),
                     len(ticks)))
    assert runs[0] == runs[1]
    failure, spent = runs[0]
    assert spent == nodes and (failure is None) == (k != 12)
    assert reduction._tap_plan(k) is reduction._tap_plan(k)


def test_witness_is_the_same_on_a_cold_and_a_warm_plan():
    r = compile_formula(parse_dimacs(SINGLE), enforce=16)
    reduction._tap_plan.cache_clear()
    cold = witness_from_assignment(r, (True, False, False)).to_json()
    warm = witness_from_assignment(r, (True, False, False)).to_json()
    assert cold == warm


def test_decide_skips_the_loop_when_no_tap_materializes(monkeypatch):
    # at size 12 no assignment can glue, so the 20-variable formula is
    # never compiled or searched, and a small budget still reaches a verdict
    compiled = []
    monkeypatch.setattr(reduction, "compile_formula", lambda *a: compiled.append(a))
    f = CnfFormula(20, (((0, True), (1, True), (2, True)),))
    res = decide(f, SearchLimits(node_budget=10_000))
    assert res.status == "UNSAT"
    assert compiled == []
    # the reason names the unit whose squared-cycle template fails to glue
    assert res.reason == (
        "the enforced 12-sun has no squared-cycle-side preimage: gluing the "
        "SQUARED_CYCLE template of emb3 makes a triangle the target lacks")


def test_tap_check_fails_exactly_where_the_search_finds_no_cycle_side():
    # the reference is the search the built check replaced: the enforced
    # sun's squared-cycle-side vectors with only emb0 pinned
    for k in range(9, 41):
        built = reduction._cycle_tap_failure(k, _Budget(SearchLimits()))
        searched = template_solve(make_binary_enforced_sun(k),
                                  pin={"emb0": SQUARED_CYCLE}, max_results=1)
        assert (built is None) == bool(searched), k


@pytest.mark.parametrize("k, nodes", [(12, 7), (16, 17)])
def test_tap_check_node_counts(k, nodes):
    # the exact number of glue nodes: k + 1 where the tap glues, fewer where
    # it fails (at 12, on emb3)
    reduction._cycle_tap_failure(k, _Budget(SearchLimits(node_budget=nodes)))
    with pytest.raises(BudgetExceededError):
        reduction._cycle_tap_failure(k, _Budget(SearchLimits(node_budget=nodes - 1)))


@pytest.mark.parametrize("k, small, nodes", [(12, 3, 7), (16, 5, 17)])
def test_tap_glue_cut_short_by_its_budget_keeps_nothing(monkeypatch, k, small, nodes):
    # the first check runs out of its budget mid-glue; the next check, at the
    # default limits, glues in full once more rather than read a partial answer
    reduction._tap_plan.cache_clear()
    with pytest.raises(BudgetExceededError):
        reduction._cycle_tap_failure(k, _Budget(SearchLimits(node_budget=small)))
    ticks = _counted_ticks(monkeypatch)
    failure = reduction._cycle_tap_failure(k, _Budget(SearchLimits()))
    assert len(ticks) == nodes
    assert failure == (None if k == 16 else
                       "gluing the SQUARED_CYCLE template of emb3 makes a "
                       "triangle the target lacks")


def _capture_glues(monkeypatch) -> list:
    # the (unit names, choices) of every glue_templates call the reduction makes
    calls = []
    glue = reduction.glue_templates

    def capturing_glue(plan, choices, limits):
        calls.append((plan.names, dict(choices)))
        return glue(plan, choices, limits)

    monkeypatch.setattr(reduction, "glue_templates", capturing_glue)
    return calls


def test_tap_check_pins_the_units_of_its_plan(monkeypatch):
    # the enforced 12-sun registers 25 names, 12 of them chains; its plan
    # has 13 units, and the check pins exactly those, all squared cycles
    reduction._tap_plan.cache_clear()
    calls = _capture_glues(monkeypatch)
    assert reduction._cycle_tap_failure(12, _Budget(SearchLimits())) is not None
    bp = make_binary_enforced_sun(12)
    units = [name for name, _ in search.sun_units(bp)]
    assert len(bp.sub_gadgets) == 25 and len(units) == 13
    [(names, choices)] = calls
    assert sorted(names) == sorted(units)
    assert choices == dict.fromkeys(names, SQUARED_CYCLE)


@pytest.mark.parametrize("enforce, units, glues", [(13, 93, 7 + 1), (16, 111, 1 + 1)])
def test_reduction_pins_the_compiled_plan_units(monkeypatch, enforce, units, glues):
    # decide glues no pinned compiled plan: its one glue_templates call is
    # the tap check's.  The assignment route glues each satisfying
    # assignment it tries (all 7 at 13, the first at 16) and
    # witness_from_assignment glues one; each pins exactly the compiled
    # plan's units, every unit of tap x{i}/V{j} with the kind of its wire
    # sun x{i}/H{j}
    f = parse_dimacs(SINGLE)
    r = compile_formula(f, enforce)
    names = search.glue_plan(r.blueprint).names
    assert len(names) == units
    reduction._tap_plan.cache_clear()
    calls = _capture_glues(monkeypatch)
    decide(f, enforce=enforce)
    assert [len(plan_names) for plan_names, _ in calls] == [enforce + 1]
    _assignment_route(r)
    try:
        witness_from_assignment(r, (True, False, False))
    except CertificateError:
        assert enforce == 13
    glued = [choices for _, choices in calls[1:]]
    assert len(glued) == glues
    for choices in glued:
        assert list(choices) == names
        for name, kind in choices.items():
            var, sun = name.split("/")[:2]
            assert kind == choices[f"{var}/H{sun[1:]}"]
    # the last glue is witness_from_assignment's: x1 true, x2 and x3 false
    assert [glued[-1][f"x{i}/H0"] for i in (1, 2, 3)] == [
        SQUARED_CYCLE, WHEEL, WHEEL]


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
    [parse_dimacs("p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n"),
     parse_dimacs("p cnf 4 2\n-1 -2 3 0\n1 -3 -4 0\n")],
    pytest.param([f for f in build_corpus() if brute_sat(f) is not None],
                 marks=pytest.mark.slow),
], ids=["single", "4-var", "corpus"])
def test_read_assignment_matches_the_restriction_to_each_root(formulas):
    # the edge-map reading agrees with its reference: restrict every
    # preimage the search finds to each root 7-sun and test for 7 vertices
    for f in formulas:
        r = compile_formula(f, 16)
        for a in template_solve(r.blueprint):
            assert reduction._read_assignment(r, a.witness) == tuple(
                restrict_preimage(a.witness, r.blueprint.sub(root).vertices).candidate.n
                == 7 for root in r.variable_roots.values())


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
        names = search.glue_plan(r.blueprint).names
        decoded = []
        for a in template_solve(r.blueprint):
            bits = assignment_from_witness(r, a.witness)
            assert a.choices == reduction._pins(names, bits)
            decoded.append(bits)
        assert sorted(decoded) == [
            bits for bits in itertools.product((False, True), repeat=f.variable_count)
            if satisfies(f, bits)]
