"""3-SAT to graph compiler and the desk-scale decision wrapper.

Each variable becomes a cluster (a NOT-chained wire of 7-suns with an
enforced k-sun tapped onto every interior wire sun by an EQUAL gadget);
each clause twists together the three tapped k-suns selected by its
literals.  The compiled graph admits a preimage exactly when the template
choices propagated from a satisfying assignment onto the units of its glue
plan (`_pins`) can all be realized.

The enforcement size k is `enforce` (default 12, the paper's construction).
At k = 12 the enforced sun admits only the all-wheel preimage (see
template_solve on make_binary_enforced_sun(12)), so the squared-cycle side
of a tap cannot be materialized.  The tap check glues every unit of the
enforced sun as a squared cycle once per size per process (`_tap_plan`
keeps the plan and the answer; each later check charges the glue's nodes
again to its caller's budget); where that fails, witness_from_assignment
raises a CertificateError naming the tap, and decide() reports UNSAT for
every formula, with the failed glue as its reason, without compiling it or
enumerating assignments.  SOUND_ENFORCE = 16 is the smallest size at
which the compiled reduction is sound: there every satisfying assignment
glues into a verified preimage, and decide() agrees with the truth table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    CertificateError,
    GlueError,
    ParseError,
    StructureError,
    UnsatisfyingAssignmentError,
)
from .gadgets import (
    Assembly,
    GadgetBlueprint,
    _cluster_assembly,
    _clause_pairs,
    make_binary_enforced_sun,
)
from .graph import every_edge_in_unique_triangle
from .operators import PreimageWitness, _restrict, verify_certificate
from .search import (
    SQUARED_CYCLE,
    WHEEL,
    SearchLimits,
    _Budget,
    _Plan,
    glue_plan,
    glue_templates,
)

SOUND_ENFORCE = 16
MAX_VARS = 20  # decide enumerates all 2^n assignments

Literal = tuple[int, bool]  # (0-based variable index, True = positive)


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        for j, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise ParseError(f"clause {j} has {len(clause)} literals, need 3")
            vs = [v for v, _ in clause]
            if len(set(vs)) != 3:
                raise ParseError(f"clause {j} repeats a variable")
            for v, _ in clause:
                if not 0 <= v < self.variable_count:
                    raise ParseError(f"clause {j} uses variable {v + 1}, "
                                     f"only {self.variable_count} declared")


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF: 'p cnf <vars> <clauses>' header, 0-terminated clauses."""
    n = m = None
    lits: list[int] = []
    clauses: list[tuple[Literal, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad problem line {line!r}", lineno)
            if n < 0 or m < 0:
                raise ParseError(f"negative count in problem line {line!r}", lineno)
            continue
        if n is None:
            raise ParseError("clause before problem line", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno)
            if lit == 0:
                clauses.append(tuple((abs(x) - 1, x > 0) for x in lits))
                lits = []
            else:
                lits.append(lit)
    if n is None:
        raise ParseError("missing problem line")
    if lits:
        raise ParseError("last clause not 0-terminated")
    if len(clauses) != m:
        raise ParseError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def satisfies(formula: CnfFormula, assignment: tuple[bool, ...]) -> bool:
    return violated_clause(formula, assignment) is None


def violated_clause(formula: CnfFormula, assignment: tuple[bool, ...]) -> int | None:
    """1-based index of the first unsatisfied clause, or None."""
    if len(assignment) != formula.variable_count:
        raise StructureError("assignment length mismatch")
    for j, clause in enumerate(formula.clauses, start=1):
        if not any(assignment[v] == pos for v, pos in clause):
            return j
    return None


@dataclass(frozen=True)
class ReductionOutput:
    formula: CnfFormula
    blueprint: GadgetBlueprint
    variable_roots: dict[int, str] = field(default_factory=dict)
    clause_legs: dict[int, tuple[str, str, str]] = field(default_factory=dict)
    enforce: int = 12


def _tap_index(clause_index: int, positive: bool) -> int:
    """Positive literals read tap 2j, negative ones 2j - 1 (1-based j)."""
    return 2 * clause_index if positive else 2 * clause_index - 1


def _refuse_uncompilable(formula: CnfFormula, enforce: int) -> None:
    """The StructureError of a formula with no clauses, and of `enforce`
    below 12: smaller enforced suns have no clause-attachment triangles."""
    if not formula.clauses:
        raise StructureError("formula has no clauses")
    if enforce < 12:
        raise StructureError(f"enforced suns below 12 have no clause-attachment "
                             f"triangles, got {enforce}")


def compile_formula(formula: CnfFormula, enforce: int = 12) -> ReductionOutput:
    """Build the reduction graph: one cluster per variable, wire length
    2m + 1, with enforced `enforce`-suns as taps, plus one three-way twist
    per clause.

    Every enforce >= 12 builds, but the measured soundness depends on it:
    12 and 15 collapse (the enforced sun keeps only the wheel side); a
    clause of enforced 13-suns has no feasible pattern and a 14-sun clause
    has 1; 16 is sound; at 17 and 18, which give the 7 clause patterns,
    decide() agrees with the truth table on the corpus, but that checks
    only the forward direction, as its UNSAT still comes from the truth
    table; 19 and 20 give only 4 patterns.
    Refuses a formula with no clauses and `enforce` < 12."""
    _refuse_uncompilable(formula, enforce)
    m = len(formula.clauses)
    cluster = _cluster_assembly(m, enforce)
    asm = Assembly()
    roots: dict[int, str] = {}
    for i in range(formula.variable_count):
        prefix = f"x{i + 1}"
        asm.add_copy(cluster, prefix)
        roots[i] = f"{prefix}/H0"
    legs_by_clause: dict[int, tuple[str, str, str]] = {}
    for j, clause in enumerate(formula.clauses, start=1):
        legs = tuple(f"x{v + 1}/V{_tap_index(j, pos)}" for v, pos in clause)
        _clause_pairs(asm, list(legs))
        legs_by_clause[j] = legs
    bp = asm.build("reduction", meta={
        "variables": formula.variable_count, "clauses": m,
    })
    if not every_edge_in_unique_triangle(bp.graph):
        raise StructureError("compiled graph broke the unique-triangle invariant")
    return ReductionOutput(formula, bp, roots, legs_by_clause, enforce)


# ---------------------------------------------------------------------------
# Witness construction / extraction
# ---------------------------------------------------------------------------


def _pins(names: list[str], assignment: tuple[bool, ...]) -> dict[str, str]:
    """Each named unit's template choice propagated through its variable's
    cluster by the NOT / EQUAL joins: a unit under x{i}/H{j} or x{i}/V{j}
    (wire sun j, or a unit of the tap on it) is a squared cycle iff x_i's
    value equals "j is even"."""
    pins: dict[str, str] = {}
    for name in names:
        var, sun = name.split("/", 2)[:2]
        true = bool(assignment[int(var[1:]) - 1])
        pins[name] = SQUARED_CYCLE if true == (int(sun[1:]) % 2 == 0) else WHEEL
    return pins


@dataclass
class _Tap:
    """The enforced k-sun's glue plan, and the answer of its squared-cycle
    glue, `(failure or None, nodes)`, once a glue has finished."""
    plan: _Plan
    answer: tuple[str | None, int] | None = None


@functools.cache
def _tap_plan(k: int) -> _Tap:
    """The enforced k-sun's `_Tap`, built once per size per process: its
    plan holds no pin and no budget, and its answer is a fact of the
    construction, not of the formula, so `_cycle_tap_failure` keeps it
    and charges its nodes again to each caller's budget."""
    return _Tap(glue_plan(make_binary_enforced_sun(k)))


def _cycle_tap_failure(k: int, budget: _Budget) -> str | None:
    """Why the enforced k-sun has no squared-cycle-side preimage, or None
    when it has one: the glue of every unit of `_tap_plan(k)` as a squared
    cycle.  Every assignment needs one: with m >= 1 clauses each variable
    has squared-cycle taps of one parity.

    The first call per size glues under the caller's budget; one cut short
    by it keeps nothing.  Every later call returns the kept answer and ticks
    `budget` once per node of that glue, so each caller's budget runs out
    at the same node as a glue would."""
    tap = _tap_plan(k)
    if tap.answer is None:
        start, failure = budget.nodes, None
        try:
            glue_templates(tap.plan, dict.fromkeys(tap.plan.names, SQUARED_CYCLE),
                           budget)
        except GlueError as exc:
            failure = exc.failure
        tap.answer = (failure, budget.nodes - start)
        return failure
    failure, nodes = tap.answer
    for _ in range(nodes):
        budget.tick()
    return failure


def witness_from_assignment(r: ReductionOutput,
                            assignment: tuple[bool, ...]) -> PreimageWitness:
    """Materialize the preimage prescribed by a satisfying assignment: glue
    the template each unit is prescribed and verify the result.

    Raises UnsatisfyingAssignmentError when a clause is false, and
    CertificateError when the prescribed template choices admit no actual
    preimage (which at tap size 12 affects every squared-cycle tap)."""
    bad = violated_clause(r.formula, assignment)
    if bad is not None:
        raise UnsatisfyingAssignmentError(bad)
    budget = _Budget()
    k = r.enforce
    if _cycle_tap_failure(k, budget) is not None:
        taps = [name for name in r.blueprint.sub_gadgets if name.endswith(f"/sun{k}")]
        needy = sorted(name for name, kind in _pins(taps, assignment).items()
                       if kind == SQUARED_CYCLE)
        raise CertificateError(
            "no preimage realizes the prescribed choices: the enforced "
            f"{k}-sun has no squared-cycle-side preimage, required at "
            f"{needy[0]} (and {len(needy) - 1} more)")
    plan = glue_plan(r.blueprint)
    return glue_templates(plan, _pins(plan.names, assignment), budget)


def assignment_from_witness(r: ReductionOutput,
                            w: PreimageWitness) -> tuple[bool, ...]:
    """Read the stored bits back out of a verified witness.  The whole
    witness is verified once; then the restriction to each variable's root
    7-sun verifies, so it is the squared 7-cycle (7 vertices, true) or the
    7-wheel (8 vertices, false): the 7-sun has no other preimage
    (acceptance criterion 2)."""
    if not verify_certificate(w):
        raise CertificateError("witness does not certify the compiled graph")
    values = []
    for i in range(r.formula.variable_count):
        s = sorted(set(r.blueprint.sub(r.variable_roots[i]).vertices))
        restricted = _restrict(w, s)
        n = restricted.candidate.n
        if n not in (7, 8) or not verify_certificate(restricted):
            raise CertificateError(
                f"restriction to {r.variable_roots[i]} matches neither template")
        values.append(n == 7)
    out = tuple(values)
    bad = violated_clause(r.formula, out)
    if bad is not None:
        raise CertificateError(
            f"extracted assignment violates clause {bad}")
    return out


# ---------------------------------------------------------------------------
# Decision wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionResult:
    status: str  # "SAT" | "UNSAT" | "UNKNOWN"
    assignment: tuple[bool, ...] | None = None
    witness: PreimageWitness | None = None
    reason: str | None = None


def decide(formula: CnfFormula, limits: SearchLimits | None = None,
           enforce: int = 12) -> DecisionResult:
    """Exponential desk-scale decision.  One tap check first, before
    compiling: every assignment needs squared-cycle taps, so UNSAT at once
    when the enforced sun has none, with the failed glue as the reason.
    Otherwise compile the graph, plan its glue once, and keep the first
    satisfying assignment, in lexicographic order, whose prescribed
    preimage glues and verifies.  `limits` bounds the whole
    decision, the tap check and every glue included; budget exhaustion
    reports UNKNOWN.  `enforce` is the tap size of the compiled graph; only
    16, 17 and 18 are known to give the truth table's answers (see
    compile_formula for the measured sizes).  Refuses a formula of more than MAX_VARS variables
    and, like compile_formula, one with no clauses and `enforce` < 12."""
    n = formula.variable_count
    if n > MAX_VARS:
        raise StructureError(
            f"refusing {n}-variable formula (guard {MAX_VARS}); "
            "the decision procedure is exponential")
    _refuse_uncompilable(formula, enforce)
    budget = _Budget(limits)
    try:
        failure = _cycle_tap_failure(enforce, budget)
        if failure is not None:
            return DecisionResult("UNSAT", reason=(
                f"the enforced {enforce}-sun has no squared-cycle-side "
                f"preimage: {failure}"))
        r = compile_formula(formula, enforce)
        plan = None  # planned at the first satisfying assignment
        for bits in itertools.product((False, True), repeat=n):
            budget.tick()
            if violated_clause(formula, bits) is not None:
                continue
            plan = plan or glue_plan(r.blueprint)
            try:
                w = glue_templates(plan, _pins(plan.names, bits), budget)
            except CertificateError:
                continue
            return DecisionResult("SAT", bits, w)
    except BudgetExceededError as exc:
        return DecisionResult("UNKNOWN", reason=str(exc))
    return DecisionResult("UNSAT")
