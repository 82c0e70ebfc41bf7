"""3-SAT to graph compiler and the desk-scale decision wrapper.

Each variable becomes a cluster (a NOT-chained wire of 7-suns with an
enforced k-sun tapped onto every interior wire sun by an EQUAL gadget);
each clause twists together the three tapped k-suns selected by its
literals.  The compiled graph admits a preimage exactly when the template
choices propagated from a satisfying assignment can all be realized.

The enforcement size k is `enforce` (default 12, the paper's construction).
At k = 12 the enforced sun admits only the all-wheel preimage (see
template_solve on make_binary_enforced_sun(12)), so the squared-cycle side
of a tap cannot be materialized: witness_from_assignment raises a
CertificateError naming the tap, and decide()'s one budgeted tap check
finds the collapse and reports UNSAT for every formula without compiling it
or enumerating assignments.  SOUND_ENFORCE = 16 is the smallest size at
which the compiled reduction is sound: there every satisfying assignment
glues into a verified preimage, and decide() agrees with the truth table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    CertificateError,
    ParseError,
    StructureError,
    UnsatisfyingAssignmentError,
)
from .gadgets import (
    Assembly,
    GadgetBlueprint,
    _add_cluster,
    _clause_pairs,
    make_binary_enforced_sun,
)
from .graph import every_edge_in_unique_triangle
from .operators import (
    PreimageWitness,
    _restrict,
    is_triangle_induced,
    verify_certificate,
)
from .search import (
    SQUARED_CYCLE,
    WHEEL,
    SearchLimits,
    _Budget,
    glue_templates,
    template_solve,
)

SOUND_ENFORCE = 16

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


def compile_formula(formula: CnfFormula, enforce: int = 12) -> ReductionOutput:
    """Build the reduction graph: one cluster per variable, wire length
    2m + 1, with enforced `enforce`-suns as taps, plus one three-way twist
    per clause.

    Every enforce >= 12 builds, but the measured soundness depends on it:
    12 and 15 collapse (the enforced sun keeps only the wheel side); a
    clause of enforced 13-suns has no feasible pattern and a 14-sun clause
    has 1; 16 is sound; 17 and 18 give the 7 clause patterns, but no
    decide() run has checked them; 19 and 20 give only 4 patterns."""
    m = len(formula.clauses)
    if m == 0:
        raise StructureError("formula has no clauses")
    asm = Assembly()
    roots: dict[int, str] = {}
    for i in range(formula.variable_count):
        prefix = f"x{i + 1}"
        _add_cluster(asm, f"{prefix}/", m, enforce)
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


def _pins(r: ReductionOutput, assignment: tuple[bool, ...]) -> dict[str, str]:
    """Template choices propagated through each variable's cluster by the
    NOT / EQUAL joins: the root sun is a squared cycle iff the variable is
    true, wire suns alternate, and each tapped k-sun copies its wire sun."""
    k = r.enforce
    pins: dict[str, str] = {}
    for i, value in enumerate(assignment):
        prefix = f"x{i + 1}"
        for j in range(2 * len(r.formula.clauses) + 1):
            kind = SQUARED_CYCLE if bool(value) == (j % 2 == 0) else WHEEL
            pins[f"{prefix}/H{j}"] = kind
            if j:
                for t in range(k):
                    pins[f"{prefix}/V{j}/emb{t}"] = kind
                pins[f"{prefix}/V{j}/sun{k}"] = kind
    return pins


def _cycle_tap_feasible(k: int, budget: _Budget) -> bool:
    """Whether the enforced k-sun admits a squared-cycle-side preimage,
    searched under the caller's budget.  Every assignment needs one: with
    m >= 1 clauses each variable has squared-cycle taps of one parity."""
    return bool(template_solve(make_binary_enforced_sun(k), budget,
                               pin={"emb0": SQUARED_CYCLE}, max_results=1))


def witness_from_assignment(r: ReductionOutput, assignment: tuple[bool, ...],
                            limits: SearchLimits | None = None) -> PreimageWitness:
    """Materialize the preimage prescribed by a satisfying assignment: glue
    the template each unit is prescribed and verify the result.

    Raises UnsatisfyingAssignmentError when a clause is false, and
    CertificateError when the prescribed template choices admit no actual
    preimage (which at tap size 12 affects every squared-cycle tap).
    `limits` bounds the tap check and the glue together."""
    bad = violated_clause(r.formula, assignment)
    if bad is not None:
        raise UnsatisfyingAssignmentError(bad)
    budget = _Budget(limits or SearchLimits())
    k = r.enforce
    if not _cycle_tap_feasible(k, budget):
        needy = sorted(name for name, kind in _pins(r, assignment).items()
                       if kind == SQUARED_CYCLE and name.endswith(f"/sun{k}"))
        raise CertificateError(
            "no preimage realizes the prescribed choices: the enforced "
            f"{k}-sun has no squared-cycle-side preimage, required at "
            f"{needy[0]} (and {len(needy) - 1} more)")
    return glue_templates(r.blueprint, _pins(r, assignment), budget)


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
        if not is_triangle_induced(w.target, s):
            raise StructureError("subset is not triangle-induced in the target")
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
           max_vars: int = 20, enforce: int = 12) -> DecisionResult:
    """Exponential desk-scale decision.  One tap check first, before
    compiling: every assignment needs squared-cycle taps, so UNSAT at once
    when the enforced sun has none.  Otherwise keep the first satisfying
    assignment, in lexicographic order, whose prescribed preimage glues and
    verifies.  `limits` bounds the whole decision, the tap check and every
    glue included; budget exhaustion reports UNKNOWN.  `enforce` is the tap
    size of the compiled graph; only 16 is known to give the truth table's
    answers (see compile_formula for the measured sizes).  Like
    compile_formula, refuses a formula with no clauses and `enforce` < 12."""
    n = formula.variable_count
    if n > max_vars:
        raise StructureError(
            f"refusing {n}-variable formula (guard {max_vars}); "
            "the decision procedure is exponential")
    if not formula.clauses:
        raise StructureError("formula has no clauses")
    if enforce < 12:
        raise StructureError(f"enforced suns below 12 have no clause-attachment "
                             f"triangles, got {enforce}")
    budget = _Budget(limits or SearchLimits())
    try:
        if not _cycle_tap_feasible(enforce, budget):
            return DecisionResult("UNSAT")
        r = compile_formula(formula, enforce)
        for bits in itertools.product((False, True), repeat=n):
            budget.tick()
            if violated_clause(formula, bits) is not None:
                continue
            try:
                w = glue_templates(r.blueprint, _pins(r, bits), budget)
            except CertificateError:
                continue
            return DecisionResult("SAT", bits, w)
    except BudgetExceededError as exc:
        return DecisionResult("UNKNOWN", reason=str(exc))
    return DecisionResult("UNSAT")
