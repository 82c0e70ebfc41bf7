"""Command-line front end.

Exit codes: 0 success, 1 negative result (not a preimage / UNSAT / failed
checks), 2 usage error, 3 budget exhausted before a conclusion, 4 internal
or data-integrity error.
"""

from __future__ import annotations

import json
import sys

import click

from . import appendix as appendix_mod
from .errors import (
    BudgetExceededError,
    CapacityError,
    CertificateError,
    IntegrityError,
    ParseError,
    StructureError,
    TrilinError,
    UnsatisfyingAssignmentError,
)
from .gadgets import (
    attach_equal,
    attach_not,
    designate_attachments,
    join_clause,
    make_binary_enforced_sun,
    make_bowtie,
    make_fan,
    make_squared_cycle,
    make_sun,
    make_triangle_strip,
    make_variable_cluster,
    make_wheel,
    make_wire,
)
from .graph import (
    Graph,
    every_edge_in_unique_triangle,
    is_isomorphic,
    load_graph_file,
    to_dot,
    to_edgelist,
    to_json_obj,
)
from .operators import (
    PreimageWitness,
    triangular_line_graph,
    verify_certificate,
    _map_rows,
)
from .reduction import (
    SOUND_ENFORCE,
    compile_formula,
    decide as decide_formula,
    parse_dimacs,
    witness_from_assignment,
)
from .search import (
    WHEEL,
    SearchLimits,
    brute_force_preimages,
    template_solve,
)

EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# the exit code of each status a command reports
_STATUS_EXIT = {"YES": 0, "SAT": 0, "PASS": 0, "NO": EXIT_NEGATIVE,
                "UNSAT": EXIT_NEGATIVE, "FAIL": EXIT_NEGATIVE, "UNKNOWN": EXIT_BUDGET}

def _limits(time_budget, node_budget, max_target) -> SearchLimits:
    """Each search limit from its flag, else the default.  A negative or
    NaN limit is a usage error; 0 is a bound."""
    lim = SearchLimits()
    flags = {"max_target_vertices": max_target, "time_budget": time_budget,
             "node_budget": node_budget}
    for key, v in flags.items():
        if v is None:
            continue
        if not v >= 0:  # NaN too: a NaN deadline never passes
            raise click.ClickException(
                f"--{key.replace('_', '-')} must be non-negative, got {v!r}")
        setattr(lim, key, v)
    return lim


def _echo(text: str, err: bool = False):
    """Write a line to stdout, or to stderr with `err`.  The stream is
    looked up per call: `click.echo`'s own default caches it in a table
    keyed by `sys.stdout` whose value, for an already usable text stream,
    is the key itself, so the entry never expires and an in-process caller
    that swaps `sys.stdout` (click's `CliRunner`) keeps each call's whole
    output alive.  errors=None asks for the same encoding repair as that
    default."""
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout",
                                                errors=None))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        _echo(text)


def _emit_status(payload: dict, out: str | None):
    """Write a solving command's status payload, then exit with its code."""
    _emit(json.dumps(payload, separators=(",", ":")), out)
    sys.exit(_STATUS_EXIT[payload["status"]])


_GRAPH_FORMATS = {"edgelist": to_edgelist, "dot": to_dot}


def _emit_graph(fmt: str, out: str | None, g: Graph, as_json):
    """Write a command's graph in `fmt`.  json is the command's own payload,
    `as_json()`, built only when asked for; the other formats render `g`
    alone."""
    _emit(as_json() if fmt == "json" else _GRAPH_FORMATS[fmt](g), out)


format_option = click.option(
    "--format", "fmt", default="json",
    type=click.Choice(["json", *_GRAPH_FORMATS]), help="Output format.")
out_option = click.option("--out", default=None, help="Write output to a file.")
# only the commands that run the brute-force oracle take its target-size cap
_max_target_option = click.option("--max-target-vertices", type=int, default=None)


def _with_budget_options(f):
    f = click.option("--node-budget", type=int, default=None)(f)
    return click.option("--time-budget", type=float, default=None)(f)


@click.group()
def main():
    """Triangular line graph toolkit."""


# ---------------------------------------------------------------------------
# tlg
# ---------------------------------------------------------------------------


@main.group()
def tlg():
    """The operator itself."""


@tlg.command("compute")
@click.argument("graph_file")
@format_option
@out_option
def tlg_compute(graph_file, fmt, out):
    """Emit T(G) and the edge->vertex bijection."""
    g = load_graph_file(graph_file)
    res = triangular_line_graph(g)
    _emit_graph(fmt, out, res.derived, lambda: json.dumps({
        "graph": to_json_obj(res.derived),
        "map": _map_rows(res.edge_to_vertex),
    }, separators=(",", ":")))


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------


_BUILDERS = {
    "bowtie": (0, make_bowtie),
    "fan": (1, make_fan),
    "strip": (1, make_triangle_strip),
    "wheel": (1, make_wheel),
    "squared-cycle": (1, make_squared_cycle),
    "sun": (1, make_sun),
    "binary-enforced-sun": (1, make_binary_enforced_sun),
    "wire": (1, make_wire),
    "cluster": (2, make_variable_cluster),
    "clause": (0, lambda: join_clause(make_sun(12), make_sun(12), make_sun(12))),
}


@main.group()
def gadget():
    """Blueprint constructors."""


@gadget.command("build")
@click.argument("kind")
@click.argument("params", nargs=-1, type=int)
@click.option("--appendix-dir", default=None)
@format_option
@out_option
def gadget_build(kind, params, appendix_dir, fmt, out):
    """Emit a named gadget blueprint (see docs for kinds and parameters)."""
    if kind == "appendix-clause":
        bp = appendix_mod.load_appendix_clause_gadget(appendix_dir)
    else:
        try:
            arity, builder = _BUILDERS[kind]
        except KeyError:
            raise click.ClickException(
                f"unknown gadget kind {kind!r}; choose from "
                f"{sorted(_BUILDERS) + ['appendix-clause']}")
        if len(params) != arity:
            raise click.ClickException(
                f"gadget {kind!r} takes {arity} integer parameter(s)")
        bp = builder(*params)
    _emit_graph(fmt, out, bp.graph, bp.to_json)


# ---------------------------------------------------------------------------
# preimage
# ---------------------------------------------------------------------------


@main.group()
def preimage():
    """Search and certificate verification."""


@preimage.command("solve")
@click.argument("graph_file")
@_with_budget_options
@_max_target_option
@out_option
def preimage_solve(graph_file, time_budget, node_budget,
                   max_target_vertices, out):
    """Brute-force preimage classes of a small target graph."""
    g = load_graph_file(graph_file)
    lim = _limits(time_budget, node_budget, max_target_vertices)
    try:
        found = brute_force_preimages(g, lim)
    except BudgetExceededError as exc:
        _emit_status({"status": "UNKNOWN", "reason": str(exc)}, out)
    _emit_status({
        "status": "YES" if found else "NO",
        "classes": [w.to_json_obj() for w in found],
    }, out)


@preimage.command("verify")
@click.argument("witness_file")
def preimage_verify(witness_file):
    """Check a stored witness; prints VALID or INVALID."""
    with open(witness_file) as fh:
        w = PreimageWitness.from_json(fh.read())
    try:
        verdict = "VALID" if verify_certificate(w) else "INVALID"
    except CertificateError as exc:
        verdict = f"INVALID: {exc}"
    _echo(verdict)
    if verdict != "VALID":
        sys.exit(EXIT_NEGATIVE)


# ---------------------------------------------------------------------------
# reduction commands
# ---------------------------------------------------------------------------


def _read_formula(cnf_file):
    with open(cnf_file) as fh:
        return parse_dimacs(fh.read())


@main.command("reduce")
@click.argument("cnf_file")
@format_option
@out_option
def reduce_cmd(cnf_file, fmt, out):
    """Compile a 3-CNF formula into its reduction graph."""
    r = compile_formula(_read_formula(cnf_file))
    _emit_graph(fmt, out, r.blueprint.graph, r.blueprint.to_json)


@main.command("decide")
@click.argument("cnf_file")
@_with_budget_options
@out_option
def decide_cmd(cnf_file, time_budget, node_budget, out):
    """Decide satisfiability through the compiled graph's preimages."""
    formula = _read_formula(cnf_file)
    lim = _limits(time_budget, node_budget, None)
    res = decide_formula(formula, lim)
    payload = {"status": res.status}
    if res.assignment is not None:
        payload["assignment"] = [int(b) for b in res.assignment]
    if res.reason:
        payload["reason"] = res.reason
    _emit_status(payload, out)


@main.command("witness")
@click.argument("cnf_file")
@click.argument("assignment")
@out_option
def witness_cmd(cnf_file, assignment, out):
    """Materialize the preimage for a satisfying ASSIGNMENT (e.g. '101')."""
    formula = _read_formula(cnf_file)
    digits = assignment.replace(",", "")
    if not set(digits) <= {"0", "1"}:
        raise click.ClickException(
            f"assignment must be 0/1 digits, got {assignment!r}")
    bits = tuple(c == "1" for c in digits)
    if len(bits) != formula.variable_count:
        raise click.ClickException(
            f"assignment length {len(bits)} != {formula.variable_count} variables")
    r = compile_formula(formula)
    try:
        w = witness_from_assignment(r, bits)
    except (UnsatisfyingAssignmentError, CertificateError) as exc:
        _echo(str(exc), err=True)
        sys.exit(EXIT_NEGATIVE)
    _emit(w.to_json(), out)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.group()
def check():
    """Verification batteries."""


def _check_lemma_battery(appendix_dir, lim) -> list[tuple[str, str, str]]:
    """Returns (name, status, detail) rows; status PASS / FAIL / UNKNOWN."""
    rows = []

    def run(name, fn):
        try:
            ok, detail = fn()
            rows.append((name, "PASS" if ok else "FAIL", detail))
        except (BudgetExceededError, CapacityError) as exc:
            rows.append((name, "UNKNOWN", str(exc)))
        except IntegrityError:
            raise
        except TrilinError as exc:
            rows.append((name, "FAIL", str(exc)))

    def two_preimages_of_7sun():
        found = brute_force_preimages(make_sun(7).graph, lim)
        kinds = {
            "wheel" if is_isomorphic(w.candidate, make_wheel(7).graph)
            else "cycle" if is_isomorphic(w.candidate, make_squared_cycle(7).graph)
            else "other"
            for w in found
        }
        return kinds == {"wheel", "cycle"} and len(found) == 2, \
            f"{len(found)} classes: {sorted(kinds)}"

    def binary_sun_two():
        found = template_solve(make_binary_enforced_sun(SOUND_ENFORCE), lim)
        return len(found) == 2, f"{len(found)} assignments"

    def equal_and_not():
        sun = designate_attachments(make_sun(7))
        eq = template_solve(attach_equal(sun, "equal", sun, "root"), lim)
        nt = template_solve(attach_not(sun, "not", sun, "root"), lim)
        ok = (len(eq) == 2 and all(len(set(a.choices.values())) == 1 for a in eq)
              and len(nt) == 2 and all(len(set(a.choices.values())) == 2 for a in nt))
        return ok, f"equal: {len(eq)}, not: {len(nt)}"

    def cluster_two():
        found = template_solve(make_variable_cluster(0, 1, SOUND_ENFORCE), lim)
        return len(found) == 2, f"{len(found)} assignments"

    def clause_seven():
        found = template_solve(
            join_clause(make_sun(12), make_sun(12), make_sun(12)), lim)
        patterns = {tuple(a.choices[f"S{i}"] for i in (1, 2, 3)) for a in found}
        all_wheel = (WHEEL,) * 3
        return len(patterns) == 7 and all_wheel not in patterns, \
            f"{len(patterns)} patterns"

    def unique_triangles():
        r = compile_formula(parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
        return every_edge_in_unique_triangle(r.blueprint.graph), \
            f"{r.blueprint.graph.n} vertices"

    def appendix_round_trip():
        bp = appendix_mod.load_appendix_clause_gadget(appendix_dir)
        built = join_clause(make_sun(12), make_sun(12), make_sun(12))
        if not is_isomorphic(bp.graph, built.graph):
            return False, "table 1 mismatch"
        for wheels in (0, 1, 2):
            w = appendix_mod.load_appendix_preimage(wheels, appendix_dir)
            if not verify_certificate(w):
                return False, f"table {wheels + 2} witness invalid"
        return True, "table 1 + 3 witnesses"

    run("7-sun has exactly two preimages", two_preimages_of_7sun)
    run(f"enforced {SOUND_ENFORCE}-sun has exactly two preimages", binary_sun_two)
    run("EQUAL/NOT joins force agree/differ", equal_and_not)
    run(f"variable cluster ({SOUND_ENFORCE}-sun taps) has exactly two preimages",
        cluster_two)
    run("clause gadget: 7 of 8 patterns", clause_seven)
    run("compiled graph: every edge in a unique triangle", unique_triangles)
    run("appendix data round-trips", appendix_round_trip)
    return rows


@check.command("lemmas")
@click.option("--appendix-dir", default=None)
@_with_budget_options
@_max_target_option
def check_lemmas(appendix_dir, time_budget, node_budget, max_target_vertices):
    """Run the lemma battery and print a PASS/FAIL report."""
    lim = _limits(time_budget, node_budget, max_target_vertices)
    if lim.time_budget is None:
        # each row is individually bounded so the battery always terminates
        lim.time_budget = 300.0
    rows = _check_lemma_battery(appendix_dir, lim)
    width = max(len(name) for name, _, _ in rows)
    for name, status, detail in rows:
        _echo(f"{status:7s} {name:<{width}s}  ({detail})")
    # a failed row outranks an unfinished one
    worst = min((s for _, s, _ in rows), key=("FAIL", "UNKNOWN", "PASS").index)
    sys.exit(_STATUS_EXIT[worst])


def entry() -> None:  # pragma: no cover - thin wrapper
    try:
        sys.exit(main(standalone_mode=False))  # None, or the code of a click exit
    except click.ClickException as exc:
        message, code = exc.format_message(), EXIT_USAGE
    except (ParseError, StructureError, OSError, UnicodeDecodeError) as exc:
        message, code = exc, EXIT_USAGE
    except (BudgetExceededError, CapacityError) as exc:
        message, code = exc, EXIT_BUDGET
    except TrilinError as exc:
        message, code = exc, EXIT_INTERNAL
    except Exception as exc:  # a bug; exit 1 would read as a negative result
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    _echo(f"error: {message}", err=True)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
