"""Spans around the public functions of each trilin module.

`Tracer.install()` replaces every public function listed in `SPANS` at every
module binding that refers to it (for example `verify_certificate` in
`trilin.operators`, `trilin.search`, `trilin.reduction` and `trilin.cli`), so
calls made inside the library are recorded as well as the benchmark's own.
Nothing in the library changes: the wrappers live here, and a run without
`--trace 1` installs none of them.

A span is (name, start, end, parent, job, outcome), kept in flat arrays and
written out when the benchmark ends.  The outcome is a small integer: the
result size for the solvers, 1/0 for `verify_certificate`, or one of the
negative codes below when the call raised.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

BUDGET = -1        # raised BudgetExceededError
CERTIFICATE = -2   # raised CertificateError
OTHER = -3         # raised anything else


def _size(r):
    return len(r)


def _verdict(r):
    return 1 if r else 0


def _count(r):
    return int(r)


def _tlg(r):
    return {"YES": 1, "NO": 0}.get(r[0], BUDGET)


# span name -> [(module, attribute, outcome function)]
SPANS = {
    "graph.canonical_form": [("trilin.graph", "canonical_form", None)],
    "graph.isomorphism": [("trilin.graph", "is_isomorphic", None),
                          ("trilin.graph", "find_isomorphism", None),
                          ("trilin.graph", "all_isomorphisms", None)],
    "operators.triangular_line_graph": [
        ("trilin.operators", "triangular_line_graph", None)],
    "operators.verify_certificate": [
        ("trilin.operators", "verify_certificate", _verdict)],
    "operators.restrict_preimage": [
        ("trilin.operators", "restrict_preimage", None)],
    "gadgets.build": [("trilin.gadgets", name, None) for name in (
        "make_bowtie", "make_wheel", "make_squared_cycle", "make_sun",
        "designate_attachments", "make_binary_enforced_sun", "attach_equal",
        "attach_not", "make_wire", "make_large_variable_gadget",
        "make_variable_cluster", "join_clause")],
    "gadgets.serialize": [("trilin.gadgets", "GadgetBlueprint.to_json", None),
                          ("trilin.gadgets", "GadgetBlueprint.to_json_obj", None)],
    "search.brute_force": [("trilin.search", "brute_force_preimages", _size)],
    "search.count_labeled": [
        ("trilin.search", "count_labeled_preimages", _count)],
    "search.is_tlg_small": [("trilin.search", "is_tlg_small", _tlg)],
    "search.template_solve": [("trilin.search", "template_solve", _size)],
    "appendix": [("trilin.appendix", name, None) for name in (
        "load_appendix_clause_gadget", "load_appendix_preimage",
        "build_clause_preimage")],
    "reduction.parse_dimacs": [("trilin.reduction", "parse_dimacs", None)],
    "reduction.compile_formula": [
        ("trilin.reduction", "compile_formula", None)],
    "reduction.decide": [("trilin.reduction", "decide", None)],
    "reduction.witness_from_assignment": [
        ("trilin.reduction", "witness_from_assignment", None)],
}
CLI = "cli"
JOB = "job"


class Tracer:
    """In-memory span recorder.  One per process; jobs run one at a time."""

    def __init__(self):
        self.names: list[str] = [JOB, CLI] + list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("l")
        self._stack: list[int] = []
        self.job_id = -1
        self._errors: tuple = ()

    def __len__(self):
        return len(self.name)

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.outcome.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, outcome: int = 0) -> None:
        self.end[i] = time.perf_counter()
        self.outcome[i] = outcome
        self._stack.pop()

    def close_error(self, i: int, exc: BaseException) -> None:
        budget, certificate = self._errors
        code = (BUDGET if isinstance(exc, budget)
                else CERTIFICATE if isinstance(exc, certificate) else OTHER)
        self.close(i, code)

    def wrap(self, name: str, fn, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                r = fn(*args, **kwargs)
            except BaseException as exc:
                self.close_error(i, exc)
                raise
            self.close(i, outcome(r) if outcome is not None else 0)
            return r

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS at every trilin module binding."""
        from trilin.errors import BudgetExceededError, CertificateError

        self._errors = (BudgetExceededError, CertificateError)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trilin" or name.startswith("trilin.")]
        for span, targets in SPANS.items():
            for modname, attr, outcome in targets:
                owner = sys.modules[modname]
                if "." in attr:  # a method: one binding, on the class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.wrap(span, getattr(cls, meth), outcome))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(span, original, outcome)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        i = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close_error(i, exc)
            raise
        self.close(i)

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.job, self.start, self.end,
                    self.outcome):
            del arr[:]

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: id,name,parent,job,start,end,outcome."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,parent,job,start_s,end_s,outcome\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.job[i]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{self.outcome[i]}\n")

    def summary(self) -> dict:
        """Per-span-name calls and self time, plus the derived counts the
        per-layer metrics need."""
        n = len(self)
        names, parent, outcome = self.name, self.parent, self.outcome
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        outcomes: dict[tuple[str, str, int], int] = defaultdict(int)
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            p = parent[i]
            pname = self.names[names[p]] if p >= 0 else ""
            outcomes[(name, pname, outcome[i])] += 1
        return {"calls": dict(calls), "self_s": dict(self_s),
                "outcomes": dict(outcomes)}


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s, outcomes = summary["calls"], summary["self_s"], summary["outcomes"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def count(name, parent=None, outcome=None, positive=False):
        return sum(k for (nm, pn, oc), k in outcomes.items()
                   if nm == name and (parent is None or pn in parent)
                   and (outcome is None or oc == outcome)
                   and (not positive or oc > 0))

    def total(name):
        return sum(oc * k for (nm, _, oc), k in outcomes.items()
                   if nm == name and oc > 0)

    def ratio(a, b):
        return a / b if b else 0.0

    verify = "operators.verify_certificate"
    brute = ("search.brute_force", "search.count_labeled")
    bf_leaves = count(verify, brute)
    bf_accepted = count(verify, brute, 1)
    wfa = "reduction.witness_from_assignment"
    m = {
        "search.brute_force.calls": (c(brute[0]) + c(brute[1]), "count"),
        "search.brute_force.self_s": (s(brute[0]) + s(brute[1]), "s"),
        "search.brute_force.leaves": (bf_leaves, "count"),
        "search.brute_force.classes_per_certified_leaf": (
            ratio(total(brute[0]), bf_accepted), "ratio"),
        "search.is_tlg_small.calls": (c("search.is_tlg_small"), "count"),
        "search.template_solve.calls": (c("search.template_solve"), "count"),
        "search.template_solve.self_s": (s("search.template_solve"), "s"),
        "search.template_solve.leaves": (
            count(verify, ("search.template_solve",)), "count"),
        "search.template_solve.results": (total("search.template_solve"), "count"),
        "search.budget_exhausted": (
            count(brute[0], outcome=BUDGET) + count(brute[1], outcome=BUDGET)
            + count("search.template_solve", outcome=BUDGET), "count"),
        "graph.canonical_form.calls": (c("graph.canonical_form"), "count"),
        "graph.canonical_form.self_s": (s("graph.canonical_form"), "s"),
        "graph.isomorphism.calls": (c("graph.isomorphism"), "count"),
        "graph.isomorphism.self_s": (s("graph.isomorphism"), "s"),
        "operators.verify_certificate.calls": (c(verify), "count"),
        "operators.verify_certificate.self_s": (s(verify), "s"),
        "operators.verify_certificate.accept_ratio": (
            ratio(count(verify, outcome=1), c(verify)), "ratio"),
        "operators.triangular_line_graph.calls": (
            c("operators.triangular_line_graph"), "count"),
        "operators.triangular_line_graph.self_s": (
            s("operators.triangular_line_graph"), "s"),
        "operators.restrict_preimage.calls": (
            c("operators.restrict_preimage"), "count"),
        "operators.restrict_preimage.self_s": (
            s("operators.restrict_preimage"), "s"),
        "gadgets.build.calls": (c("gadgets.build"), "count"),
        "gadgets.build.self_s": (s("gadgets.build"), "s"),
        "gadgets.serialize.self_s": (s("gadgets.serialize"), "s"),
        "reduction.parse_dimacs.self_s": (s("reduction.parse_dimacs"), "s"),
        "reduction.compile_formula.calls": (
            c("reduction.compile_formula"), "count"),
        "reduction.compile_formula.self_s": (
            s("reduction.compile_formula"), "s"),
        "reduction.decide.self_s": (s("reduction.decide"), "s"),
        "reduction.witness_from_assignment.calls": (c(wfa), "count"),
        "reduction.witness_from_assignment.self_s": (s(wfa), "s"),
        "reduction.certificate_error_ratio": (
            ratio(count(wfa, outcome=CERTIFICATE), c(wfa)), "ratio"),
        "appendix.calls": (c("appendix"), "count"),
        "appendix.self_s": (s("appendix"), "s"),
        "cli.invocations": (c(CLI), "count"),
        "cli.self_s": (s(CLI), "s"),
        "job.self_s": (s(JOB), "s"),
    }
    return m


# Counts that must repeat exactly between two traced passes of one input.
DETERMINISTIC_UNITS = ("count", "ratio")
