"""The three workloads: seeded inputs, jobs and their checks.

A job is one user-level question with a known answer.  `run` asks trilin
(through module attributes, so a traced run sees every call); `check` looks at
the output afterwards, without trilin, and returns the verdict the job gave.
The `*_inputs` functions draw every random choice of a workload from its
seed, before any trilin call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import answers as K
import check

WHEEL, CYCLE = "WHEEL", "SQUARED_CYCLE"  # trilin.search's template kinds
UNKNOWN = "UNKNOWN"


@dataclass
class Job:
    id: str
    known: K.Known
    run: Callable[[], Any]
    check: Callable[[Any], Any]    # output -> verdict


# ---------------------------------------------------------------------------
# oracle: brute-force recognition of small targets
# ---------------------------------------------------------------------------

ORACLE_IMAGES = 120
ORACLE_NON_IMAGES = 70
ORACLE_NODE_BUDGET = 2_000_000


def _sun_edges(k: int):
    edges = [(i, (i + 1) % k) for i in range(k)]
    for i in range(k):
        edges += [(k + i, i), (k + i, (i + 1) % k)]
    return edges


def _wheel_edges(k: int):
    return [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]


def _squared_cycle_edges(k: int):
    return [(i, (i + 1) % k) for i in range(k)] + [(i, (i + 2) % k) for i in range(k)]


def _triangle_graph(rng: random.Random, n: int = 5, triangles: int = 3):
    """A random graph on n vertices made of `triangles` random triangles,
    every vertex used and T(G) connected, so each edge lies in a triangle
    and the target has no isolated vertex."""
    while True:
        edges = set()
        for _ in range(triangles):
            a, b, c = sorted(rng.sample(range(n), 3))
            edges |= {(a, b), (a, c), (b, c)}
        if len({v for e in edges for v in e}) != n:
            continue
        order, tadj = check.tlg_edges(n, edges)
        seen, stack = {0}, [0]
        nbrs = [set() for _ in order]
        for i, j in tadj:
            nbrs[i].add(j)
            nbrs[j].add(i)
        while stack:
            for w in nbrs[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == len(order):
            return sorted(edges), len(order), sorted(tadj)


def oracle_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    images = []
    for _ in range(ORACLE_IMAGES):
        g_edges, tn, tedges = _triangle_graph(rng)
        # relabel the target so vertex order does not follow G's edge order
        perm = list(range(tn))
        rng.shuffle(perm)
        images.append((5, g_edges, tn, sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                                              for a, b in tedges)))
    non_images = []
    for _ in range(ORACLE_NON_IMAGES):
        _, tn, tedges = _triangle_graph(rng)
        # a pendant edge lies in no triangle, so no graph has this T-image
        non_images.append((tn + 1, tedges + [(rng.randrange(tn), tn)]))
    return {"images": images, "non_images": non_images}


def oracle_jobs(tl, inputs: dict) -> list[Job]:
    Graph, S = tl.graph.Graph, tl.search
    jobs = []

    def classes(out):
        return [(w.candidate.n, sorted(w.candidate.edges)) for w in out]

    def all_verify(out):
        return all(check.witness_ok(w) for w in out)

    def sun7_check(out):
        if not all_verify(out):
            return "invalid witness"
        kinds = []
        for n, e in classes(out):
            kinds.append("wheel7" if check.isomorphic(n, e, 8, _wheel_edges(7))
                         else "squared_cycle7" if check.isomorphic(
                             n, e, 7, _squared_cycle_edges(7)) else "other")
        return tuple(sorted(kinds))

    jobs.append(Job("sun7.brute_force", K.SUN7,
                    lambda: S.brute_force_preimages(Graph(14, _sun_edges(7))),
                    sun7_check))

    for n in (3, 4, 5):
        def edgeless_check(out, n=n):
            cs = classes(out)
            ok = (all_verify(out) and check.pairwise_non_isomorphic(cs)
                  and all(len(e) == n and not check.tlg_edges(cn, e)[1]
                          for cn, e in cs))
            return len(cs) if ok else "invalid classes"

        jobs.append(Job(f"edgeless{n}.brute_force", K.EDGELESS[n],
                        lambda n=n: S.brute_force_preimages(Graph(n, [])),
                        edgeless_check))
        jobs.append(Job(f"edgeless{n}.is_tlg_small", K.EDGELESS_IMAGE,
                        lambda n=n: S.is_tlg_small(
                            Graph(n, []), S.SearchLimits(node_budget=ORACLE_NODE_BUDGET)),
                        lambda out: out[0] if out[0] != "YES" or check.witness_ok(out[1])
                        else "invalid witness"))
        if n in K.EDGELESS_LABELED:
            jobs.append(Job(f"edgeless{n}.count_labeled", K.EDGELESS_LABELED[n],
                            lambda n=n: S.count_labeled_preimages(Graph(n, [])),
                            lambda out: out))
    bowtie = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    jobs.append(Job("bowtie.count_labeled", K.BOWTIE_LABELED,
                    lambda: S.count_labeled_preimages(Graph(5, bowtie)),
                    lambda out: out))

    for i, (gn, g_edges, tn, tedges) in enumerate(inputs["images"]):
        def image_check(out, gn=gn, g_edges=g_edges):
            if not out or not all_verify(out):
                return "NO" if not out else "invalid witness"
            found = any(check.isomorphic(n, e, gn, g_edges) for n, e in classes(out))
            return K.IMAGE.paper if found else "YES, G missing"

        jobs.append(Job(f"image{i}.brute_force", K.IMAGE,
                        lambda tn=tn, tedges=tedges: S.brute_force_preimages(
                            Graph(tn, tedges)), image_check))
    for i, (tn, tedges) in enumerate(inputs["non_images"]):
        jobs.append(Job(f"non_image{i}.is_tlg_small", K.NON_IMAGE,
                        lambda tn=tn, tedges=tedges: S.is_tlg_small(
                            Graph(tn, tedges),
                            S.SearchLimits(node_budget=ORACLE_NODE_BUDGET)),
                        lambda out: out[0]))
    return jobs


# ---------------------------------------------------------------------------
# template: template_solve over gadget blueprints
# ---------------------------------------------------------------------------

CLUSTER_NODE_BUDGET = 30_000
# pinned first-solution probes of make_wire(k): (k, first kind, flipped sun)
PROBES = ([(k, first, None) for k in range(9) for first in (WHEEL, CYCLE)]
          + [(3, first, bad) for first in (WHEEL, CYCLE) for bad in range(4)])
# the many small materialization requests: wire(3) under seeded relabelings
RELABELED_PROBES = 64


def _alternating(k: int, first: str):
    other = CYCLE if first == WHEEL else WHEEL
    return [first if i % 2 == 0 else other for i in range(k + 1)]


def template_inputs(seed: int) -> dict:
    """The job list is fixed; the seed draws the vertex relabelings (as
    sub-seeds) of the RELABELED_PROBES wire(3) probes.  The other jobs keep
    the constructors' labels: template_solve replays placements in vertex-id
    order, so a relabeling moves a job's cost by up to a third, and the few
    heavy jobs would carry that into wall_s and job_p90_s."""
    rng = random.Random(seed)
    return {"relabel": [rng.getrandbits(64) for _ in range(RELABELED_PROBES)]}


def _relabel(tl, bp, subseed: int):
    """The same blueprint with its vertex ids permuted."""
    gd, Graph = tl.gadgets, tl.graph.Graph
    perm = list(range(bp.graph.n))
    random.Random(subseed).shuffle(perm)
    tr = lambda vs: tuple(perm[v] for v in vs)
    g = bp.graph
    labels = {perm[v]: lab for v, lab in g.labels.items()} if g.labels else None
    graph = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], labels)
    subs = {name: gd.SubGadget(sg.kind, tuple(sorted(tr(sg.vertices))),
                               {r: tr(vs) for r, vs in sg.roles.items()})
            for name, sg in bp.sub_gadgets.items()}
    return gd.GadgetBlueprint(graph, bp.kind, {r: tr(vs) for r, vs in bp.roles.items()},
                              subs, dict(bp.meta))


def _cluster_pins(value: bool, m: int = 1) -> dict[str, str]:
    """The choices an assignment propagates through a variable cluster: the
    root is a squared cycle iff the value is true, wire suns alternate, and
    every unit of a tapped 12-sun copies its wire sun."""
    pins = {}
    for j in range(2 * m + 1):
        kind = CYCLE if value == (j % 2 == 0) else WHEEL
        pins[f"H{j}"] = kind
        if j:
            pins.update({f"V{j}/emb{t}": kind for t in range(12)})
            pins[f"V{j}/sun12"] = kind
    return pins


def template_jobs(tl, inputs: dict) -> list[Job]:
    gd, S = tl.gadgets, tl.search
    jobs = []

    def solve(build, pin=None, max_results=None, limits=None, subseed=None):
        if subseed is not None:
            build = lambda build=build: _relabel(tl, build(), subseed)
        return lambda: S.template_solve(build(), limits, pin=pin,
                                        max_results=max_results)

    def verified(out):
        return all(check.witness_ok(a.witness) for a in out)

    def vectors(out, names):
        return [tuple(a.choices[nm] for nm in names) for a in out]

    for k in range(5):
        names = [f"H{i}" for i in range(k + 1)]

        def wire_check(out, names=names):
            vs = vectors(out, names)
            alt = all(all(a != b for a, b in zip(v, v[1:])) for v in vs)
            return (len(vs), "alternating" if alt else "not alternating") \
                if verified(out) else "invalid witness"

        jobs.append(Job(f"wire{k}.enumerate", K.WIRE_ENUM,
                        solve(lambda k=k: gd.make_wire(k)), wire_check))
    for k in (12, 13, 14, 16):
        jobs.append(Job(f"enforced{k}.enumerate", K.ENFORCED[k],
                        solve(lambda k=k: gd.make_binary_enforced_sun(k)),
                        lambda out: len(out) if verified(out) and all(
                            len(set(a.choices.values())) == 1 for a in out)
                        else "invalid"))
    for mode, attach in (("EQUAL", "attach_equal"), ("NOT", "attach_not")):
        def join(attach=attach, mode=mode):
            sun = gd.designate_attachments(gd.make_sun(7))
            return getattr(gd, attach)(sun, mode.lower(), sun, "root")

        def join_check(out, mode=mode):
            rel = {len(set(a.choices.values())) for a in out}
            word = "agree" if rel == {1} else "differ" if rel == {2} else "mixed"
            return (len(out), word) if verified(out) else "invalid witness"

        jobs.append(Job(f"{mode.lower()}_join.enumerate", K.JOIN[mode],
                        solve(join), join_check))

    def probe_check(pins):
        def f(out):
            if not verified(out):
                return "invalid witness"
            if any(a.choices[nm] != kind for a in out for nm, kind in pins.items()):
                return "pin ignored"
            return len(out)
        return f

    def wire_probe(name, k, first, bad, subseed=None):
        kinds = _alternating(k, first)
        if bad is not None:
            kinds[bad] = WHEEL if kinds[bad] == CYCLE else CYCLE
        pins = {f"H{j}": kind for j, kind in enumerate(kinds)}
        return Job(name, K.PROBE_FEASIBLE if bad is None else K.PROBE_INFEASIBLE,
                   solve(lambda: gd.make_wire(k), pins, 1, subseed=subseed),
                   probe_check(pins))

    for k, first, bad in PROBES:
        flip = "" if bad is None else f"_flip{bad}"
        jobs.append(wire_probe(f"wire{k}.probe_{first[0]}{flip}", k, first, bad))
    for legs in itertools.product((WHEEL, CYCLE), repeat=3):
        pins = {f"S{i + 1}": kind for i, kind in enumerate(legs)}
        known = K.CLAUSE_ALL_WHEEL if set(legs) == {WHEEL} else K.CLAUSE_FEASIBLE
        name = "".join(kind[0] for kind in legs)
        jobs.append(Job(f"clause_{name}.probe", known,
                        solve(lambda: gd.join_clause(gd.make_sun(12), gd.make_sun(12),
                                                     gd.make_sun(12)), pins, 1),
                        probe_check(pins)))
    for value in (False, True):
        pins = _cluster_pins(value)
        jobs.append(Job(f"cluster_x{int(value)}.probe", K.CLUSTER,
                        solve(lambda: gd.make_variable_cluster(0, 1), pins, 1,
                              S.SearchLimits(node_budget=CLUSTER_NODE_BUDGET)),
                        probe_check(pins)))
    for i, subseed in enumerate(inputs["relabel"]):
        jobs.append(wire_probe(f"relabeled{i}.wire3.probe_W", 3, WHEEL, None, subseed))
    return jobs


# ---------------------------------------------------------------------------
# reduce: the SAT path and the polynomial layers
# ---------------------------------------------------------------------------

# (variables, clauses) of the seeded formulas, each shape twice so that
# job times are dense around the percentiles; the seed draws the literals
REDUCE_SHAPES = [(3, 1), (3, 4), (4, 2), (4, 6), (5, 3), (5, 5),
                 (6, 1), (6, 4), (7, 2), (7, 6), (8, 3), (8, 5)] * 2
DECIDE_NODE_BUDGET = 1_000_000
CANONICAL_UNSAT = [tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
                   for signs in itertools.product((True, False), repeat=3)]


def _dimacs(n: int, clauses) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


def reduce_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    formulas = []
    for n, m in REDUCE_SHAPES:
        clauses = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, n + 1), 3)) for _ in range(m)]
        formulas.append((n, clauses))
    formulas.append((3, CANONICAL_UNSAT))
    return {"formulas": [(n, c, _dimacs(n, c), check.satisfiable(n, c))
                         for n, c in formulas]}


def reduce_jobs(tl, inputs: dict, workdir: str) -> list[Job]:
    from click.testing import CliRunner

    O, R, A = tl.operators, tl.reduction, tl.appendix
    runner = CliRunner(env={"TRILIN_CONFIG": None})
    tracer = tl.tracer
    jobs = []

    def cli(*args):
        if tracer is None:
            res = runner.invoke(tl.cli.main, list(args))
        else:
            with tracer.span("cli"):
                res = runner.invoke(tl.cli.main, list(args))
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            raise res.exception
        return res

    for i, (n, clauses, text, sat) in enumerate(inputs["formulas"]):
        path = os.path.join(workdir, f"f{i}.cnf")
        with open(path, "w") as fh:
            fh.write(text)

        def decide_check(res, clauses=clauses):
            out = json.loads(res.stdout)
            status = out["status"]
            code = {"SAT": 0, "UNSAT": 1, UNKNOWN: 3}[status]
            if res.exit_code != code:
                return f"exit code {res.exit_code} for {status}"
            if status == "SAT" and not check.satisfies(
                    clauses, [bool(b) for b in out["assignment"]]):
                return "assignment does not satisfy"
            return status

        jobs.append(Job(f"formula{i}.decide", K.DECIDE_SAT if sat else K.DECIDE_UNSAT,
                        lambda path=path: cli("decide", "--node-budget",
                                              str(DECIDE_NODE_BUDGET), path),
                        decide_check))

        def reduce_run(path=path, text=text):
            res = cli("reduce", path)
            r = R.compile_formula(R.parse_dimacs(text))
            t = O.triangular_line_graph(r.blueprint.graph)
            return res, r, O.verify_certificate(O.witness_of_operator(t))

        def reduce_check(out):
            res, r, verified = out
            if res.exit_code != 0:
                return f"exit code {res.exit_code}"
            g = r.blueprint.graph
            emitted = json.loads(res.stdout)["graph"]
            same = (emitted["n"] == g.n
                    and [tuple(e) for e in emitted["edges"]] == list(g.sorted_edges))
            return (same, verified, check.every_edge_in_one_triangle(g.n, g.edges))

        jobs.append(Job(f"formula{i}.reduce", K.REDUCE, reduce_run, reduce_check))

    for wheels in (0, 1, 2):
        def stored(wheels=wheels):
            w = A.load_appendix_preimage(wheels)
            return w, O.verify_certificate(w)

        jobs.append(Job(f"appendix.stored{wheels}", K.STORED_WITNESS, stored,
                        lambda out: out[1] if out[1] == check.witness_ok(out[0])
                        else "verifier disagrees"))
    for legs in itertools.product((True, False), repeat=3):
        def built(legs=legs):
            w = A.build_clause_preimage(legs)
            return w, O.verify_certificate(w)

        name = "".join("W" if leg else "S" for leg in legs)
        jobs.append(Job(f"appendix.built_{name}",
                        K.BUILT_ALL_WHEEL if all(legs) else K.BUILT_FEASIBLE, built,
                        lambda out: out[1] if out[1] == check.witness_ok(out[0])
                        else "verifier disagrees"))
    return jobs


INPUTS = {"oracle": oracle_inputs, "template": template_inputs,
          "reduce": reduce_inputs}
