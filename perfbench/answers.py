"""Known answers for every benchmark job, each with its source.

A job's verdict is compared with `paper`, the answer the paper's lemmas give.
Where the README documents that today's program disagrees with the paper (the
size-12 enforcement collapse), `documented` lists the answers it is known to
give instead.  Such a verdict counts against `correct_ratio` but is not a
benchmark failure; any other verdict is.

The counts sourced to networkx are re-derived, without trilin, by running
this file:  python3 perfbench/answers.py
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

PAPER = "paper lemma"
README = "README, 'A finding the test suite insists on'"
NETWORKX = "enumeration with networkx 3.6.1 (python3 perfbench/answers.py)"
DEFINITION = "definition of T: every edge of T(G) lies in a triangle"
TRUTH_TABLE = "truth table of the formula"


@dataclass(frozen=True)
class Known:
    paper: object
    source: str
    documented: frozenset = frozenset()
    documented_source: str | None = None


# -- oracle -----------------------------------------------------------------
SUN7 = Known(("squared_cycle7", "wheel7"), PAPER + ": the 7-sun has exactly "
             "two preimages, the 7-wheel and the squared 7-cycle")
# triangle-free graphs with n edges and no isolated vertex, up to isomorphism
EDGELESS_CLASSES = {3: 4, 4: 9, 5: 19}
EDGELESS = {n: Known(k, NETWORKX + f": triangle-free graphs with {n} edges")
            for n, k in EDGELESS_CLASSES.items()}
EDGELESS_IMAGE = Known("YES", DEFINITION + "; a triangle-free graph has an "
                       "edgeless T")
# (candidate, bijection) pairs up to relabeling the candidate
EDGELESS_LABELED = {n: Known(k, NETWORKX + f": labeled preimages of {n} "
                             "isolated vertices")
                    for n, k in {3: 8, 4: 54, 5: 534}.items()}
BOWTIE_LABELED = Known(2, NETWORKX + ": |Aut(bowtie)| / |Aut(K4-e)| = 8 / 4")
IMAGE = Known("YES, G among the classes",
              DEFINITION + "; G's class found with networkx.is_isomorphic")
NON_IMAGE = Known("NO", DEFINITION)

# -- template ---------------------------------------------------------------
WIRE_ENUM = Known((2, "alternating"), PAPER + ": a NOT join forces "
                  "neighbouring suns to differ")
JOIN = {"EQUAL": Known((2, "agree"), PAPER + ": EQUAL forces agreement"),
        "NOT": Known((2, "differ"), PAPER + ": NOT forces difference")}
ENFORCED = {k: Known(2, PAPER + ": binary enforcement leaves an all-wheel and "
                     "an all-squared-cycle preimage")
            for k in (13, 14, 16)}
ENFORCED[12] = Known(2, ENFORCED[13].source, frozenset({1}), README
                     + ": at k = 12 only the all-wheel preimage exists")
PROBE_FEASIBLE = Known(1, PAPER + ": the alternating choice vector of a wire "
                       "is realizable")
PROBE_INFEASIBLE = Known(0, PAPER + ": a wire choice vector with two equal "
                         "neighbours is not realizable")
CLAUSE_FEASIBLE = Known(1, PAPER + ": 7 of the 8 clause patterns are feasible "
                        "(appendix tables 2-4)")
CLAUSE_ALL_WHEEL = Known(0, PAPER + ": the all-wheel clause pattern is "
                         "infeasible")
CLUSTER = Known(1, PAPER + ": a variable cluster realizes both values",
                frozenset({0, "UNKNOWN"}), README + ": the cluster needs the "
                "impossible cycle side of a 12-sun tap; today's solver "
                "exhausts its node budget")

# -- reduce -----------------------------------------------------------------
DECIDE_SAT = Known("SAT", PAPER + " (reduction theorem) and " + TRUTH_TABLE,
                   frozenset({"UNSAT"}), README + ": decide reports UNSAT for "
                   "every formula")
DECIDE_UNSAT = Known("UNSAT", PAPER + " (reduction theorem) and " + TRUTH_TABLE)
REDUCE = Known((True, True, True), "definition of T (the operator's own "
               "witness verifies) and " + PAPER + " (every edge of the "
               "compiled graph lies in exactly one triangle); the CLI output "
               "equals compile_formula")
STORED_WITNESS = Known(True, "appendix tables 2-4: the stored preimages verify")
BUILT_FEASIBLE = Known(True, PAPER + ": a clause pattern with a squared-cycle "
                       "leg has a preimage")
BUILT_ALL_WHEEL = Known(False, PAPER + ": the all-wheel clause pattern has no "
                        "preimage")


# ---------------------------------------------------------------------------
# Derivation of the networkx-sourced entries
# ---------------------------------------------------------------------------


def graphs_by_edge_count(max_edges: int):
    """For k = 1..max_edges, one representative (n, edges) of every
    isomorphism class of graphs with k edges and no isolated vertex."""
    import networkx as nx

    levels = {1: [(2, ((0, 1),))]}
    for k in range(2, max_edges + 1):
        reps: dict[str, list] = {}
        for n, edges in levels[k - 1]:
            es = set(edges)
            extensions = [(n, (u, v)) for u, v in itertools.combinations(range(n), 2)
                          if (u, v) not in es]
            extensions += [(n + 1, (u, n)) for u in range(n)]
            extensions.append((n + 2, (n, n + 1)))
            for n2, e in extensions:
                cand = (n2, tuple(sorted(es | {e})))
                g = nx.Graph(list(cand[1]))
                key = tuple(sorted(d for _, d in g.degree()))
                bucket = reps.setdefault(key, [])
                if not any(nx.is_isomorphic(g, nx.Graph(list(o[1]))) for o in bucket):
                    bucket.append(cand)
        levels[k] = [c for bucket in reps.values() for c in bucket]
    return levels


def derive() -> dict:
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    from check import tlg_edges

    levels = graphs_by_edge_count(5)
    edgeless = {}
    for n in EDGELESS_CLASSES:
        edgeless[n] = sum(1 for _, es in levels[n]
                          if not tlg_edges(max(max(e) for e in es) + 1, es)[1])

    def labeled(target: nx.Graph) -> int:
        """Bijections E(C) -> V(target) that are isomorphisms T(C) -> target,
        summed over the preimage classes C, each counted up to the
        automorphisms of C acting on its edges."""
        total = 0
        for n, es in levels[target.number_of_nodes()]:
            order, tadj = tlg_edges(n, es)
            t = nx.Graph()
            t.add_nodes_from(range(len(order)))
            t.add_edges_from(tadj)
            if not nx.is_isomorphic(t, target):
                continue
            maps = {tuple(m[i] for i in range(len(order)))
                    for m in GraphMatcher(t, target).isomorphisms_iter()}
            c = nx.Graph(list(es))
            autos = list(GraphMatcher(c, c).isomorphisms_iter())
            orbits = set()
            for mp in maps:
                orbit = []
                for a in autos:
                    moved = {tuple(sorted((a[u], a[v]))): i
                             for i, (u, v) in enumerate(order)}
                    orbit.append(tuple(mp[moved[e]] for e in order))
                orbits.add(min(orbit))
            total += len(orbits)
        return total

    edgeless_labeled = {n: labeled(nx.empty_graph(n)) for n in EDGELESS_LABELED}
    bowtie = nx.Graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    return {"edgeless": edgeless, "edgeless_labeled": edgeless_labeled,
            "bowtie_labeled": labeled(bowtie)}


if __name__ == "__main__":
    got = derive()
    want = {"edgeless": EDGELESS_CLASSES,
            "edgeless_labeled": {n: k.paper for n, k in EDGELESS_LABELED.items()},
            "bowtie_labeled": BOWTIE_LABELED.paper}
    print(json.dumps(got))
    if got != want:
        raise SystemExit(f"known answers differ from the derivation: {want}")
    print("known answers re-derived: OK")
