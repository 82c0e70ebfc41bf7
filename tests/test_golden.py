"""Golden outputs: SHA-256 of compiled blueprints' JSON and of the other
JSON writers.

A change that only makes the construction faster must keep these bytes; a
change that means to alter the output updates the hashes and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from trilin.appendix import build_clause_preimage
from trilin.gadgets import (
    designate_attachments,
    join_clause,
    make_binary_enforced_sun,
    make_sun,
    make_variable_cluster,
    make_wire,
)
from trilin.graph import Graph, to_json
from trilin.operators import triangular_line_graph, witness_of_operator
from trilin.reduction import CnfFormula, compile_formula, parse_dimacs
from trilin.search import SearchLimits, template_solve

ONE_CLAUSE = "p cnf 3 1\n1 2 3 0\n"
THREE_CLAUSES = "p cnf 4 3\n1 2 4 0\n-1 3 4 0\n-1 2 -4 0\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dimacs, enforce, digest", [
    (ONE_CLAUSE, 12, "fa385fc3c1ded002fcf9758de99dda5ecca8da84cd588c201328a2eea061a277"),
    (ONE_CLAUSE, 16, "0e9747f0168b4f793012fb5fa33fbf98d978f82e1b01705f986faec1d646dff3"),
    (THREE_CLAUSES, 16, "02568e2276172237d81038e6bc263e3cd6b8b67a6bd206e791b2a37e33b6daf5"),
], ids=["3x1_k12", "3x1_k16", "4x3_k16"])
def test_compiled_blueprint_json_is_golden(dimacs, enforce, digest):
    r = compile_formula(parse_dimacs(dimacs), enforce)
    assert _sha(r.blueprint.to_json()) == digest


def test_variable_cluster_json_is_golden():
    assert _sha(make_variable_cluster(0, 1, 12).to_json()) == \
        "f227dbfe576e509360aa326a91b41f46cad3dd740057823ed2adf1f98589b825"


@pytest.mark.parametrize("build, digest", [
    (lambda: make_binary_enforced_sun(16),
     "5d5573f28aa66ce08339d93bf97b2aac22b5f18e1217c844603e9a33a1310375"),
    (lambda: designate_attachments(make_sun(7)),
     "6cfad7f45e982feda4d4dcfc8e5ca85109201ec4f0bf868fe5c8cb87a3681f6b"),
    (lambda: make_wire(3),
     "dcacb0a419ab77caec19a876637ccdad38f5b7076b6d9efbc0834d44a47690da"),
    (lambda: join_clause(*[make_sun(12)] * 3),
     "e320f5aee0ec4be7a484109415eabe8513749de1c0b5f4fe585c76d38e9a9efe"),
], ids=["binary_sun16", "sun7_attachments", "wire3", "clause_sun12"])
def test_serializer_shapes_are_golden(build, digest):
    # two plain-dict registries and two built by Assembly, which the
    # serializer writes straight from its entries
    assert _sha(build().to_json()) == digest


def test_operator_witness_json_is_golden():
    r = compile_formula(parse_dimacs(THREE_CLAUSES), 16)
    w = witness_of_operator(triangular_line_graph(r.blueprint.graph))
    assert _sha(w.to_json()) == \
        "19e1148bf666c567fc11dc84560063ad9357f0b93d93e7ee3a41a2da2dd88c89"


def test_labels_json_is_written_in_vertex_order():
    # edges given reversed and out of order, labels inserted last vertex first
    g = Graph(6, [(5, 0), (1, 0), (2, 1), (4, 3), (3, 5), (2, 4)],
              {v: f"v{5 - v}" for v in reversed(range(6))})
    assert to_json(g) == (
        '{"n":6,"edges":[[0,1],[0,5],[1,2],[2,4],[3,4],[3,5]],'
        '"labels":{"0":"v5","1":"v4","2":"v3","3":"v2","4":"v1","5":"v0"}}')
    assert _sha(to_json(g)) == \
        "d29a3590a8116d3306b0b6fa70338ff92d28225928bcf2beb4adeefb36384aa3"


def test_seeded_compiled_blueprints_are_golden():
    # one digest over 12 seeded formulas, n <= 8 and m <= 6, at size 12
    rng, h = random.Random(23), hashlib.sha256()
    for _ in range(12):
        n, m = rng.randint(3, 8), rng.randint(1, 6)
        formula = CnfFormula(n, tuple(
            tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), 3))
            for _ in range(m)))
        h.update(compile_formula(formula, 12).blueprint.to_json().encode())
    assert h.hexdigest() == \
        "7ae4b3c52fe7f943652cffa3b57ed81c9e5e3e29824cdfb12b2fb8fa483f788b"


def test_glue_witnesses_are_golden():
    # one digest over template_solve's results (choices and witness JSON)
    # and the constructive clause preimages: the glue's every output byte
    h = hashlib.sha256()
    solves = [(make_wire(k), None) for k in range(5)]
    solves += [(make_binary_enforced_sun(k), None) for k in (12, 13, 14, 16)]
    solves += [(join_clause(*[make_sun(12)] * 3), None),
               (make_variable_cluster(0, 1), SearchLimits(node_budget=30_000)),
               (compile_formula(parse_dimacs(THREE_CLAUSES), 16).blueprint, None)]
    for bp, limits in solves:
        for a in template_solve(bp, limits):
            h.update(json.dumps(sorted(a.choices.items())).encode())
            h.update(a.witness.to_json().encode())
    for legs in itertools.product((True, False), repeat=3):
        h.update(build_clause_preimage(legs).to_json().encode())
    assert h.hexdigest() == \
        "ebf4f9745c680b77585cc86efd45f9240ed4520e8f55ced1cd091de9e6ff212e"
