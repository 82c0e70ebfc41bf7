"""Golden outputs: SHA-256 of compiled blueprints' JSON.

A change that only makes the construction faster must keep these bytes; a
change that means to alter the output updates the hashes and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from trilin.gadgets import make_variable_cluster
from trilin.reduction import compile_formula, parse_dimacs

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
