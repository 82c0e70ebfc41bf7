"""Clause gadget reference data: loaders for the frozen data files and the
constructive builder for clause preimages.

Vertex labels use the scheme "S{leg}:{index}" with index 2p for cycle vertex
p of the 12-sun and 2p+1 for apex p; identified vertices join their labels
with "=" in sorted order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import IntegrityError
from .gadgets import GadgetBlueprint, SubGadget, _clause_roles, join_clause, make_sun
from .graph import Graph
from .operators import PreimageWitness
from .search import SQUARED_CYCLE, WHEEL, Glue, glue_plan

DATA_DIR = Path(__file__).parent / "data"


def _load_payload(name: str, appendix_dir: str | Path | None = None) -> dict:
    base = Path(appendix_dir) if appendix_dir else DATA_DIR
    path = base / name
    try:
        payload = path.read_bytes()
        checks = json.loads((base / "checksums.json").read_text())
    except OSError as exc:
        raise IntegrityError(f"cannot read appendix data: {exc}")
    want = checks.get(name)
    got = hashlib.sha256(payload).hexdigest()
    if want != got:
        raise IntegrityError(f"checksum mismatch for {name}: {got} != {want}")
    return json.loads(payload)


def _leg_of(label_part: str) -> tuple[int, int]:
    leg, idx = label_part[1:].split(":")
    return int(leg), int(idx)


def load_appendix_clause_gadget(appendix_dir: str | Path | None = None) -> GadgetBlueprint:
    """The 63-vertex clause gadget, with each constituent 12-sun registered."""
    obj = _load_payload("clause_gadget.json", appendix_dir)
    gobj = obj["graph"]
    g = Graph(gobj["n"], [tuple(e) for e in gobj["edges"]],
              {int(k): v for k, v in gobj["labels"].items()})
    subs = {}
    for ell in (1, 2, 3):
        slots: dict[int, int] = {}
        for v in range(g.n):
            for part in g.labels[v].split("="):
                leg, idx = _leg_of(part)
                if leg == ell:
                    slots[idx] = v
        if sorted(slots) != list(range(24)):
            raise IntegrityError(f"clause gadget leg {ell} has wrong label set")
        cycle = tuple(slots[2 * p] for p in range(12))
        apex = tuple(slots[2 * p + 1] for p in range(12))
        subs[f"S{ell}"] = SubGadget(
            "sun12", tuple(sorted(set(cycle + apex))),
            {"cycle": cycle, "apex": apex, **_clause_roles(cycle, apex)},
        )
    return GadgetBlueprint(g, "clause", {}, subs)


def load_appendix_preimage(wheels: int,
                           appendix_dir: str | Path | None = None) -> PreimageWitness:
    """Certified clause-gadget preimage with the given number of wheel legs."""
    if wheels not in (0, 1, 2):
        raise ValueError(f"wheels must be 0, 1, or 2, got {wheels}")
    target = load_appendix_clause_gadget(appendix_dir).graph
    by_label = {lab: v for v, lab in target.labels.items()}
    obj = _load_payload(f"preimage_{wheels}wheels.json", appendix_dir)
    cand = Graph(obj["candidate"]["n"],
                 [(e[0], e[1]) for e in obj["candidate"]["edges"]])
    try:
        mapping = {(u, v): by_label[lab] for u, v, lab in obj["map"]}
    except KeyError as exc:
        raise IntegrityError(f"preimage map references unknown label {exc}")
    return PreimageWitness(target, cand, mapping)


# ---------------------------------------------------------------------------
# Constructive clause preimages
# ---------------------------------------------------------------------------


def build_clause_preimage(wheels: tuple[bool, bool, bool]) -> PreimageWitness:
    """Glue three wheel / squared-cycle legs along the clause identification.

    The legs are the sun units S1, S2, S3 of join_clause(make_sun(12) x3),
    wheels[l - 1] picking the template of Sl; gluing their templates along
    the triangles they share (search.Glue) matches the a-triangle of leg l
    (sun indices 0, 1, 2) with the b-triangle of leg l+1 (indices 12, 13,
    14) through the edge correspondence 0=12, 1=14, 2=13.  The result is
    returned as a witness against the clause gadget and is *not* checked
    here; the all-wheels input yields a witness that fails verification.
    """
    plan = glue_plan(join_clause(make_sun(12), make_sun(12), make_sun(12)))
    wheel = dict(zip(("S1", "S2", "S3"), wheels))
    glue = Glue(plan)
    for i, name in enumerate(plan.names):
        glue.add(plan.part(i, WHEEL if wheel[name] else SQUARED_CYCLE))
    return glue.witness()
