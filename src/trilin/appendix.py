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

from .errors import IntegrityError, ParseError
from .gadgets import GadgetBlueprint, SubGadget, _clause_roles, join_clause, make_sun
from .graph import Graph, _is_int, from_json_obj
from .operators import PreimageWitness
from .search import SQUARED_CYCLE, WHEEL, Glue, glue_plan

DATA_DIR = Path(__file__).parent / "data"


def _load_payload(name: str, appendix_dir: str | Path | None = None):
    """The JSON value in data file `name`, once its checksum matches."""
    base = Path(appendix_dir) if appendix_dir else DATA_DIR
    try:
        payload = (base / name).read_bytes()
        checks = json.loads((base / "checksums.json").read_text())
    except OSError as exc:
        raise IntegrityError(f"cannot read appendix data: {exc}")
    except (ValueError, RecursionError) as exc:
        raise IntegrityError(f"checksums.json is not JSON: {exc}")
    want = checks.get(name) if isinstance(checks, dict) else None
    got = hashlib.sha256(payload).hexdigest()
    if want != got:
        raise IntegrityError(f"checksum mismatch for {name}: {got} != {want}")
    try:
        return json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise IntegrityError(f"{name} is not JSON: {exc}")


def _graph_of(obj, key: str, name: str) -> Graph:
    """The graph under `key` of data file `name`'s top-level object."""
    try:
        return from_json_obj(obj.get(key) if isinstance(obj, dict) else None)
    except ParseError as exc:
        raise IntegrityError(f"{name}: {key}: {exc}")


def _leg_of(label_part: str) -> tuple[int, int]:
    leg, idx = label_part[1:].split(":")
    return int(leg), int(idx)


def load_appendix_clause_gadget(appendix_dir: str | Path | None = None) -> GadgetBlueprint:
    """The 63-vertex clause gadget, with each constituent 12-sun registered."""
    name = "clause_gadget.json"
    g = _graph_of(_load_payload(name, appendix_dir), "graph", name)
    if len(g.labels or ()) != g.n:
        raise IntegrityError(f"{name}: every clause gadget vertex needs a label")
    subs = {}
    for ell in (1, 2, 3):
        slots: dict[int, int] = {}
        for v in range(g.n):
            for part in g.labels[v].split("="):
                try:
                    leg, idx = _leg_of(part)
                except ValueError:
                    raise IntegrityError(f"{name}: label part {part!r} is not S<leg>:<index>")
                if leg == ell:
                    slots[idx] = v
        if sorted(slots) != list(range(24)):
            raise IntegrityError(f"{name}: clause gadget leg {ell} has wrong label set")
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
    if not _is_int(wheels) or wheels not in (0, 1, 2):
        raise ValueError(f"wheels must be 0, 1, or 2, got {wheels}")
    target = load_appendix_clause_gadget(appendix_dir).graph
    by_label = {lab: v for v, lab in target.labels.items()}
    name = f"preimage_{wheels}wheels.json"
    obj = _load_payload(name, appendix_dir)
    cand = _graph_of(obj, "candidate", name)
    rows = obj.get("map")
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == 3 and _is_int(r[0]) and _is_int(r[1])
            and isinstance(r[2], str) for r in rows):
        raise IntegrityError(f"{name}: map rows must be [int, int, label] triples")
    try:
        mapping = {(u, v): by_label[lab] for u, v, lab in rows}
    except KeyError as exc:
        raise IntegrityError(f"{name}: preimage map references unknown label {exc}")
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
