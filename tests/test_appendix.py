from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from trilin.appendix import (
    DATA_DIR,
    build_clause_preimage,
    load_appendix_clause_gadget,
    load_appendix_preimage,
)
from trilin.errors import IntegrityError
from trilin.gadgets import join_clause, make_squared_cycle, make_sun, make_wheel
from trilin.graph import is_isomorphic
from trilin.operators import restrict_preimage, verify_certificate


def test_clause_gadget_loads_and_matches_join():
    bp = load_appendix_clause_gadget()
    assert bp.graph.n == 63 and len(bp.graph.edges) == 99
    built = join_clause(make_sun(12), make_sun(12), make_sun(12))
    assert is_isomorphic(bp.graph, built.graph)


def test_clause_gadget_is_label_isomorphic_to_join():
    # the slot-by-slot correspondence between the stored table and the
    # programmatic three-sun join must itself be a graph isomorphism
    table = load_appendix_clause_gadget()
    built = join_clause(make_sun(12), make_sun(12), make_sun(12))
    mapping: dict[int, int] = {}
    for ell in (1, 2, 3):
        ts, bs = table.sub(f"S{ell}"), built.sub(f"S{ell}")
        for role in ("cycle", "apex"):
            for tv, bv in zip(ts.roles[role], bs.roles[role]):
                if tv in mapping:
                    assert mapping[tv] == bv
                mapping[tv] = bv
    assert len(mapping) == table.graph.n
    assert len(set(mapping.values())) == built.graph.n
    for u, v in table.graph.sorted_edges:
        assert built.graph.has_edge(mapping[u], mapping[v])


def test_stored_preimages_verify_with_expected_sizes():
    for wheels, size in ((0, 27), (1, 28), (2, 29)):
        w = load_appendix_preimage(wheels)
        assert verify_certificate(w)
        assert w.candidate.n == size


def test_stored_preimage_restrictions_match_templates():
    wheel12 = make_wheel(12).graph
    cycle12 = make_squared_cycle(12).graph
    for wheels in (0, 1, 2):
        w = load_appendix_preimage(wheels)
        bp = load_appendix_clause_gadget()
        seen_wheels = 0
        for ell in (1, 2, 3):
            sub = bp.sub(f"S{ell}")
            restricted = restrict_preimage(w, sub.vertices)
            assert verify_certificate(restricted)
            if is_isomorphic(restricted.candidate, wheel12):
                seen_wheels += 1
            else:
                assert is_isomorphic(restricted.candidate, cycle12)
        assert seen_wheels == wheels


def test_load_rejects_bad_wheel_count():
    with pytest.raises(ValueError):
        load_appendix_preimage(3)


def test_checksum_tamper_detected(tmp_path: Path):
    alt = tmp_path / "data"
    shutil.copytree(DATA_DIR, alt)
    payload = json.loads((alt / "clause_gadget.json").read_text())
    payload["graph"]["edges"][0] = list(reversed(payload["graph"]["edges"][0]))
    (alt / "clause_gadget.json").write_text(json.dumps(payload))
    with pytest.raises(IntegrityError):
        load_appendix_clause_gadget(alt)


def _relabel_vertex_0(payload):
    payload["graph"]["labels"]["0"] = "S1:99"


def _map_to_unknown_label(payload):
    payload["map"][0][2] = "S9:0"


@pytest.mark.parametrize("name, tamper, message", [
    ("clause_gadget.json", _relabel_vertex_0, "wrong label set"),
    ("preimage_0wheels.json", _map_to_unknown_label, "unknown label"),
])
def test_tampered_data_with_matching_checksums_is_rejected(tmp_path: Path, name,
                                                          tamper, message):
    # the checksum is recomputed, so only the schema checks can catch it
    alt = tmp_path / "data"
    shutil.copytree(DATA_DIR, alt)
    payload = json.loads((alt / name).read_text())
    tamper(payload)
    (alt / name).write_text(json.dumps(payload))
    checks = json.loads((alt / "checksums.json").read_text())
    checks[name] = hashlib.sha256((alt / name).read_bytes()).hexdigest()
    (alt / "checksums.json").write_text(json.dumps(checks))
    with pytest.raises(IntegrityError, match=message):
        load_appendix_preimage(0, alt)


def test_missing_data_dir_reports_integrity(tmp_path: Path):
    with pytest.raises(IntegrityError):
        load_appendix_clause_gadget(tmp_path / "nope")


def test_constructive_preimages_agree_with_stored():
    for pattern, wheels in (
        ((False, False, False), 0),
        ((True, False, False), 1),
        ((True, True, False), 2),
    ):
        w = build_clause_preimage(pattern)
        assert verify_certificate(w)
        stored = load_appendix_preimage(wheels)
        assert w.candidate.n == stored.candidate.n


def test_all_wheels_preimage_fails_verification():
    w = build_clause_preimage((True, True, True))
    assert not verify_certificate(w)
