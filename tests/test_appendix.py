from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
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
    # True and 1.0 equal 1 but would name no data file
    for wheels in (3, True, 1.0):
        with pytest.raises(ValueError, match="wheels must be 0, 1, or 2"):
            load_appendix_preimage(wheels)


def test_checksum_tamper_detected(tmp_path: Path):
    alt = tmp_path / "data"
    shutil.copytree(DATA_DIR, alt)
    payload = json.loads((alt / "clause_gadget.json").read_text())
    payload["graph"]["edges"][0] = list(reversed(payload["graph"]["edges"][0]))
    (alt / "clause_gadget.json").write_text(json.dumps(payload))
    with pytest.raises(IntegrityError):
        load_appendix_clause_gadget(alt)


# each tamper edits a data file's payload in place, or returns a new one
def _relabel_vertex_0(payload):
    payload["graph"]["labels"]["0"] = "S1:99"


def _map_to_unknown_label(payload):
    payload["map"][0][2] = "S9:0"


def _graph_without_edges(payload):
    return {"graph": {"n": 2}}


def _drop_labels(payload):
    del payload["graph"]["labels"]


def _drop_graph(payload):
    del payload["graph"]


def _drop_n(payload):
    del payload["graph"]["n"]


def _edge_out_of_range(payload):
    payload["graph"]["edges"][0] = [0, 63]


def _unlabel_vertex_0(payload):
    del payload["graph"]["labels"]["0"]


def _label_without_index(payload):
    payload["graph"]["labels"]["0"] = "S1"


def _top_level_list(payload):
    return [payload]


def _two_item_map_row(payload):
    del payload["map"][0][2]


def _map_row_of_a_string(payload):
    payload["map"][0] = "S1:0"


def _candidate_loop(payload):
    payload["candidate"]["edges"][0] = [0, 0]


@pytest.mark.parametrize("name, tamper, message", [
    ("clause_gadget.json", _relabel_vertex_0, "wrong label set"),
    ("preimage_0wheels.json", _map_to_unknown_label, "unknown label"),
    ("clause_gadget.json", _graph_without_edges, "edges must be pairs of integers"),
    ("clause_gadget.json", _drop_labels, "every clause gadget vertex needs a label"),
    ("clause_gadget.json", _drop_graph, "n must be an integer"),
    ("clause_gadget.json", _drop_n, "n must be an integer"),
    ("clause_gadget.json", _edge_out_of_range, r"edge \(0,63\) out of range"),
    ("clause_gadget.json", _unlabel_vertex_0, "every clause gadget vertex needs a label"),
    ("clause_gadget.json", _label_without_index, "'S1' is not S<leg>:<index>"),
    ("clause_gadget.json", _top_level_list, "graph: bad graph JSON: n must be an integer"),
    ("preimage_0wheels.json", _two_item_map_row, r"map rows must be \[int, int, label\]"),
    ("preimage_0wheels.json", _map_row_of_a_string, r"map rows must be \[int, int, label\]"),
    ("preimage_0wheels.json", _candidate_loop, "candidate: loop at vertex 0"),
])
def test_tampered_data_with_matching_checksums_is_rejected(tmp_path: Path, name,
                                                          tamper, message):
    # the checksum is recomputed, so only the schema checks can catch it,
    # and the error names the file
    alt = _tampered_copy(tmp_path, name, tamper)
    with pytest.raises(IntegrityError, match=message) as exc:
        load_appendix_preimage(0, alt)
    assert str(exc.value).startswith(f"{name}: ")


def _tampered_copy(tmp_path: Path, name: str, tamper) -> Path:
    """A copy of the data directory whose file `name` is tampered with,
    its checksum recomputed."""
    alt = tmp_path / "data"
    shutil.copytree(DATA_DIR, alt)
    payload = json.loads((alt / name).read_text())
    payload = tamper(payload) or payload
    (alt / name).write_text(json.dumps(payload))
    checks = json.loads((alt / "checksums.json").read_text())
    checks[name] = hashlib.sha256((alt / name).read_bytes()).hexdigest()
    (alt / "checksums.json").write_text(json.dumps(checks))
    return alt


def _drop_edge_0(payload):
    del payload["graph"]["edges"][0]


def _swap_two_map_labels(payload):
    rows = payload["map"]
    rows[0][2], rows[1][2] = rows[1][2], rows[0][2]


def _repeat_a_map_label(payload):
    payload["map"][0][2] = payload["map"][1][2]


@pytest.mark.parametrize("name, tamper, row", [
    ("clause_gadget.json", _drop_edge_0, "table 1 mismatch"),
    ("preimage_0wheels.json", _swap_two_map_labels, "table 2 witness invalid"),
    ("preimage_0wheels.json", _repeat_a_map_label, "mapping is not injective"),
])
def test_lemma_battery_fails_on_data_that_passes_its_schema(tmp_path: Path, name,
                                                            tamper, row):
    alt = _tampered_copy(tmp_path, name, tamper)
    res = subprocess.run([sys.executable, "-m", "trilin.cli", "check", "lemmas",
                          "--appendix-dir", str(alt)], capture_output=True, text=True)
    assert res.returncode == 1
    assert re.search(rf"^FAIL +appendix data round-trips +\({row}\)$", res.stdout, re.M)
    assert res.stdout.count("FAIL") == 1


@pytest.mark.parametrize("checks, message", [
    ("not json", "checksums.json is not JSON"),
    ("[]", "checksum mismatch for clause_gadget.json"),
])
def test_malformed_checksums_are_rejected(tmp_path: Path, checks, message):
    alt = tmp_path / "data"
    shutil.copytree(DATA_DIR, alt)
    (alt / "checksums.json").write_text(checks)
    with pytest.raises(IntegrityError, match=message):
        load_appendix_clause_gadget(alt)


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
