from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trilin.gadgets import make_bowtie
from trilin.graph import is_isomorphic, parse_json
from trilin.operators import (
    PreimageWitness,
    triangular_line_graph,
    witness_of_operator,
)

SINGLE = "p cnf 3 1\n1 2 3 0\n"


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "trilin.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture()
def k4e_file(tmp_path: Path) -> str:
    p = tmp_path / "k4e.edges"
    p.write_text("# n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    return str(p)


def test_tlg_compute_emits_bowtie(k4e_file):
    res = run_cli("tlg", "compute", k4e_file)
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    derived = parse_json(json.dumps(obj["graph"]))
    assert is_isomorphic(derived, make_bowtie().graph)
    assert len(obj["map"]) == 5


def test_tlg_compute_edgelist_format(k4e_file, tmp_path):
    out = tmp_path / "out.edges"
    res = run_cli("tlg", "compute", k4e_file,
                  "--format", "edgelist", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().startswith("# n 5")


def test_gadget_build_json_blueprint():
    res = run_cli("gadget", "build", "sun", "7")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["graph"]["n"] == 14
    assert obj["kind"] == "sun7"


def test_gadget_build_dot():
    res = run_cli("gadget", "build", "bowtie", "--format", "dot")
    assert res.returncode == 0
    assert res.stdout.startswith("graph G {")


def test_gadget_build_usage_errors():
    assert run_cli("gadget", "build", "no-such-kind").returncode == 2
    assert run_cli("gadget", "build", "sun").returncode == 2
    # structurally impossible parameter is also a usage error
    assert run_cli("gadget", "build", "wheel", "2").returncode == 2


def test_gadget_build_appendix_clause():
    res = run_cli("gadget", "build", "appendix-clause")
    assert res.returncode == 0
    assert json.loads(res.stdout)["graph"]["n"] == 63


def test_preimage_solve_positive(tmp_path):
    target = tmp_path / "bowtie.json"
    target.write_text(json.dumps(
        {"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4]]}))
    res = run_cli("preimage", "solve", str(target))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "YES"
    assert len(payload["classes"]) == 1


def test_preimage_solve_negative(tmp_path):
    target = tmp_path / "edge.json"
    target.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    res = run_cli("preimage", "solve", str(target))
    assert res.returncode == 1
    assert json.loads(res.stdout)["status"] == "NO"


def test_preimage_solve_budget_unknown(tmp_path):
    sun = run_cli("gadget", "build", "sun", "7", "--format", "json")
    graph = json.loads(sun.stdout)["graph"]
    target = tmp_path / "sun7.json"
    target.write_text(json.dumps(graph))
    res = run_cli("preimage", "solve", str(target), "--node-budget", "5")
    assert res.returncode == 3
    assert json.loads(res.stdout)["status"] == "UNKNOWN"


def test_preimage_verify_round_trip(tmp_path):
    g = parse_json(json.dumps(
        {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}))
    w = witness_of_operator(triangular_line_graph(g))
    wf = tmp_path / "w.json"
    wf.write_text(w.to_json())
    res = run_cli("preimage", "verify", str(wf))
    assert res.returncode == 0 and res.stdout.strip() == "VALID"
    # tamper with the candidate
    obj = json.loads(w.to_json())
    obj["candidate"]["edges"] = obj["candidate"]["edges"][1:]
    wf.write_text(json.dumps(obj))
    res = run_cli("preimage", "verify", str(wf))
    assert res.returncode == 1
    assert res.stdout.startswith("INVALID")


def test_preimage_verify_rejects_non_integer_map(tmp_path):
    tri = parse_json('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    obj = json.loads(witness_of_operator(triangular_line_graph(tri)).to_json())
    obj["map"] = [[0, 1, 0.2], [0, 2, True], ["1", "2", 2.9]]
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(obj))
    res = run_cli("preimage", "verify", str(wf))
    assert res.returncode == 2
    assert "VALID" not in res.stdout and "Traceback" not in res.stderr


def test_reduce_command(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SINGLE)
    res = run_cli("reduce", str(cnf))
    assert res.returncode == 0
    assert json.loads(res.stdout)["graph"]["n"] == 561


def test_reduce_rejects_bad_dimacs(tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3\n")
    assert run_cli("reduce", str(cnf)).returncode == 2


def test_decide_exit_codes(tmp_path):
    sat = tmp_path / "sat.cnf"
    sat.write_text(SINGLE)
    res = run_cli("decide", str(sat))
    # at the default enforcement size 12 the cycle-side preimage collapse
    # makes the decision procedure negative across the board; the sound
    # size 16 is checked by acceptance criterion 8
    assert res.returncode in (0, 1)
    assert json.loads(res.stdout)["status"] in ("SAT", "UNSAT")
    res = run_cli("decide", str(sat), "--node-budget", "1")
    assert res.returncode == 3
    assert json.loads(res.stdout)["status"] == "UNKNOWN"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_budget": 1}))
    res = run_cli("decide", str(sat),
                  env=dict(os.environ, TRILIN_CONFIG=str(cfg)))
    assert res.returncode == 3
    assert json.loads(res.stdout)["status"] == "UNKNOWN"
    res = run_cli("decide", str(sat), "--max-vars", "2")
    assert res.returncode == 2


def test_max_target_vertices_only_on_oracle_commands(tmp_path):
    # decide never runs the oracle, so it has no target-size cap
    sat = tmp_path / "sat.cnf"
    sat.write_text(SINGLE)
    res = run_cli("decide", str(sat), "--max-target-vertices", "5")
    assert res.returncode == 2 and "--max-target-vertices" in res.stderr
    for cmd in (("preimage", "solve"), ("check", "lemmas")):
        assert "--max-target-vertices" in run_cli(*cmd, "--help").stdout


def test_witness_command_reports_failures(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SINGLE)
    res = run_cli("witness", str(cnf), "000")
    assert res.returncode == 1
    assert "clause" in res.stderr.lower()
    res = run_cli("witness", str(cnf), "111")
    assert res.returncode == 1
    assert "no preimage" in res.stderr.lower()
    assert run_cli("witness", str(cnf), "10").returncode == 2
    assert run_cli("witness", str(cnf), "1x1").returncode == 2


def test_config_file_sets_default_format(tmp_path, k4e_file):
    import os
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "edgelist"}))
    env = dict(os.environ, TRILIN_CONFIG=str(cfg))
    res = run_cli("tlg", "compute", k4e_file, env=env)
    assert res.returncode == 0
    assert res.stdout.startswith("# n 5")


def test_tlg_compute_path_gives_isolated_vertices(tmp_path):
    p3 = tmp_path / "p3.edges"
    p3.write_text("0 1\n1 2\n")
    res = run_cli("tlg", "compute", p3.as_posix())
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["graph"]["n"] == 2 and obj["graph"]["edges"] == []


def test_check_lemmas_under_tiny_budget_reports_unknown():
    res = run_cli("check", "lemmas", "--node-budget", "50")
    # searches abort as UNKNOWN; structural rows still pass
    assert res.returncode == 3
    assert "UNKNOWN" in res.stdout
    assert "PASS" in res.stdout


def test_malformed_graph_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": "5", "edges": []}')
    res = run_cli("tlg", "compute", bad.as_posix())
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("content", [b"\xff\xfe0 1\n", b"1" * 5000, b"[" * 100_000],
                         ids=["not_utf8", "huge_int", "deep"])
def test_undecodable_inputs_are_usage_errors(tmp_path, k4e_file, content):
    # each as a graph file, a witness file and a config file: exit 2, never
    # an internal error
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    config = dict(os.environ, TRILIN_CONFIG=bad.as_posix())
    for args, env in ((("tlg", "compute", bad.as_posix()), None),
                      (("preimage", "verify", bad.as_posix()), None),
                      (("tlg", "compute", k4e_file), config)):
        res = run_cli(*args, env=env)
        assert res.returncode == 2 and "internal error" not in res.stderr, args


def test_usage_error_for_missing_file():
    assert run_cli("tlg", "compute", "/no/such/file").returncode == 2


def test_unexpected_exception_exits_internal(k4e_file):
    # a bug inside a command must not read as exit 1, "negative result"
    script = (
        "import sys\n"
        "import trilin.cli as cli\n"
        "def broken(g):\n"
        "    raise RuntimeError('boom')\n"
        "cli.triangular_line_graph = broken\n"
        "sys.argv = ['trilin', 'tlg', 'compute', sys.argv[1]]\n"
        "cli.entry()\n")
    res = subprocess.run([sys.executable, "-c", script, k4e_file],
                         capture_output=True, text=True)
    assert res.returncode == 4
    assert res.stderr.startswith("error:") and "boom" in res.stderr
    assert "Traceback" not in res.stderr
