from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from trilin import cli
from trilin.gadgets import make_bowtie, make_sun
from trilin.graph import is_isomorphic, parse_json, to_json
from trilin.operators import (
    PreimageWitness,
    triangular_line_graph,
    witness_of_operator,
)

SINGLE = "p cnf 3 1\n1 2 3 0\n"


def run_cli(*args):
    cmd = [sys.executable, "-m", "trilin.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def invoke(monkeypatch, capsys, *args):
    """`trilin ARGS` run in this process through `entry()`: (exit code,
    stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["trilin", *args])
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    out, err = capsys.readouterr()
    return stop.value.code or 0, out, err


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


@pytest.mark.parametrize("text, why", [
    ('{"graph": {"n": 2}}', "graph: bad graph JSON: edges must be pairs of integers"),
    ("not json", "is not JSON: Expecting value: line 1 column 1 (char 0)"),
])
def test_gadget_build_appendix_clause_names_the_malformed_file(monkeypatch, capsys,
                                                                 tmp_path, text, why):
    # the checksum matches, so the data file's shape is what is wrong
    (tmp_path / "clause_gadget.json").write_text(text)
    (tmp_path / "checksums.json").write_text(json.dumps(
        {"clause_gadget.json": hashlib.sha256(text.encode()).hexdigest()}))
    code, out, err = invoke(monkeypatch, capsys, "gadget", "build", "appendix-clause",
                            "--appendix-dir", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.startswith("error: clause_gadget.json") and err.rstrip().endswith(why)
    assert "internal error" not in err


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
    # a time budget of 0 is spent
    res = run_cli("preimage", "solve", str(target), "--time-budget", "0")
    assert res.returncode == 3
    assert json.loads(res.stdout) == {"status": "UNKNOWN",
                                      "reason": "time budget exhausted"}
    res = run_cli("preimage", "solve", str(target), "--max-target-vertices", "-1")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: --max-target-vertices must be non-negative, got -1\n"


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


@pytest.mark.parametrize("text", ["[]", "3", '"x"'], ids=["array", "number", "string"])
def test_preimage_verify_rejects_a_witness_that_is_no_object(tmp_path, text):
    wf = tmp_path / "w.json"
    wf.write_text(text)
    res = run_cli("preimage", "verify", str(wf))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: bad witness JSON: the top level must be an object\n"


def test_preimage_verify_rejects_a_repeated_map_row(tmp_path):
    # the map names edge (0, 1) twice
    tri = parse_json('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    obj = json.loads(witness_of_operator(triangular_line_graph(tri)).to_json())
    obj["map"].append([1, 0, 0])
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(obj))
    res = run_cli("preimage", "verify", str(wf))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: bad witness JSON: map row [1, 0, 0] repeats an edge\n"


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
    # a negative or NaN budget is a usage error; 0 is a bound
    for flag, value, shown in (("--node-budget", "-5", "-5"),
                               ("--time-budget", "-1", "-1.0"),
                               ("--time-budget", "nan", "nan")):
        res = run_cli("decide", str(sat), flag, value)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == f"error: {flag} must be non-negative, got {shown}\n"


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


def test_tlg_compute_path_gives_isolated_vertices(tmp_path):
    p3 = tmp_path / "p3.edges"
    p3.write_text("0 1\n1 2\n")
    res = run_cli("tlg", "compute", p3.as_posix())
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["graph"]["n"] == 2 and obj["graph"]["edges"] == []


def test_tlg_compute_costs_nothing_per_declared_vertex(tmp_path, monkeypatch, capsys):
    # a triangle under a header declaring a million vertices: T(G) is read
    # from the endpoints the three edges use
    big = tmp_path / "big.edges"
    big.write_text("# n 1000000\n0 1\n0 2\n1 2\n")
    tracemalloc.start()
    try:
        code, out, _ = invoke(monkeypatch, capsys, "tlg", "compute", big.as_posix())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["graph"]["n"] == 3
    assert peak < 2 ** 20


def test_check_lemmas_under_tiny_budget_reports_unknown():
    res = run_cli("check", "lemmas", "--node-budget", "50")
    # searches abort as UNKNOWN; structural rows still pass
    assert res.returncode == 3
    assert "UNKNOWN" in res.stdout
    assert "PASS" in res.stdout
    # a target over the oracle's cap leaves its row unknown, not failed
    res = run_cli("check", "lemmas", "--node-budget", "50",
                  "--max-target-vertices", "5")
    assert res.returncode == 3 and "FAIL" not in res.stdout
    assert res.stdout.startswith("UNKNOWN 7-sun has exactly two preimages ")
    assert "(target has 14 vertices, over the limit 5)" in res.stdout


def test_malformed_graph_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": "5", "edges": []}')
    res = run_cli("tlg", "compute", bad.as_posix())
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_label_key_with_a_leading_zero_is_a_usage_error(tmp_path):
    # "1" and "01" both name vertex 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":3,"edges":[[0,1]],"labels":{"1":"a","01":"b"}}')
    res = run_cli("tlg", "compute", bad.as_posix())
    assert res.returncode == 2
    assert "label key '01'" in res.stderr


@pytest.mark.parametrize("content", [b"\xff\xfe0 1\n", b"1" * 5000, b"[" * 100_000],
                         ids=["not_utf8", "huge_int", "deep"])
def test_undecodable_inputs_are_usage_errors(tmp_path, content):
    # each as a graph file and a witness file: exit 2, never an internal error
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for args in (("tlg", "compute", bad.as_posix()),
                 ("preimage", "verify", bad.as_posix())):
        res = run_cli(*args)
        assert res.returncode == 2 and "internal error" not in res.stderr, args


def test_in_process_calls_keep_no_output(tmp_path):
    # commands run in this process through one CliRunner keep nothing of
    # what they wrote to stdout or stderr once they return
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SINGLE)
    runner = CliRunner()

    def calls() -> int:
        res = runner.invoke(cli.main, ["reduce", str(cnf)])
        assert res.exit_code == 0
        assert runner.invoke(cli.main, ["decide", str(cnf)]).exit_code == 1
        failed = runner.invoke(cli.main, ["witness", str(cnf), "111"])
        assert failed.exit_code == 1 and "no preimage" in failed.stderr
        return len(res.stdout)

    reduce_bytes = calls()  # the first round also fills the program's caches
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            calls()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < reduce_bytes, (grown, reduce_bytes)


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


# each file the transcript reads, by name; the witness files are written by
# the test from the operator's own witness
TRANSCRIPT_FILES = {
    "k4e.edges": "# n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n",
    "p3.edges": "0 1\n1 2\n",
    "bad.json": '{"n": "5", "edges": []}',
    "bowtie.json": '{"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4]]}',
    "edge.json": '{"n": 2, "edges": [[0, 1]]}',
    "f.cnf": SINGLE,
    "bad.cnf": "p cnf 3 1\n1 2 3\n",
    "empty.cnf": "p cnf 3 0\n",
    "big.cnf": "p cnf 21 1\n1 2 3 0\n",
}

# (arguments, exit code, SHA-256 prefix of stdout followed by what --out
# wrote, first stderr line)
TRANSCRIPT = [
    (("tlg", "compute", "k4e.edges"), 0, "6653be4ade39389a", ""),
    (("tlg", "compute", "k4e.edges", "--format", "edgelist"),
     0, "10d524e6872e9cff", ""),
    (("tlg", "compute", "k4e.edges", "--format", "dot"), 0, "63ce9f7fd31a1b25", ""),
    (("tlg", "compute", "k4e.edges", "--format", "edgelist", "--out", "out.txt"),
     0, "90fcbac059b532a8", ""),
    (("tlg", "compute", "p3.edges"), 0, "23ce801f8119cc27", ""),
    (("tlg", "compute", "nosuch.edges"),
     2, "e3b0c44298fc1c14",
     "error: [Errno 2] No such file or directory: 'nosuch.edges'"),
    (("tlg", "compute", "bad.json"),
     2, "e3b0c44298fc1c14", "error: bad graph JSON: n must be an integer"),
    (("gadget", "build", "bowtie"), 0, "68d5ff96bd13a997", ""),
    (("gadget", "build", "sun", "7", "--format", "dot"), 0, "b058bf6cf3114608", ""),
    (("gadget", "build", "cluster", "0", "1", "--format", "edgelist"),
     0, "2471bd554dff315c", ""),
    (("gadget", "build", "clause", "--format", "edgelist"), 0, "7f2e0c50a2c6c168", ""),
    (("gadget", "build", "no-such-kind"),
     2, "e3b0c44298fc1c14",
     "error: unknown gadget kind 'no-such-kind'; choose from ['binary-enforced-"
     "sun', 'bowtie', 'clause', 'cluster', 'fan', 'squared-cycle', 'strip', 'sun',"
     " 'wheel', 'wire', 'appendix-clause']"),
    (("gadget", "build", "sun"),
     2, "e3b0c44298fc1c14", "error: gadget 'sun' takes 1 integer parameter(s)"),
    (("gadget", "build", "wheel", "2"),
     2, "e3b0c44298fc1c14", "error: wheel needs k >= 4, got 2"),
    (("gadget", "build", "appendix-clause"), 0, "e7a38f82a5e16632", ""),
    (("gadget", "build", "appendix-clause", "--appendix-dir", "nodir"),
     4, "e3b0c44298fc1c14",
     "error: cannot read appendix data: [Errno 2] No such file or directory: "
     "'nodir/clause_gadget.json'"),
    (("preimage", "solve", "bowtie.json"), 0, "edcc2a06030f7869", ""),
    (("preimage", "solve", "bowtie.json", "--out", "out.txt"),
     0, "edcc2a06030f7869", ""),
    (("preimage", "solve", "edge.json"), 1, "752922fed0628ae8", ""),
    (("preimage", "solve", "sun7.json", "--node-budget", "5"),
     3, "ad846c3788d91f51", ""),
    (("preimage", "solve", "sun7.json", "--node-budget", "5", "--out", "out.txt"),
     3, "ad846c3788d91f51", ""),
    (("preimage", "solve", "bowtie.json", "--max-target-vertices", "3"),
     3, "e3b0c44298fc1c14", "error: target has 5 vertices, over the limit 3"),
    (("preimage", "solve", "bowtie.json", "--format", "json"),
     2, "e3b0c44298fc1c14", "error: No such option '--format'. Did you mean '--out'?"),
    (("preimage", "verify", "w.json"), 0, "de545cc7e7ff8eaa", ""),
    (("preimage", "verify", "tampered.json"), 1, "d9a5d1326f6b4a63", ""),
    (("preimage", "verify", "float_map.json"),
     2, "e3b0c44298fc1c14",
     "error: bad witness JSON: map entries must be integer triples"),
    (("reduce", "f.cnf"), 0, "c7e46a1436062e51", ""),
    (("reduce", "f.cnf", "--format", "edgelist", "--out", "out.txt"),
     0, "9a9e223834bf3f5e", ""),
    (("reduce", "bad.cnf"),
     2, "e3b0c44298fc1c14", "error: last clause not 0-terminated"),
    (("reduce", "empty.cnf"), 2, "e3b0c44298fc1c14", "error: formula has no clauses"),
    (("decide", "f.cnf"), 1, "9a3f0bca1dd309b7", ""),
    (("decide", "f.cnf", "--node-budget", "1"), 3, "7f9dfabe58790d30", ""),
    (("decide", "big.cnf"),
     2, "e3b0c44298fc1c14",
     "error: refusing 21-variable formula (guard 20); the decision procedure is "
     "exponential"),
    (("decide", "empty.cnf"), 2, "e3b0c44298fc1c14", "error: formula has no clauses"),
    (("witness", "f.cnf", "000"),
     1, "e3b0c44298fc1c14", "assignment does not satisfy clause 1"),
    (("witness", "f.cnf", "111"),
     1, "e3b0c44298fc1c14",
     "no preimage realizes the prescribed choices: the enforced 12-sun has no "
     "squared-cycle-side preimage, required at x1/V2/sun12 (and 2 more)"),
    (("witness", "f.cnf", "10"),
     2, "e3b0c44298fc1c14", "error: assignment length 2 != 3 variables"),
    (("witness", "f.cnf", "1x1"),
     2, "e3b0c44298fc1c14", "error: assignment must be 0/1 digits, got '1x1'"),
    (("check", "lemmas", "--node-budget", "50"), 3, "429ad57c22eabf40", ""),
    (("check", "lemmas"), 0, "0672d0569dfe3e90", ""),
    (("check", "lemmas", "--node-budget", "50", "--appendix-dir", "nodir"),
     4, "e3b0c44298fc1c14",
     "error: cannot read appendix data: [Errno 2] No such file or directory: "
     "'nodir/clause_gadget.json'"),
]


def write_transcript_files(directory: Path) -> None:
    for name, text in TRANSCRIPT_FILES.items():
        (directory / name).write_text(text)
    (directory / "sun7.json").write_text(to_json(make_sun(7).graph))
    w = witness_of_operator(triangular_line_graph(parse_json(
        '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}')))
    (directory / "w.json").write_text(w.to_json())
    obj = json.loads(w.to_json())
    obj["candidate"]["edges"] = obj["candidate"]["edges"][1:]
    (directory / "tampered.json").write_text(json.dumps(obj))
    obj = json.loads(w.to_json())
    obj["map"][0][2] = 0.5
    (directory / "float_map.json").write_text(json.dumps(obj))


def transcript_digest(out: str, directory: Path) -> str:
    written = directory / "out.txt"
    if written.exists():
        out += written.read_text()
        written.unlink()
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def test_cli_transcript(tmp_path, monkeypatch, capsys):
    # every command, format and error class, in one table
    monkeypatch.chdir(tmp_path)
    write_transcript_files(tmp_path)
    for args, code, digest, first_err in TRANSCRIPT:
        got_code, out, err = invoke(monkeypatch, capsys, *args)
        first = (err.splitlines() or [""])[0]
        got = (got_code, transcript_digest(out, tmp_path), first)
        assert got == (code, digest, first_err), args
