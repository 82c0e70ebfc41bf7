"""trilin benchmark: oracle, template and reduce workloads.

    python3 perfbench/run.py                      # every workload, untraced
                                                  # and traced, with overhead
    python3 perfbench/run.py --workload oracle --seed 1 --seconds 10 --trace 0

With one workload, the last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it give
every metric by name and unit, with sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("oracle", "template", "reduce")
# seconds one pass over the job list takes at reference speed; --seconds is
# turned into a whole number of passes, so every run does the same work
PASS_S = {"oracle": 12.0, "template": 24.0, "reduce": 8.5}
# oracle's wall_s is the median of two passes: with one, its 7-sun job set
# wall_s alone and spread 8.9% over ten seeds, against 5.5% with two
MIN_PASSES = {"oracle": 2, "template": 1, "reduce": 1}
SETUP_CHILDREN = 5      # extra fresh interpreters timed for setup_s
MIN_SAMPLES = 100       # job times per run, so p90 has 10 samples beyond it
MIN_TRACED_PASSES = 2   # the traced counts are compared between passes
END_TO_END = [("wall_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("decided_ratio", "ratio"), ("correct_ratio", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark cannot run here (for example, no trilin sources)."""


def _import_trilin():
    if not os.path.isfile(os.path.join(SRC, "trilin", "search.py")):
        raise BenchError(f"no trilin sources under {SRC}")
    sys.path.insert(0, SRC)
    import trilin.cli  # noqa: F401  (imports every module)

    mods = {name: sys.modules[f"trilin.{name}"] for name in (
        "graph", "operators", "gadgets", "search", "appendix", "reduction",
        "cli", "errors")}
    return types.SimpleNamespace(tracer=None, **mods)


def _warm_up(tl, workload: str) -> None:
    """First-call cache fills that every process of this kind pays once."""
    if workload == "template":
        for k in (7, 12):  # the wheel / squared-cycle labelings per sun size
            tl.search.template_solve(tl.gadgets.make_sun(k))
    elif workload == "reduce":
        # the cycle-tap feasibility check, run by the first witness request
        r = tl.reduction.compile_formula(tl.reduction.parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
        try:
            tl.reduction.witness_from_assignment(r, (True, True, True))
        except tl.errors.CertificateError:
            pass


def setup(workload: str, seed: int):
    """Input generation, import and warm-up: (trilin, inputs, raw seconds)."""
    t0 = time.perf_counter()
    inputs = workloads.INPUTS[workload](seed)
    tl = _import_trilin()
    _warm_up(tl, workload)
    return tl, inputs, time.perf_counter() - t0


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Normalized set-up seconds of SETUP_CHILDREN fresh interpreters."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"], capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def _percentile(values: list[float], q: float) -> float:
    """Percentile interpolated between the two nearest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _attempt(job, errors):
    """Run one job: (output or verdict, failed, ran to an output)."""
    budget, certificate = errors
    try:
        return job.run(), False, True
    except budget:
        return workloads.UNKNOWN, False, False
    except certificate as exc:
        return f"CertificateError: {exc}", False, False
    except Exception as exc:  # a job that crashes is counted, not fatal
        return f"raised {type(exc).__name__}: {exc}", True, False


def pass_count(workload: str, seconds: float, jobs: int, traced: bool) -> int:
    """Passes that fill `seconds` at reference speed, at least
    MIN_PASSES, enough for MIN_SAMPLES job times and, traced,
    MIN_TRACED_PASSES."""
    return max(MIN_PASSES[workload], round(seconds / PASS_S[workload]),
               -(-MIN_SAMPLES // jobs), MIN_TRACED_PASSES if traced else 1)


def _verdict(job, out, ran):
    """The verdict a job gave; output the check cannot read is a wrong one."""
    if not ran:
        return out
    try:
        return job.check(out)
    except Exception as exc:  # malformed output is a verdict, not a crash
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _passes(tl, workload, seed, jobs, passes) -> dict:
    errors = (tl.errors.BudgetExceededError, tl.errors.CertificateError)
    tracer = tl.tracer
    res = {"times": [], "walls": [], "raw_walls": [], "layers": [],
           "verdicts": defaultdict(set), "counts": Counter()}
    c = res["counts"]
    with speed.SpeedProbe() as probe:
        for _ in range(passes):
            timings = []
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job_id = i
                    with tracer.span(spans.JOB):
                        t0, t1, raw, (out, failed, ran) = probe.time(
                            lambda: _attempt(job, errors))
                else:
                    t0, t1, raw, (out, failed, ran) = probe.time(
                        lambda: _attempt(job, errors))
                timings.append((t0, t1, raw))
                verdict = _verdict(job, out, ran)
                res["verdicts"][job.id].add(repr(verdict))
                c["attempted"] += 1
                c["failed"] += failed
                c["decided"] += verdict != workloads.UNKNOWN
                c["paper"] += verdict == job.known.paper
                c["expected"] += (verdict == job.known.paper
                                  or verdict in job.known.documented)
            times = [raw * probe.factor(t0, t1) for t0, t1, raw in timings]
            res["times"] += times
            wall, raw_wall = sum(times), sum(raw for _, _, raw in timings)
            res["walls"].append(wall)
            res["raw_walls"].append(raw_wall)
            if tracer is not None:
                scale = wall / raw_wall  # the pass's speed normalization
                res["layers"].append({
                    name: (value * scale if unit == "s" else value, unit)
                    for name, (value, unit) in
                    spans.layer_metrics(tracer.summary()).items()})
                if len(res["walls"]) == 1:
                    out_dir = os.path.join(ROOT, ".perfbench_out")
                    os.makedirs(out_dir, exist_ok=True)
                    tracer.write(os.path.join(
                        out_dir, f"trace-{workload}-seed{seed}.csv.gz"))
                tracer.clear()
    return res


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tl, inputs, raw_setup = setup(workload, seed)
    own_setup = speed.normalize_once(raw_setup)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if traced:
            tl.tracer = spans.Tracer()
            tl.tracer.install()
        if workload == "reduce":
            jobs = workloads.reduce_jobs(tl, inputs, workdir)
        else:
            jobs = getattr(workloads, f"{workload}_jobs")(tl, inputs)
        res = _passes(tl, workload, seed, jobs,
                      pass_count(workload, seconds, len(jobs), traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["jobs"] = jobs
    res["own_setup_s"] = own_setup
    return res


def _deterministic(layer: dict) -> dict:
    return {k: v for k, (v, unit) in layer.items()
            if unit in spans.DETERMINISTIC_UNITS}


def _verdict_lines(res) -> list[str]:
    """One line per group of jobs whose verdict differs from the paper's."""
    groups = defaultdict(list)
    for job in res["jobs"]:
        seen = res["verdicts"][job.id]
        v = next(iter(seen)) if len(seen) == 1 else f"varying {sorted(seen)}"
        if v != repr(job.known.paper):
            tag = ("documented" if v in map(repr, job.known.documented)
                   else "UNEXPECTED")
            groups[(tag, v, job.known)].append(job.id)
    return [f"  {tag}: {len(ids)} job(s) gave {v} where the paper says "
            f"{known.paper!r}: {', '.join(ids[:4])}{' ...' if len(ids) > 4 else ''}"
            f"\n    ({known.documented_source or known.source})"
            for (tag, v, known), ids in groups.items()]


def report(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setups = _setup_samples(workload, seed)
    res = measure(workload, seed, seconds, traced)
    setups.append(res["own_setup_s"])
    c = res["counts"]
    n = c["attempted"]
    lines = [f"workload {workload}  seed {seed}  trace {int(traced)}  "
             f"passes {len(res['walls'])}  jobs/pass {len(res['jobs'])}  samples {n}"]
    lines += _verdict_lines(res)
    stable = all(len(v) == 1 for v in res["verdicts"].values())
    correct = c["expected"] == n and c["failed"] == 0 and stable
    lines.append(f"  failed_ratio {c['failed'] / n:.4f} ratio ({c['failed']} of {n} "
                 f"jobs); raw wall per pass {statistics.median(res['raw_walls']):.3f} s")
    if traced:
        first = _deterministic(res["layers"][0])
        same = all(_deterministic(layer) == first for layer in res["layers"][1:])
        lines.append(f"  self-check: {len(res['layers'])} traced passes give "
                     f"{'identical' if same else 'DIFFERENT'} counts")
        correct = correct and same
        metrics = {}
        for name, (value, unit) in res["layers"][0].items():
            if unit == "s":
                value = statistics.median(layer[name][0] for layer in res["layers"])
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": statistics.median(res["walls"]), "unit": "s"}
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "job_p50_s": _percentile(res["times"], 0.5),
            "job_p90_s": _percentile(res["times"], 0.9),
            "decided_ratio": c["decided"] / n,
            "correct_ratio": c["paper"] / n,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        lines.append(f"  job percentiles over {n} samples; setup_s median of "
                     f"{len(setups)} fresh interpreters; times in seconds at "
                     f"reference speed (perfbench/speed.py)")
    for name, m in metrics.items():
        lines.append(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    return {"lines": lines, "result": {"correct": correct, "attempted": n,
                                       "failed": c["failed"], "metrics": metrics}}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=900)
            print(proc.stdout.rstrip("\n"), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[traced] = json.loads(proc.stdout.splitlines()[-1])
            status |= not results[traced]["correct"]
        untraced = results[0]["metrics"]["wall_s"]["value"]
        traced_wall = results[1]["metrics"]["trace.wall_s"]["value"]
        print(f"tracing overhead on {workload}: {traced_wall - untraced:.3f} s "
              f"({traced_wall:.3f} s traced vs {untraced:.3f} s untraced wall_s)\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.setup_only:
            print(f"{speed.normalize_once(setup(args.workload, args.seed)[2]):.9f}")
            return 0
        out = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
