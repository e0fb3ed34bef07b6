#!/usr/bin/env python3
"""polinv benchmark: four workloads, end-to-end metrics and a traced run.

Usage, from the root of a polinv checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is certify-dm, d4-compare, query-mix, small-certs, or all.  One closed-loop
client (this process) runs one workload at a time.  Every interpreter it
starts is fresh, so process-global caches in polinv start cold, as they do for
a CLI call.  It repeats passes of the workload for S seconds, checks every
output, and prints one line per metric followed by a JSON result as the last
line.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics instead.  perfbench/README.md describes every workload and
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from functools import partial
from pathlib import Path

import queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 165        # one workload ends its last pass well inside 180 s
SETUP_PROBES = 5        # extra bare start-ups per run, for a steady setup_s median

Call = namedtuple("Call", "kind argv check")
Launch = namedtuple("Launch", "launched ended result")

# ---------------------------------------------------------------------------
# Workloads and their output checks
# ---------------------------------------------------------------------------

# Invariant dimensions of D_4 on two copies by bidegree (a, b), a <= b, at
# total degree <= 6; odd total degrees have none.  The polarization span has
# the same dimensions except at (3, 3), where it is 9: the gap.
D4_INVARIANT_DIMS = {(0, 0): 1, (0, 2): 1, (1, 1): 1, (0, 4): 3, (1, 3): 3, (2, 2): 4,
                     (0, 6): 4, (1, 5): 6, (2, 4): 9, (3, 3): 10}
D4_TABLE = {(a, t - a): (D4_INVARIANT_DIMS.get((min(a, t - a), max(a, t - a)), 0),) * 2
            for t in range(7) for a in range(t + 1)}
D4_TABLE[(3, 3)] = (10, 9)


def check_certify_dm(code, report) -> bool:
    rows = {tuple(r["multidegree"]): r for r in report["certificate_rows"]}
    dims = {deg: (rows[deg].get("dim_invariants"), rows[deg].get("dim_pol_span"))
            for deg in ((2, 2), (3, 3))}
    return (code == 0 and all(c["pass"] for c in report["checks"])
            and dims == {(2, 2): (4, 4), (3, 3): (10, 9)})


def check_d4_compare(code, report) -> bool:
    table = {tuple(r["multidegree"]): (r["dim_invariants"], r["dim_pol_span"])
             for r in report["table"]}
    return code == 1 and table == D4_TABLE


def check_scenario(scenario, code, report) -> bool:
    return code == 0 and report["scenario"] == scenario and report["result"] == "PASS"


def certify_dm_jobs(seed):
    return [[Call("certify", ["certify", "dm"], check_certify_dm)]]


def d4_compare_jobs(seed):
    spec = WORK / "d4.json"
    spec.write_text(json.dumps({"builtin": {"family": "D", "m": 4}}), encoding="utf-8")
    argv = ["compare", str(spec), "--copies", "2", "--max-degree", "6"]
    return [[Call("compare", argv, check_d4_compare)]]


def query_mix_jobs(seed):
    stream = queries.generate(seed, WORK / "query-mix")
    return [[Call(q["kind"], q["argv"], partial(queries.check, q)) for q in stream]]


def small_certs_jobs(seed):
    return [[Call("certify", ["certify", s], partial(check_scenario, s))]
            for s in ("torus", "so5", "sl3", "sl2-r1")]


# Each workload gives, per pass, a list of interpreters, each a list of calls.
WORKLOADS = {
    "certify-dm": certify_dm_jobs,
    "d4-compare": d4_compare_jobs,
    "query-mix": query_mix_jobs,
    "small-certs": small_certs_jobs,
}

# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# Per-layer metrics read from span totals per layer, the columns below (see
# Tracer.totals in spans.py, which also says what the counters x, y, z hold).
CALLS, SELF_S, S, X, Y, Z = range(6)
PER_LAYER_TIMES = {
    "linalg.rref": ("calls", "self_s"),
    "linalg.solve_in_span": ("calls", "self_s"),
    "groups.act": ("calls", "self_s"),
    "groups.reynolds": ("calls", "self_s"),
    "groups.invariant_dimension": ("calls", "self_s"),
    "groups.enumerate_group": ("s",),
    "polarization.products": ("calls", "self_s"),
    "polarization.graded_span_basis": ("calls", "self_s"),
    "polarization.membership": ("calls", "self_s"),
    "polarization.polarization_generators": ("s",),
    "polarization.certificate_combination": ("s",),
    "poly.substitute": ("calls", "self_s"),
    "nullcone.torus_nullcone_member": ("calls", "self_s"),
    "nullcone.brute_box_functional": ("calls", "self_s"),
    "nullcone.binary_form_nullcone_member": ("calls", "self_s"),
    "nullcone.matrix_nilpotent": ("calls", "self_s"),
    "liealg.subalgebra_closure": ("s",),
    "liealg.sl2_invariant_dimension": ("s",),
    "liealg.jacobian_rank": ("s",),
    "liealg.generic_orbit_dimension": ("s",),
    "liealg.so5_pol2_generators": ("s",),
    "reports.render": ("s",),
}
COLUMN = {"calls": CALLS, "self_s": SELF_S, "s": S}
# name: (layer, numerator, denominator, unit); without a denominator, per pass.
PER_LAYER_COUNTS = {
    "linalg.rref.cells": ("linalg.rref", X, None, "count"),
    "linalg.rref.rank_yield": ("linalg.rref", Y, Z, "ratio"),
    "linalg.solve_in_span.found_ratio": ("linalg.solve_in_span", Y, CALLS, "ratio"),
    "groups.invariant_dimension.monomials": ("groups.invariant_dimension", X, None, "count"),
    "groups.invariant_dimension.yield": ("groups.invariant_dimension", Y, X, "ratio"),
    "polarization.products.count": ("polarization.products", X, None, "count"),
    "polarization.graded_span_basis.rank_yield": ("polarization.graded_span_basis", Y, Z,
                                                  "ratio"),
    "polarization.membership.member_ratio": ("polarization.membership", Y, CALLS, "ratio"),
}


def per_layer_metrics(totals: dict, passes: int, overhead_s: float) -> dict:
    """Per-pass counts and times, ratios over all traced passes, and the tracing overhead.

    A ratio whose base is 0 (the workload never calls the layer) reads 0.
    """
    values = {}
    for layer, kinds in PER_LAYER_TIMES.items():
        for kind in kinds:
            values[f"{layer}.{kind}"] = (totals[layer][COLUMN[kind]] / passes,
                                         "count" if kind == "calls" else "s")
    for name, (layer, num, den, unit) in PER_LAYER_COUNTS.items():
        row = totals[layer]
        if den is None:
            values[name] = (row[num] / passes, unit)
        else:
            values[name] = (row[num] / row[den] if row[den] else 0.0, unit)
    values["trace.overhead_s"] = (overhead_s, "s")
    return values


# ---------------------------------------------------------------------------
# Interpreters and passes
# ---------------------------------------------------------------------------

class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("POLINV_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argvs: list, trace: bool, deadline: float, spans_file: Path = None) -> Launch:
    """Run one fresh interpreter over the argvs; result is None if it failed."""
    job = WORK / "job.json"
    job.write_text(json.dumps({"calls": argvs, "trace": trace,
                               "spans_file": str(spans_file)}), encoding="utf-8")
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return Launch(launched, time.monotonic(), None)
    ended = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return Launch(launched, ended, None)
    result = json.loads(proc.stdout)
    if Path(result["polinv_file"]).resolve().parent != (SRC / "polinv").resolve():
        raise BenchmarkError(f"imported polinv from {result['polinv_file']}, not {SRC}")
    return Launch(launched, ended, result)


def run_pass(jobs: list, trace: bool, deadline: float, workload: str) -> list:
    return [launch([c.argv for c in calls], trace, deadline, WORK / f"spans-{workload}-{i}.npz")
            for i, calls in enumerate(jobs)]


def check_pass(jobs: list, launches: list, reference: list = None) -> tuple:
    """(attempted, failed); with a reference pass, outputs must also match it byte for byte."""
    attempted = failed = 0
    for i, (calls, run) in enumerate(zip(jobs, launches)):
        for j, call in enumerate(calls):
            attempted += 1
            if run.result is None:
                failed += 1
                continue
            out = run.result["calls"][j]
            try:
                ok = call.check(out["code"], json.loads(out["stdout"]))
            except (ValueError, KeyError, TypeError):
                ok = False
            if reference is not None:
                expected = reference[i].result
                ok = ok and expected is not None and out["stdout"] == expected["calls"][j]["stdout"]
            failed += not ok
    return attempted, failed


def completed(launches: list) -> bool:
    return all(run.result is not None for run in launches)


def pass_wall(launches: list) -> float:
    return sum(run.ended - run.launched for run in launches)


def end_to_end_metrics(jobs: list, passes: list, probes: list, extra: dict) -> dict:
    setups = [run.result["imported_at"] - run.launched
              for run in [run for p in passes for run in p] + probes if run.result is not None]
    calls = [(call.kind, out["seconds"])
             for p in passes for run, job in zip(p, jobs)
             for call, out in zip(job, run.result["calls"])]
    extra["queries_per_s"] = (len(calls) / sum(s for _, s in calls), "1/s")
    for name, kinds in (("membership", ("membership",)), ("nullcone", queries.NULLCONE_KINDS)):
        ms = [1000 * s for kind, s in calls if kind in kinds]
        if len(ms) >= 2:
            extra[f"{name}_p50_ms"] = (statistics.median(ms), "ms")
            extra[f"{name}_p90_ms"] = (statistics.quantiles(ms, n=10)[-1], "ms")
            extra[f"{name}_samples"] = len(ms)
    return {
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(run.result["maxrss_kb"] for run in p) / 1024
                                          for p in passes), "MB"),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat passes for `seconds`; traced, each traced pass follows an untraced one."""
    WORK.mkdir(exist_ok=True)
    jobs = [[c._replace(argv=["--format", "structured"] + c.argv) for c in calls]
            for calls in WORKLOADS[workload](seed)]
    deadline = time.monotonic() + DEADLINE_S
    launch([], False, deadline)  # writes bytecode and warms the file cache
    probes = [] if trace else [launch([], False, deadline) for _ in range(SETUP_PROBES)]
    attempted = failed = 0
    passes, untraced = [], []
    started = time.monotonic()
    while True:
        reference = None
        if trace:
            reference = run_pass(jobs, False, deadline, workload)
            untraced.append(reference)
            a, f = check_pass(jobs, reference)
            attempted, failed = attempted + a, failed + f
        launches = run_pass(jobs, trace, deadline, workload)
        a, f = check_pass(jobs, launches, reference)
        attempted, failed = attempted + a, failed + f
        passes.append(launches)
        now = time.monotonic()
        step = pass_wall(launches) + (pass_wall(reference) if trace else 0.0)
        if (not completed(launches) or now - started + step > seconds
                or now + step > deadline):
            break
    passes = [p for p in passes if completed(p)]
    untraced = [p for p in untraced if completed(p)]
    if not passes or (trace and not untraced):
        raise BenchmarkError("no pass of the workload completed")

    extra = {"passes": len(passes), "calls": attempted,
             "failed_ratio": (failed / attempted, "ratio")}
    if trace:
        totals = {}
        for run in (run for p in passes for run in p):
            for layer, row in run.result["layers"].items():
                totals[layer] = [a + b for a, b in zip(totals.get(layer, [0.0] * 6), row)]
        overhead = (statistics.median(pass_wall(p) for p in passes)
                    - statistics.median(pass_wall(p) for p in untraced))
        metrics = per_layer_metrics(totals, len(passes), overhead)
    else:
        metrics = end_to_end_metrics(jobs, passes, probes, extra)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def metadata() -> dict:
    commit = None  # a checkout without git metadata; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "polinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def print_block(workload: str, seed: int, trace: bool, meta: dict, result: dict) -> None:
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value in list(result["metrics"].items()) + list(result["extra"].items()):
        if isinstance(value, tuple):
            print(f"  {name:46s} {value[0]:.6g} {value[1]}")
        else:
            print(f"  {name:46s} {value}")


def as_result(result: dict, prefix: str = "") -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polinv" / "cli.py").is_file():
        print(f"error: no polinv sources under {SRC}", file=sys.stderr)
        return 2
    meta = metadata()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_block(name, args.seed, bool(args.trace), meta, result)
        record = dict(as_result(result), workload=name, seed=args.seed, trace=args.trace,
                      extra=result["extra"], **meta)
        with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        part = as_result(result, prefix=f"{name}." if args.workload == "all" else "")
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update(part["metrics"])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
