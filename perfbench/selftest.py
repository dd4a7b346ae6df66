#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes (about a minute).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Checks, on every workload at toy size, that:
  * a plain run and a traced run each emit exactly the metrics
    BENCHMARK.json names, with the units it gives, and pass their checks;
  * a paper_sweep shard that drops its first connection
    (serve_config::drop_connections = 1) raises net.requeued_blocks
    while the dispatched aggregate stays bitwise equal to the in-process
    one and failed_frac stays 0;
  * a deliberately wrong expected value fails every operation
    (failed_frac = 1);
  * an unknown workload exits non-zero without a result line.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
WORKLOADS = ["static_100k", "shadowed_100k_lean", "dynamic_churn_20k", "paper_sweep"]

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--toy", "--out-dir", OUT, *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=170)
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p.stdout


def failed_frac(result):
    return result["failed"] / result["attempted"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check([w["name"] for w in bench["workloads"]] == WORKLOADS, "BENCHMARK.json names the four workloads")
    os.makedirs(OUT, exist_ok=True)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, result, _ = run(w, trace)
            ok = code == 0 and result is not None
            check(ok and result["correct"] and result["failed"] == 0,
                  f"{w} trace {trace}: runs and passes its output checks")
            if ok:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want[trace], f"{w} trace {trace}: emits every named metric with its unit")

    code, result, _ = run("paper_sweep", 1, "--drop-connections", "1")
    ok = code == 0 and result is not None
    check(ok and result["metrics"]["net.requeued_blocks"]["value"] > 0,
          "dropped shard connection raises net.requeued_blocks")
    check(ok and result["correct"] and failed_frac(result) == 0,
          "dropped shard connection: aggregate bitwise equal, failed_frac 0")

    wrong = os.path.join(OUT, "wrong_expected.json")
    with open(wrong, "w") as f:
        json.dump({"static_100k.toy": {"3": {"edges": 1}}}, f)
    code, result, _ = run("static_100k", 0, "--expect", wrong)
    check(code == 0 and result is not None and not result["correct"] and failed_frac(result) == 1.0,
          "wrong expected value gives failed_frac = 1")

    code, result, _ = run("no_such_workload", 0)
    check(code != 0 and result is None, "unknown workload exits non-zero without a result")

    print(f"{len(failures)} check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
