#!/usr/bin/env python3
"""Records the expected outputs the benchmark checks every iteration against.

Usage (from the root of a checkout):

    python3 perfbench/record.py --seeds 0-15 [--workloads a,b]

Runs each workload once per seed (``--seconds 1``) with ``--record``
and merges the observed values (edge counts, stretch where computed,
final dynamic state, sweep aggregates) into ``perfbench/expected.json``.
Record only from a commit whose outputs are known to be right: later
runs fail any iteration that does not reproduce these values.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["static_100k", "shadowed_100k_lean", "dynamic_churn_20k", "paper_sweep"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,7,9")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    doc = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            doc = json.load(f)
    for w in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", "1", "--trace", "0", "--expect", os.devnull,
                 "--record"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else {}
            if not result.get("correct"):
                print(p.stdout, file=sys.stderr)
                sys.exit(f"record: {w} seed {seed} did not pass its structural checks")
            rec = next(l for l in lines if l.startswith("record "))[len("record "):]
            doc.setdefault(w, {})[str(seed)] = json.loads(rec)
            print(f"{w} seed {seed}: {rec}", flush=True)
            with open(EXPECTED, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
