#!/usr/bin/env python3
"""End-to-end CBTC benchmark: build from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package in this directory (CMake, Release) into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``),
runs ``perfbench_cbtc`` on the workload, and relays its report. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Any further arguments
(``--toy``, ``--record``, ``--drop-connections K``, ``--expect FILE``)
are passed to the benchmark binary unchanged; see README.md.

Exits non-zero, without a result line, when the library sources are
missing or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    """Runs a build step quietly; returns (ok, combined output)."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        return False, f"{' '.join(cmd)}: timed out after {timeout} s\n{e.output or ''}"
    return p.returncode == 0, p.stdout


def build():
    """Configures (once) and builds perfbench_cbtc; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        ok, log = run_step(cmd, BUILD_TIMEOUT_S)
        if not ok:
            print(log[-4000:], file=sys.stderr)
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench_cbtc")
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = os.path.join(HERE, "expected.json")
    if "--expect" not in extra and os.path.isfile(expected):
        cmd += ["--expect", expected]
    cmd += ["--out-dir", os.path.join(ROOT, ".bench_out")] + extra
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        print(p.stdout, file=sys.stderr, end="")
        return p.returncode
    try:
        json.loads(lines[-1])
    except ValueError:
        print(p.stdout, file=sys.stderr, end="")
        print("perfbench: the benchmark printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(p.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
