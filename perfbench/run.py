#!/usr/bin/env python3
"""Build and run the benchmark harness for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cdna-tx-24g --seed 42 --seconds 10 --trace 0

The harness (perfbench/perfbench.exe, built here with dune from the
checkout's sources) prints a human-readable summary and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.
This wrapper checks that the metrics it printed are exactly the ones
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1) and exits non-zero otherwise, when the build fails, or
when the harness reports a failed output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HARNESS = "perfbench/perfbench.exe"
# The harness's own limit; the workload runs themselves take seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The simulator is built from the checkout's own sources: without them
    # there is nothing to measure.
    for needed in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(f"run from the repository root: {needed} is missing")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(sorted(names))})")
    expected = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "./" + HARNESS],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed", 1)

    cmd = [
        os.path.join("_build", "default", HARNESS),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join("perfbench", "_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"harness printed nothing (exit {run.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness's last line is not JSON: {lines[-1]!r}", 1)
    got = set(result.get("metrics", {}))
    if got != expected:
        fail(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - got)}, unexpected {sorted(got - expected)}",
            1,
        )
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
