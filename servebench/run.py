#!/usr/bin/env python3
"""Builds and runs the Prospector serving benchmark.

    python3 servebench/run.py --workload lp_replan --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the harness (servebench/serve_bench.cc) with CMake into
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that is unset;
later runs only re-check the build. It then runs one workload, prints every
metric by name with its unit, saves the harness's full report under
<build dir>/reports/, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list. Any failed correctness gate, a build
error, or a missing metric exits non-zero without that line. See
servebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lp_replan", "fleet_churn", "audit_fenced")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            raise SystemExit("servebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "serve_bench")


def run_harness(binary, args):
    """Runs the harness once; returns its parsed report or exits."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("servebench: harness timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("servebench: harness exited %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("servebench: harness printed no report")
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    wanted = declared_metrics(opts.trace)
    binary = build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace)]
    report = run_harness(binary, args)

    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    path = os.path.join(reports, "%s-seed%d-trace%d.json"
                        % (opts.workload, opts.seed, opts.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    source = report["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or not math.isfinite(got["value"]) or \
                got["unit"] != m["unit"]:
            raise SystemExit("servebench: metric %s missing or malformed"
                             % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    prov = report["provenance"]
    print("workload %s seed %d: %d measured epochs in %.2f s, %d threads, "
          "CPU steal %.1f%%, answer digest %s"
          % (prov["workload"], prov["seed"], prov["measured_epochs"],
             prov["measured_s"], prov["scheduler_threads"],
             100 * report["host"]["cpu_steal_share"],
             report["answer_digest"]))
    # Every metric the harness reported, including ones BENCHMARK.json does
    # not gate (failed_ops_share); the result line carries the declared ones.
    for name, m in source.items():
        samples = m.get("samples")
        suffix = " (%d samples)" % samples if samples is not None else ""
        print("%-36s %14.6g %s%s" % (name, m["value"], m["unit"], suffix))
    print("full report: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
