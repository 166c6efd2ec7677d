#!/usr/bin/env python3
"""Runs the serving benchmark over several seeds and reports its spread.

    python3 servebench/steadiness.py --seeds 1-10 [--workloads lp_replan,...]
        [--out servebench/baseline.json]

Run from the repository root. For every workload it runs
`servebench/run.py --trace 0` once per seed with BENCHMARK.json's
run_seconds, then prints, per end-to-end metric, the median and the
interquartile spread: (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the metric's
bound is flagged. --out writes the medians, spreads and raw values as JSON,
with the host's CPU steal share during each run.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)"
                         % (" ".join(cmd), proc.returncode))
    steal = re.search(r"CPU steal ([\d.]+)%", proc.stdout)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return metrics, float(steal.group(1)) / 100


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    opts = parser.parse_args()

    seeds = parse_seeds(opts.seeds)
    result = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    for workload in opts.workloads.split(","):
        runs, steal = zip(*(run_once(workload, s, spec["run_seconds"])
                            for s in seeds))
        table = {"cpu_steal_share": list(steal)}
        print("== %s (%d seeds, CPU steal %s)"
              % (workload, len(seeds),
                 " ".join("%.1f%%" % (100 * x) for x in steal)))
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print("%-22s median %12.6g %-5s spread %6.2f%% (bound %g)%s"
                  % (m["name"], median, m["unit"], 100 * spread, m["bound"],
                     flag))
            table[m["name"]] = {"median": median, "spread": spread,
                                "unit": m["unit"], "values": values}
        result["workloads"][workload] = table
        sys.stdout.flush()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
