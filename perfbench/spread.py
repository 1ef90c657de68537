#!/usr/bin/env python3
"""Noise diagnostics: runs the benchmark over several seeds and prints, per
workload and metric, the median, the quartiles and the spread (quartile
distance as a share of the median, as statistics.quantiles(values, n=4)
gives them), plus the host calibration kernel around every run.

    python3 perfbench/spread.py --workloads serving_mix fleet_q --seeds 1-10
    python3 perfbench/spread.py --workloads serving_mix --seeds 3,3 --trace 1

Each run lasts BENCHMARK.json's run_seconds. A seed listed twice checks
that the exact metrics repeat across runs: every metric round prints the
digest of its exact quantities, and a dataset's digests must match. (The
program itself fails a run whose metric rounds of one dataset disagree.)
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
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}, spec


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       done.returncode))
    result = json.loads(lines[-1])
    calib = [float(x) for x in
             re.findall(r"host\.calib_ms (?:before|after): ([0-9.]+)",
                        done.stdout)]
    # Exact digest of each dataset's metric rounds (the program itself
    # fails a run whose metric rounds of one dataset disagree).
    digests = dict(re.findall(r"\(dataset (\d+)\): .* exact digest ([0-9a-f]+)",
                              done.stdout))
    return result, calib, digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    limits, spec = bounds()
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads:
        values, digests = {}, {}
        print("== %s (seeds %s, %d s)" % (workload, args.seeds, seconds))
        for seed in seeds:
            result, calib, digest = run_once(workload, seed, seconds,
                                             args.trace)
            if not result["correct"]:
                raise SystemExit("incorrect run: %s seed %d" % (workload,
                                                                seed))
            if digests.setdefault(seed, digest) != digest:
                raise SystemExit("exact metrics differ between runs of "
                                 "%s seed %d" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  seed %-4d calib %s ms, attempted %d, failed %d" % (
                seed, "/".join("%.2f" % c for c in calib),
                result["attempted"], result["failed"]))
        print("  %-30s %14s %14s %14s %8s %6s" % ("metric", "q1", "median",
                                                   "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(name)
            flag = ""
            if bound and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-30s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                name, q1, med, q3, spread,
                "" if bound is None else "%.3g" % bound, flag))


if __name__ == "__main__":
    main()
