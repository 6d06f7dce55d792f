"""Record the benchmark's baseline: repeated runs of every workload,
each with another seed, and the spread of every end-to-end metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Run from the root of a checkout. For each workload in BENCHMARK.json
it makes `--runs` untraced runs (seeds 1, 2, ...) and one traced run
with seed 1, then prints, per metric, the median, the quartiles, the
spread (quartile distance over median) and the metric's bound from
BENCHMARK.json. A metric is steady when its spread is below a third of
its bound. The record keeps the git sha, Python version, nproc and the
seeds next to every value.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess

from harness import load_spec, run_once, summary


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    spec = load_spec(root)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, 1 + args.runs))
    record = {"git_sha": git_sha(root),
              "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "run_seconds": seconds,
              "seeds": seeds,
              "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = run_once(root, name, seed, seconds)
            runs.append(result)
            print("%-13s seed %-3d %s" % (name, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        metrics = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = summary(values)
            stats["bound"] = bounds[metric]
            stats["values"] = values
            metrics[metric] = stats
            ok = stats["spread"] < bounds[metric] / 3
            steady = steady and ok
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%.4f  bound %.3f  %s" % (
                      metric, stats["median"], stats["q1"], stats["q3"],
                      stats["spread"], bounds[metric],
                      "steady" if ok else "NOT steady"), flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "end_to_end": metrics}
        traced = run_once(root, name, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in
                              traced["metrics"].items()}
        record["workloads"][name] = entry
    record["steady"] = steady
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
