"""Helpers shared by baseline.py and compare.py: run the benchmark as
a subprocess and summarise repeated values."""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_spec(root):
    with open(pathlib.Path(root) / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace=0):
    """Run this copy of run.py with the checkout as working directory
    and return its JSON result. Two program versions are thus measured
    by identical benchmark code."""
    cmd = [sys.executable, str(HERE / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd),
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    """Median, quartiles (statistics.quantiles, n=4) and the spread,
    the quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}
