"""koszulbench benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload dyck-scan --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from
./src. Workloads: dyck-scan, multiplicity, koszul (see README.md).

Every pass of the workload's job list runs in a fresh worker process
(worker.py), so no two passes share module caches. `--seconds` sets
how many passes a run makes: about seconds / (nominal pass length),
at least one. With `--trace 0` the passes run untraced and the run
reports the end-to-end metrics; with `--trace 1` it runs one untraced
and one traced pass and reports the per-layer metrics. A few more
workers, started between the passes, only import and build inputs, so
that set-up time is a median of several starts. The first pass's
outputs are checked in full, with the corruption canary; every later
pass must give the same outputs, job for job (compared by a SHA-256 of
each result).

Every time is reported in seconds at a reference speed: the worker
samples the machine's speed with a plain-Python probe while it works
and scales each measured time by it, which cancels the machine's own
drift in speed (speed.py). The lines for people also give the
unscaled seconds.

The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent

from speed import PROBE_REF_S  # noqa: E402  (stdlib-only module)

# Seconds one pass takes on a 2-core box with Python 3.11.
NOMINAL_PASS_S = {"dyck-scan": 10.5, "multiplicity": 11.0, "koszul": 7.0}
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"),
              ("job_s.p90", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "1"))


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def spawn(root, workload, seed, mode, check):
    """Run one worker and return its report. The worker's clock
    (time.perf_counter, CLOCK_MONOTONIC on Linux) is the one this
    process uses, so it times its set-up from the moment given in
    --started, before the interpreter was started."""
    # a fixed hash seed keeps str-keyed set order, and with it the
    # order of work inside the program, the same from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--check", check]
    proc = subprocess.Popen(cmd + ["--started", repr(time.perf_counter())],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker %s %s exited with %d"
                         % (workload, mode, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a mean of all the
    order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    density over each one's share of [0, 1] (Simpson's rule). It moves
    smoothly when two jobs near the quantile swap places, where the
    usual interpolation between two neighbours would jump by the gap
    between them."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(norm + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    steps = 64
    total = 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1 / (n * steps)
        area = density(lo) + density(lo + steps * h)
        for k in range(1, steps):
            area += (4 if k % 2 else 2) * density(lo + k * h)
        total += x * area * h / 3
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # on SIGTERM, leave through spawn's `finally`, which ends the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = pathlib.Path.cwd()
    if not (root / "src" / "koszulbench" / "__init__.py").is_file():
        print("error: no koszulbench sources under %s" % (root / "src"),
              file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    setups, reports = [], []
    if args.trace:
        modes = ["timed", "traced"]
    else:
        modes = ["timed"] * max(1, round(args.seconds / NOMINAL_PASS_S[name]))
    # The set-up-only starts go before each pass in turn, so set-up time
    # is sampled at several moments of the run, not in one burst.
    extra = max(0, SETUP_SAMPLES - len(modes))
    order = []
    for i, mode in enumerate(modes):
        order += ["setup"] * ((i + 1) * extra // len(modes)
                              - i * extra // len(modes))
        order.append(mode)
    try:
        for mode in order:
            # the first pass is checked in full; every later pass must
            # give the same results, job for job
            report = spawn(root, name, seed, mode,
                           "digest" if reports else "full")
            setups.append(report["setup_s"])
            if mode != "setup":
                reports.append(report)
    except (BenchError, OSError, subprocess.TimeoutExpired,
            ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    first = reports[0]
    if any(r["labels"] != first["labels"] for r in reports):
        print("error: passes ran different job lists", file=sys.stderr)
        return 1
    for r in reports[1:]:
        for i, (mine, checked) in enumerate(zip(r["digests"],
                                                first["digests"])):
            if mine != checked or not first["ok"][i]:
                r["ok"][i] = False
                r["errors"].setdefault(str(i), "differs from the checked"
                                       " first pass")
    attempted = sum(len(r["ok"]) for r in reports)
    failed = sum(r["ok"].count(False) for r in reports)
    weak = sorted({k for r in reports for k in r["weak_checks"]})
    for r in reports:
        for i, good in enumerate(r["ok"]):
            if not good:
                print("FAILED job %d (%s): %s" % (
                    i, r["labels"][i], r["errors"].get(str(i), "wrong answer")),
                    file=sys.stderr)
    for kind in weak:
        print("WEAK CHECK: a corrupted %s result was accepted" % kind,
              file=sys.stderr)

    # Every per-pass figure is reduced by a median over the passes, so a
    # pass caught in a slow spell of the machine does not move it. Job i
    # is the same work in every pass, so its latency is taken as its
    # best over the passes, which drops the passes a slow spell hit it
    # in; the percentiles are then taken over the job list.
    timed = [r for r, m in zip(reports, modes) if m == "timed"]
    best = [min(t) for t in zip(*(r["latencies"] for r in timed))]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "job_s.p50": quantile(best, 0.5),
        "job_s.p90": quantile(best, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_ratio": (attempted - failed) / attempted,
    }
    beyond = sum(1 for x in best if x > e2e["job_s.p90"])
    raw_wall = statistics.median(r["raw_wall_s"] for r in timed)
    passes = "median of %d untraced passes" % len(timed)
    jobs = "n=%d jobs, each its best of %d untraced passes" % (len(best),
                                                              len(timed))
    notes = {
        "setup_s": "median of %d worker starts" % len(setups),
        "wall_s": "%s; unscaled %.4g s" % (passes, raw_wall),
        "job_s.p50": jobs,
        "job_s.p90": "%s, %d beyond" % (jobs, beyond),
        "peak_rss_mb": passes,
        "ok_ratio": "fail_ratio %.4f: %d of %d jobs failed" % (
            failed / attempted, failed, attempted),
    }
    print("workload %s  seed %d  %d pass(es): fresh worker each, closed loop,"
          " 1 client" % (name, seed, len(modes)))
    print("  times in reference seconds: speed probe median %.4g ms over the"
          " passes, reference %.4g ms" % (
              1e3 * statistics.median(r["probe_s"] for r in timed),
              1e3 * PROBE_REF_S))
    for key, unit in END_TO_END:
        print("  %-12s %12.6g %-3s %s" % (key, e2e[key], unit, notes[key]))

    if args.trace:
        traced = reports[modes.index("traced")]
        values = dict(traced["layers"])
        values["proc.cpu_s"] = timed[0]["cpu_s"]
        values["trace.overhead_ratio"] = traced["wall_s"] / timed[0]["wall_s"]
        print("  per-layer numbers from one traced pass; spans in "
              ".perfbench-out/spans-%s-seed%d.json" % (name, seed))
        for key in sorted(values):
            print("    %-40s %14.6g %s" % (key, values[key], layer_unit(key)))
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(values.items())}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0 and not weak,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
