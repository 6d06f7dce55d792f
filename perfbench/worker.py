"""One pass of one workload in a fresh process.

Started by run.py from the root of a checkout with src/ on PYTHONPATH.
The worker imports koszulbench and builds the seeded job list; the
time from --started (run.py's clock just before it started the
interpreter) until then is set-up. Then a single client runs the jobs
as a closed loop (the next job starts when the previous one returns),
records each job's latency, and afterwards, untimed, checks every
output. The last line on stdout is a JSON report.

Modes: `setup` stops after set-up; `timed` runs the loop untraced;
`traced` runs it under the span recorder and adds per-layer numbers.

From its start the worker samples the machine's speed (speed.py):
during set-up, before every job, after the last, and during any job
that runs longer than half a second. Every latency it reports, and its
set-up time, is scaled to seconds at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

import speed


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--check", choices=("full", "digest"),
                        default="full")
    args = parser.parse_args(argv)

    clock = time.perf_counter
    began = clock()
    sampler = speed.Sampler(clock)
    sampler.arm(speed.SETUP_TICK_S, speed.SETUP_TICK_S)

    import koszulbench  # set-up includes the import
    import workloads

    here = pathlib.Path.cwd().resolve() / "src" / "koszulbench"
    if pathlib.Path(koszulbench.__file__).resolve().parent != here:
        sys.exit("koszulbench was imported from %s, not %s"
                 % (koszulbench.__file__, here))

    module = workloads.BY_NAME[args.workload]
    jobs = workloads.interleave(module.make_jobs(args.seed))
    ready = clock()
    sampler.disarm()

    def setup_s():
        # the probes' own time is taken out before scaling
        return ((ready - args.started - sampler.spent(began, ready))
                * sampler.scale(began, ready))

    if args.mode == "setup":
        for _ in range(speed.NEAR):
            sampler.sample()
        print(json.dumps({"setup_s": setup_s()}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        jobs = [workloads.Job(j.kind, j.label,
                              tracer.span("job." + j.kind, j.call), j.args,
                              j.meta) for j in jobs]

    results = [None] * len(jobs)
    errors = {}
    spans = []
    cpu0 = _cpu_s()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        sampler.sample()
        sampler.arm(speed.LONG_JOB_S, speed.LONG_TICK_S)
        t0 = clock()
        try:
            results[i] = job.call(*job.args)
        except Exception as exc:  # a failed job is counted, not fatal
            errors[i] = "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        sampler.disarm()
        spans.append((t0, t1))
    sampler.sample()
    cpu = _cpu_s() - cpu0
    raw = [t1 - t0 - sampler.spent(t0, t1) for t0, t1 in spans]
    latencies = [t * sampler.scale(t0, t1)
                 for t, (t0, t1) in zip(raw, spans)]
    rss = _peak_rss_mb()
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        tracer.dump(pathlib.Path(".perfbench-out") / (
            "spans-%s-seed%d.json" % (args.workload, args.seed)))

    # Checks run after the loop and are not timed. With --check digest
    # the worker only fingerprints the results; run.py compares them
    # with those of the run's first pass, which was checked in full.
    import hashlib  # only now: its libraries would count in peak_rss_mb
    digests = [hashlib.sha256(repr(r).encode()).hexdigest() for r in results]
    check = module.make_checker(jobs, results)
    ok = []
    for i, result in enumerate(results):
        good = i not in errors
        if good and args.check == "full":
            try:
                good = bool(check(i, result))
            except Exception as exc:  # a check that crashes is a failure
                errors[i] = "check %s: %s" % (type(exc).__name__, exc)
                good = False
        ok.append(good)

    # Canary: deliberately corrupted copies of the first clean result of
    # each job kind (first scalar, last scalar, longest string changed)
    # must all count as failed, or the checks are too weak to trust.
    weak = []
    seen = set()
    for i, job in enumerate(jobs):
        if args.check != "full" or job.kind in seen or not ok[i]:
            continue
        seen.add(job.kind)
        for where in workloads.CORRUPTIONS:
            try:
                accepted = check(i, workloads.corrupt(results[i], where))
            except Exception:  # a crash on bad data is a rejection
                accepted = False
            if accepted:
                weak.append(job.kind)
                break

    report = {
        "setup_s": setup_s(),
        "raw_wall_s": sum(raw),
        "wall_s": sum(latencies),
        "latencies": latencies,
        "probe_s": sampler.median(),
        "ok": ok,
        "digests": digests,
        "labels": [job.label for job in jobs],
        "errors": {str(i): e for i, e in sorted(errors.items())},
        "weak_checks": weak,
        "peak_rss_mb": rss,
        "cpu_s": cpu,
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
