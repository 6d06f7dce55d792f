"""Pieces shared by the three workloads.

A workload is a function `make_jobs(seed)` returning a list of Job
records plus a function `check(jobs, results, index)` that decides
whether one job's output is right. Jobs are plain callables so the
closed loop in worker.py can time them one after another; results are
plain data (lists, dicts, ints, strings) so a check can compare them
and `corrupt` can damage one on purpose.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field


@dataclass
class Job:
    """One timed unit of work: a single library call, one CLI command,
    or a fixed batch of tiny queries."""
    kind: str
    label: str
    call: object
    args: tuple = ()
    # free-form data the check needs (expected values, partner index)
    meta: dict = field(default_factory=dict)


def interleave(jobs):
    """Spread each job kind evenly over the job list, keeping the order
    within a kind, and renumber the `partner` references.

    The machine's speed drifts over seconds. A kind whose jobs ran back
    to back would put all of its latencies, and so a percentile that
    falls among them, into one short window of that drift."""
    kinds = {}
    for index, job in enumerate(jobs):
        kinds.setdefault(job.kind, []).append(index)
    slots = sorted((((rank + 0.5) / len(members), order), index)
                   for order, members in enumerate(kinds.values())
                   for rank, index in enumerate(members))
    new_index = {old: new for new, (_, old) in enumerate(slots)}
    out = [jobs[old] for _, old in slots]
    for job in out:
        if "partner" in job.meta:
            job.meta["partner"] = new_index[job.meta["partner"]]
    return out


def run_cli(main, argv):
    """Run koszulbench.cli.main in-process, capturing both streams.
    Returns [exit_code, stdout, stderr]."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


CORRUPTIONS = ("first", "last", "longest")


def corrupt(value, where="first"):
    """Return a copy of a plain-data result with one part changed.

    `first` and `last` change the first or last scalar: a bool flipped,
    an int bumped, a string extended (dicts are walked in sorted key
    order, so the change is deterministic). The first scalar is often
    a cheap guard such as an exit code. `longest` changes the middle
    digit of the longest string, which is the payload of a CLI job."""
    if where == "longest":
        strings = list(_strings(value))
        if not strings:
            return corrupt(value, "last")
        return _replace(value, max(strings, key=len))
    last = where == "last"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "#"
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        if not value:
            return [0]
        out = list(value)
        t = -1 if last else 0
        out[t] = corrupt(value[t], where)
        return out
    if isinstance(value, dict):
        if not value:
            return {"#": 0}
        key = sorted(value, key=str)[-1 if last else 0]
        out = dict(value)
        out[key] = corrupt(value[key], where)
        return out
    raise TypeError("cannot corrupt %r" % type(value).__name__)


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings(item)


def _replace(value, target):
    """Copy `value` with the first string that is `target` damaged."""
    done = [False]

    def walk(v):
        if isinstance(v, str) and v is target and not done[0]:
            done[0] = True
            digits = [i for i, ch in enumerate(v) if ch.isdigit()]
            if not digits:
                return v + "#"
            i = digits[len(digits) // 2]
            return v[:i] + str((int(v[i]) + 1) % 10) + v[i + 1:]
        if isinstance(v, (list, tuple)):
            return [walk(item) for item in v]
        if isinstance(v, dict):
            return {k: walk(item) for k, item in v.items()}
        return v

    return walk(value)


def laurent_plain(poly):
    """A LaurentPoly as a sorted list of [exponent, coefficient]."""
    return [[e, c] for e, c in sorted(poly.items())]
