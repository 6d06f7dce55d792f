"""Compare a parent checkout with a changed one on every workload.

    python3 perfbench/compare.py --parent /path/to/parent --change . --pairs 10

Both checkouts are measured by this copy of the benchmark, so the
benchmark code and settings are identical on both sides. Pair i runs
both sides with seed 101 + i; even pairs run the parent first,
odd pairs the change first. For every workload and end-to-end metric
the report gives each side's median and quartiles, the share of pairs
the change won (ties count for neither side) and a verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's run-to-run spread (quartile distance over
              median) exceeds the bound, and the runs of the two sides
              overlap;
  better      the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile distance;
  same        otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from harness import HERE, load_spec, run_once, summary

FIRST_SEED = 101


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p, c = summary(parent), summary(change)

    def beats(a, b):
        return a < b if lower else a > b

    wins = sum(1 for a, b in zip(change, parent) if beats(a, b))
    sign = 1 if lower else -1
    worse_by = (sign * (c["median"] - p["median"]) / p["median"]
                if p["median"] else 0.0)
    separated = (all(beats(a, b) for a in change for b in parent)
                 or all(beats(b, a) for a in change for b in parent))
    if max(p["spread"], c["spread"]) > bound and not separated:
        word = "unresolved"
    elif worse_by > bound:
        word = "regression"
    elif (wins >= 0.9 * len(parent)
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
          and beats(c["median"], p["median"])):
        word = "better"
    else:
        word = "same"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "worse_by": worse_by, "bound": bound, "verdict": word}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=".")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = load_spec(HERE.parent)
    sides = {"parent": pathlib.Path(args.parent).resolve(),
             "change": pathlib.Path(args.change).resolve()}
    report = {}
    for name in (w["name"] for w in spec["workloads"]):
        values = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                result = run_once(sides[side], name, FIRST_SEED + i,
                                  spec["run_seconds"])
                if not result["correct"]:
                    print("%s: %s run with seed %d is not correct"
                          % (name, side, FIRST_SEED + i))
                values[side].append(result["metrics"])
        report[name] = {}
        print("%s (%d pairs)" % (name, args.pairs))
        print("  %-12s %-30s %-30s %-7s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "won", "verdict"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = verdict(metric,
                          [m[key]["value"] for m in values["parent"]],
                          [m[key]["value"] for m in values["change"]])
            report[name][key] = row
            print("  %-12s %-30s %-30s %-7s %s (worse by %+.1f%%, "
                  "bound %.3g%%)" % (
                      key, _fmt(row["parent"]), _fmt(row["change"]),
                      "%d/%d" % (row["wins"], row["pairs"]), row["verdict"],
                      100 * row["worse_by"], 100 * row["bound"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


def _fmt(s):
    return "%.4g [%.4g, %.4g]" % (s["median"], s["q1"], s["q3"])


if __name__ == "__main__":
    raise SystemExit(main())
