#!/usr/bin/env python3
"""Compare barracuda-bench result documents (stdlib only).

Each FILE is a document written by `run.py --out FILE` (or
`barracuda-bench --out FILE`); one document may hold several workloads.

  compare.py BASE...                        one side: medians, quartiles
  compare.py BASE... --change CHANGE...     parent against change
  compare.py BASE... --change CHANGE... --pairs
                                            BASE[i] and CHANGE[i] ran as a
                                            pair (alternating order)
  compare.py BASE... --write-baseline OUT   summarise BASE into OUT

Every row is one (workload, metric): the median and the quartiles
(statistics.quantiles, n=4) of each side, and the spread, the distance
between the quartiles over the median. A metric with a bound in
BENCHMARK.json is labelled "unresolved" when a side's spread exceeds
the bound, unless every change run beats every parent run. With both
sides it is a "regression" when the change's median is worse than the
parent's by more than the bound. --pairs claims a gain only when the
change wins at least 9 of 10 pairs (ties count for neither) and the
medians differ by more than the parent's interquartile range.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = (m["better"], m.get("bound"))
    for m in spec.get("per_layer", []):
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(paths):
    """{workload: {metric: [values in file order]}}, units, documents."""
    values, units, docs = {}, {}, []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        docs.append(doc)
        for workload, result in doc["workloads"].items():
            if not result["correct"]:
                print("warning: %s: %s reported incorrect output"
                      % (path, workload), file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
                units[name] = metric["unit"]
    return values, units, docs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(base, change, better):
    """How much worse the change is, as a share of the base (<0 = better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def fmt(x):
    return "%.6g" % x


def write_baseline(path, values, units, docs, bounds):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    summary = {}
    widest = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, xs in metrics.items():
            q1, med, q3 = quartiles(xs)
            summary[workload][name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "spread": spread(xs), "values": xs}
            widest[name] = max(widest.get(name, 0.0), spread(xs))
    # Each end-to-end bound is three times the widest spread any workload
    # showed, rounded up to a whole percent, at least 3% and at most
    # 25%; setup_s always takes the largest bound, 25%.
    derived = {}
    for name, (_, bound) in bounds.items():
        if bound is None or name not in widest:
            continue
        derived[name] = min(0.25, max(0.03,
                                      math.ceil(300 * widest[name]) / 100))
    if "setup_s" in derived:
        derived["setup_s"] = 0.25
    doc = {
        "host": docs[0]["host"],
        "commit": commit,
        "seconds": docs[0]["seconds"],
        "seeds": sorted({d["seed"] for d in docs}),
        "runs_per_workload": {w: max(len(xs) for xs in m.values())
                              for w, m in values.items()},
        "derived_bounds": derived,
        "workloads": summary,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", nargs="+")
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--pairs", action="store_true")
    parser.add_argument("--bounds",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--write-baseline", metavar="OUT")
    args = parser.parse_args()

    bounds = load_bounds(args.bounds)
    base, units, docs = load_runs(args.base)
    if args.write_baseline:
        write_baseline(args.write_baseline, base, units, docs, bounds)
        return 0
    change = load_runs(args.change)[0] if args.change else {}
    if args.pairs and len(args.base) != len(args.change):
        sys.exit("--pairs needs as many change files as base files")

    regressions = 0
    for workload in sorted(base):
        for name, xs in base[workload].items():
            better, bound = bounds.get(name, ("lower", None))
            q1, med, q3 = quartiles(xs)
            row = "%-17s %-34s %-6s base %s [%s, %s] spread %.1f%%" % (
                workload, name, units[name], fmt(med), fmt(q1), fmt(q3),
                100 * spread(xs))
            ys = change.get(workload, {}).get(name)
            label = ""
            if ys:
                c1, cmed, c3 = quartiles(ys)
                delta = worse_by(med, cmed, better)
                row += " | change %s [%s, %s] spread %.1f%% | %+.1f%% worse" % (
                    fmt(cmed), fmt(c1), fmt(c3), 100 * spread(ys),
                    100 * delta)
                if args.pairs:
                    wins = sum(1 for x, y in zip(xs, ys)
                               if worse_by(x, y, better) < 0)
                    gain = (wins >= 0.9 * len(xs)
                            and abs(cmed - med) > q3 - q1)
                    row += " | wins %d/%d %s" % (
                        wins, len(xs), "gain" if gain else "no gain")
                if bound is not None:
                    dominated = all(worse_by(x, y, better) < 0
                                    for x in xs for y in ys)
                    if max(spread(xs), spread(ys)) > bound and not dominated:
                        label = "unresolved"
                    elif delta > bound:
                        label = "REGRESSION"
                        regressions += 1
                    else:
                        label = "within %.0f%%" % (100 * bound)
            elif bound is not None:
                label = ("unresolved" if spread(xs) > bound
                         else "steady (bound %.0f%%)" % (100 * bound))
            print(row + ("  " + label if label else ""))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
