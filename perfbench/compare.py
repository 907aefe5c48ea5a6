#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS [--json]

Each argument is a directory (or a single file) of result records as
perfbench/run.py writes them to .bench_build/results/. Records are grouped
by workload and trace mode; for each metric the tool prints both sides'
median and quartiles and one verdict:

* improved: the change wins at least 9/10 of the run pairs (pairs match on
  seed where both sides ran it, otherwise by order; ties count for neither)
  and the medians differ by more than the parent's quartile distance.
* no worse within bound: the change's median is worse than the parent's by
  at most the metric's bound from BENCHMARK.json, and the parent's spread is
  within that bound.
* regressed: worse than the parent's median by more than the bound, with the
  spread within the bound.
* unresolved: everything else, including any metric whose spread is wider
  than its bound, unless every change run reads better than every parent
  run. Per-layer metrics have no bound, so they are improved, regressed
  (the mirror of improved) or unresolved.

Collect the two sets alternately (one parent run, one change run, with the
side that goes first switching each round): whole runs on one machine can
drift by a third for minutes at a time, and two sets taken minutes apart
can read as a regression of a change that does nothing. The tool warns when
the two sides' finish times do not interleave. All records must be of one
--scale.

Exits 1 when any end-to-end metric regressed, 2 on unusable input, else 0.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("benchmark") == "erms-e2e":
            runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def interleaved(parent, change):
    """False when every run of one side finished before every run of the
    other. Records without a finish time are not judged."""
    p = [r["finished_utc"] for r in parent if "finished_utc" in r]
    c = [r["finished_utc"] for r in change if "finished_utc" in r]
    if not p or not c:
        return True
    return not (max(p) < min(c) or max(c) < min(p))


def verdict(parent, change, better, bound):
    """parent/change: lists of (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(pv), statistics.median(cv)
    p_q1, p_q3 = quartiles(pv)
    p_iqr = p_q3 - p_q1
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    if len(pairs) < min(len(pv), len(cv)):
        pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_iqr \
            and sign * (c_med - p_med) > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(c_med - p_med) > p_iqr:
            return "regressed"
        return "unresolved"
    scale = abs(p_med) if p_med else 1.0
    worse_by = -sign * (c_med - p_med) / scale
    if p_iqr / scale > bound:
        if min(sign * c for c in cv) > max(sign * p for p in pv):
            return "no worse within bound"
        return "unresolved"
    if worse_by <= bound:
        return "no worse within bound"
    return "regressed"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--json", action="store_true", help="print rows as JSON")
    args = ap.parse_args()

    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]}
    spec.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    e2e_names = {m["name"] for m in bench["end_to_end"]}

    sides = []
    runs_by_side = []
    for path in (args.parent, args.change):
        runs = load(path)
        if not runs:
            print("compare: no result records in %s" % path, file=sys.stderr)
            return 2
        runs_by_side.append(runs)
        grouped = {}
        for r in runs:
            for name, m in r["metrics"].items():
                grouped.setdefault((r["workload"], r["trace"], name), []).append(
                    (r["seed"], m["value"]))
        sides.append(grouped)
    scales = {r.get("scale", "full") for runs in runs_by_side for r in runs}
    if len(scales) > 1:
        print("compare: records of more than one --scale (%s); compare like with like"
              % ", ".join(sorted(scales)), file=sys.stderr)
        return 2
    if not interleaved(*runs_by_side):
        print("compare: warning: the parent and change runs do not interleave in time;"
              " machine drift between the sets can decide the verdicts", file=sys.stderr)

    rows = []
    for key in sorted(set(sides[0]) & set(sides[1])):
        workload, trace, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        p, c = sides[0][key], sides[1][key]
        pq, cq = quartiles([v for _, v in p]), quartiles([v for _, v in c])
        rows.append({
            "workload": workload, "metric": name, "better": better, "bound": bound,
            "parent_median": statistics.median(v for _, v in p), "parent_q1": pq[0],
            "parent_q3": pq[1], "parent_runs": len(p),
            "change_median": statistics.median(v for _, v in c), "change_q1": cq[0],
            "change_q3": cq[1], "change_runs": len(c),
            "verdict": verdict(p, c, better, bound),
        })
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        fmt = "%-13s %-28s %12s [%10s %10s] %12s [%10s %10s]  %s"
        print(fmt % ("workload", "metric", "parent", "q1", "q3", "change", "q1", "q3", "verdict"))
        for r in rows:
            print(fmt % (r["workload"], r["metric"],
                         *("%.6g" % r[k] for k in ("parent_median", "parent_q1", "parent_q3",
                                                   "change_median", "change_q1", "change_q3")),
                         r["verdict"]))
    regressed = [r for r in rows if r["verdict"] == "regressed" and r["metric"] in e2e_names]
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
