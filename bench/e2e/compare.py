#!/usr/bin/env python3
"""Compares bench/e2e result records of a parent and a change.

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    compare.py --spread DIR [--benchmark BENCHMARK.json]

Each directory holds the JSON records `run.sh ... --out FILE` writes; traced
records are ignored. Runs of one workload are paired in (seed, file name)
order, so both sides should run the same seeds. For every (workload,
end-to-end metric) one row shows each side's median and quartiles, the
share of pairs the change won, and a verdict:

  improved    the change won at least 9/10 of the pairs (ties count for
              neither side) and its median beats the parent's by more than
              the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound while the parent's spread is within it;
  unresolved  the parent's spread (IQR / median) is wider than the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

Bounds come from BENCHMARK.json; the workload-specific metrics that
BENCHMARK.json cannot list (it lists only metrics every workload reports)
carry their bounds in EXTRA below. Any rise in the failed share is flagged.
Exits 1 on a regression or a failure rise, 2 on unusable input.

--spread prints, per (workload, metric), the median and the spread as
Python's statistics.quantiles(values, n=4) gives it: (q3 - q1) / median.
"""
import argparse
import glob
import json
import os
import statistics
import sys

# name: (unit, better, bound, workloads reporting it). fleet's max_rate_qps
# is left out: its sweep steps hold too few samples for a steady p99 against
# the 2000 us limit, so it swings between rates from run to run.
EXTRA = {
    "perror_mean": ("ratio", "lower", 0.01, {"plan"}),
    "publish_p50_ms": ("ms", "lower", 0.25, {"fleet"}),
}


def load(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("bench") != "e2e" or r.get("trace"):
            continue
        records.setdefault(r["workload"], []).append((r["seed"], os.path.basename(path), r))
    for runs in records.values():
        runs.sort(key=lambda x: (x[0], x[1]))
    return {w: [r for _, _, r in runs] for w, runs in records.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_table(benchmark_path):
    with open(benchmark_path) as f:
        bench = json.load(f)
    table = {m["name"]: (m["unit"], m["better"], m["bound"], None) for m in bench["end_to_end"]}
    table.update(EXTRA)
    return table


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def failed_share(runs):
    return [r["failed"] / r["attempted"] if r["attempted"] else 1.0 for r in runs]


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0  # positive = change is worse
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    separated = all(sign * (c - p) < 0 for c in change for p in parent)
    if pairs and won >= 0.9 * len(pairs) and -sign * (cm - pm) > (p3 - p1):
        v = "improved"
    elif spread > bound and not separated:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, won, len(pairs)


def fmt(values):
    q1, m, q3 = quartiles(values)
    return f"{m:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(args):
    table = metric_table(args.benchmark)
    parent, change = load(args.parent), load(args.change)
    for side, recs in (("parent", parent), ("change", change)):
        if not recs:
            print(f"compare.py: no untraced records in {side} directory", file=sys.stderr)
            return 2
    hosts = {(r["isa"], r["hw_threads"]) for recs in (parent, change)
             for runs in recs.values() for r in runs}
    if len(hosts) != 1:
        print(f"compare.py: records come from different hosts (isa, hw_threads): {sorted(hosts)}",
              file=sys.stderr)
        return 2
    status = 0
    print(f"{'workload':8} {'metric':16} {'unit':6} {'parent median [q1, q3]':30} "
          f"{'change median [q1, q3]':30} {'won':>7}  verdict")
    for w in sorted(set(parent) & set(change)):
        for name, (unit, better, bound, workloads) in table.items():
            if workloads is not None and w not in workloads:
                continue
            p, c = values_of(parent[w], name), values_of(change[w], name)
            if not p or not c:
                print(f"{w:8} {name:16} missing on one side")
                status = max(status, 1)
                continue
            v, won, pairs = verdict(p, c, better, bound)
            if v == "regressed":
                status = 1
            print(f"{w:8} {name:16} {unit:6} {fmt(p):30} {fmt(c):30} {won:>3}/{pairs:<3}  {v}")
        pf, cf = failed_share(parent[w]), failed_share(change[w])
        if statistics.mean(cf) > statistics.mean(pf):
            print(f"{w:8} {'failed_ratio':16} {'':6} {fmt(pf):30} {fmt(cf):30} {'':7}  FAILURES ROSE")
            status = 1
    for w in sorted(set(parent) ^ set(change)):
        print(f"{w:8} present on one side only")
    return status


def spread(args):
    table = metric_table(args.benchmark)
    recs = load(args.spread)
    if not recs:
        print("compare.py: no untraced records", file=sys.stderr)
        return 2
    print(f"{'workload':8} {'metric':16} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in sorted(recs):
        for name, (unit, _, bound, workloads) in table.items():
            if workloads is not None and w not in workloads:
                continue
            v = values_of(recs[w], name)
            if not v:
                continue
            q1, m, q3 = quartiles(v)
            s = (q3 - q1) / abs(m) if m else 0.0
            print(f"{w:8} {name:16} {len(v):>4} {m:>12.6g} {s:>8.2%} {bound:>6.0%}")
    return 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--spread", metavar="DIR")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    if args.spread:
        return spread(args)
    if not (args.parent and args.change):
        ap.error("give PARENT_DIR and CHANGE_DIR, or --spread DIR")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
