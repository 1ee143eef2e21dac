#!/usr/bin/env python3
"""Checks one workload's smoke runs for bench/e2e/run.sh --smoke.

    check.py --benchmark BENCHMARK.json --e2e E2E.log --layer LAYER.log --trace TRACE.json

E2E.log and LAYER.log are the stdout of an untraced and a traced run. The
check passes when both result lines carry exactly the metrics BENCHMARK.json
names (with its units), both runs checked answers and none failed, and every
span in the trace has a parent that exists and encloses it.
"""
import argparse
import json
import math
import sys

# Span times are written with 3 decimals (nanoseconds); allow that rounding.
TOLERANCE_US = 0.002


def read_run(path):
    """Returns (result, record) from a run's stdout."""
    lines = [line for line in open(path).read().splitlines() if line.strip()]
    record = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
    return json.loads(lines[-1]), record


def check_result(result, record, expected, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"{label}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is {result['attempted']}")
    if result["failed"] != 0:
        problems.append(f"{label}: failed is {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{label}: metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{label}: {name} value {v!r} is not a finite number")
    if record is None or record.get("checked_answers", 0) <= 0:
        problems.append(f"{label}: no answers were checked")
    return problems


def check_trace(path):
    events = [e for e in json.load(open(path))["traceEvents"] if e.get("ph") == "X"]
    problems = []
    if not events:
        return [f"{path}: no spans"]
    by_id = {e["args"]["id"]: e for e in events}
    if len(by_id) != len(events):
        problems.append(f"{path}: duplicate span ids")
    for e in events:
        parent_id = e["args"]["parent"]
        if parent_id == 0:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"{path}: span {e['name']} ({e['args']['id']}) has unknown parent {parent_id}")
            continue
        if (e["ts"] < parent["ts"] - TOLERANCE_US or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + TOLERANCE_US):
            problems.append(f"{path}: span {e['name']} ({e['args']['id']}) is not inside its parent {parent['name']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--e2e", required=True)
    ap.add_argument("--layer", required=True)
    ap.add_argument("--trace", required=True)
    args = ap.parse_args()
    bench = json.load(open(args.benchmark))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    problems = check_result(*read_run(args.e2e), e2e, "untraced")
    problems += check_result(*read_run(args.layer), layer, "traced")
    problems += check_trace(args.trace)
    for p in problems[:20]:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
