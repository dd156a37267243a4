#!/usr/bin/env python3
"""Perf smoke gate: compare a fresh bench JSON report against a baseline.

Usage:
    perf_smoke.py BASELINE.json CURRENT.json [CURRENT.json...]
                  --record NAME [--record NAME...] [--max-ratio 3.0]

All files are arrays of records as written by WriteBenchJson (harness.cc):
each record has at least {"name", "ns_per_op", "p50_ns"}. The gate fails
(exit 1) only when a named record's latency regressed by more than
--max-ratio versus the baseline. Every other record is reported but never
gates: CI runners are noisy, so the bar is deliberately "order of
magnitude went wrong", not "3% slower than last Tuesday".

The gated metric is p50_ns (median — robust against one slow sample on a
shared runner), falling back to ns_per_op for records that carry no
distribution. With several CURRENT files (repeated runs of the same
benchmark) a record's current latency is the median of its per-run values,
so one run landing on a busy moment cannot fail the gate alone. A gated
record must be present in every CURRENT file.
"""

import argparse
import json
import statistics
import sys


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return {r["name"]: r for r in data if isinstance(r, dict) and "name" in r}


def latency_ns(record):
    p50 = record.get("p50_ns", 0.0)
    return p50 if p50 > 0.0 else record.get("ns_per_op", 0.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    parser.add_argument(
        "--record",
        action="append",
        default=[],
        help="record name that gates the build (repeatable)",
    )
    parser.add_argument("--max-ratio", type=float, default=3.0)
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    runs = [load_records(path) for path in args.current]
    current_ns = {}
    for name in set().union(*runs):
        current_ns[name] = statistics.median(
            latency_ns(run[name]) for run in runs if name in run
        )

    shared = sorted(set(baseline) & set(current_ns))
    if not shared:
        raise SystemExit("no record names shared between baseline and current")

    print(f"current = median over {len(runs)} run(s)")
    print(f"{'record':<40} {'baseline':>12} {'current':>12} {'ratio':>8}")
    ratios = {}
    for name in shared:
        base_ns = latency_ns(baseline[name])
        cur_ns = current_ns[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        ratios[name] = ratio
        gate_mark = " *" if name in args.record else ""
        print(
            f"{name:<40} {base_ns:>10.0f}ns {cur_ns:>10.0f}ns "
            f"{ratio:>7.2f}x{gate_mark}"
        )

    failed = []
    for name in args.record:
        missing = [p for p, run in zip(args.current, runs) if name not in run]
        if missing:
            failed.append(
                f"gated record '{name}' missing from {', '.join(missing)}"
            )
        elif name not in baseline:
            failed.append(f"gated record '{name}' missing from {args.baseline}")
        elif ratios[name] > args.max_ratio:
            failed.append(
                f"'{name}' regressed {ratios[name]:.2f}x "
                f"(limit {args.max_ratio:.1f}x)"
            )
    if failed:
        for msg in failed:
            print(f"PERF GATE FAILED: {msg}", file=sys.stderr)
        return 1
    gated = ", ".join(args.record) if args.record else "(none)"
    print(f"perf gate OK (gated: {gated}, limit {args.max_ratio:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
