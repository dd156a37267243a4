#!/usr/bin/env python3
"""Smoke test of the p3pdb benchmark.

Runs every workload at tiny size (--smoke, 2 s), untraced and traced, and
asserts that every metric named in BENCHMARK.json is emitted, finite and
with its unit, that the workload-specific end-to-end metrics are printed,
and that error_rate is 0. Then checks that the benchmark fails cleanly (a
non-zero exit and no result line) in a directory holding only
BENCHMARK.json and perfbench/.

Usage, from the root of the repository:  python3 perfbench/smoke_test.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Printed as `metric` lines besides the gated ones, per workload.
EXTRA_END_TO_END = {
    "tier_miss": ["knee_qps", "error_rate"],
    "tier_hit": ["knee_qps", "error_rate"],
    # install_p99_us needs 1000 installs, more than a smoke run makes.
    "tier_churn": ["install_p50_us", "error_rate"],
    "paper_fig20": ["native_match_p50_us", "sql_match_p50_us",
                    "xquery_match_p50_us", "xtable_match_p50_us",
                    "error_rate"],
}


def run(cwd, args, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_run(spec, workload, trace):
    p = run(ROOT, ["--workload", workload, "--seed", "1", "--seconds", "2",
                   "--trace", str(trace), "--smoke"])
    where = f"{workload} trace={trace}"
    assert p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stderr}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        where
    assert result["correct"] is True and result["failed"] == 0, \
        f"{where}: {lines}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    assert list(result["metrics"]) == names, \
        f"{where}: metrics {list(result['metrics'])} != {names}"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
        assert math.isfinite(got["value"]), f"{where}: {m['name']} finite"
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is 0"
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    if not trace:
        for name in EXTRA_END_TO_END[workload]:
            assert name in printed, f"{where}: {name} not printed"
            value, unit = printed[name]
            assert math.isfinite(value) and unit, f"{where}: {name}"
        assert printed["error_rate"][0] == 0.0, f"{where}: error_rate"
    print(f"ok  {where}: {len(names)} metrics, "
          f"{result['attempted']} operations checked")


def check_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(tmp, ["--workload", "tier_miss", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], timeout=180)
        assert p.returncode != 0, "ran without the repository sources"
        assert '"metrics"' not in p.stdout, "printed a result"
    print("ok  fails cleanly without the repository sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
