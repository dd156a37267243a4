#!/usr/bin/env python3
"""Builds the p3pdb benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <tier_miss|tier_hit|tier_churn|paper_fig20>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Every run configures and builds perfbench/ (the repository's src/
libraries plus the benchmark binary, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The first run builds everything; later
runs rebuild incrementally, and CMake refuses a build tree that another
source tree configured. Build output goes to stderr, so the benchmark's
last stdout line is its JSON result. The script then replaces itself with
the benchmark binary, passing it the git commit of the checkout
("unknown" outside a git repository). Durable stores and span files go to
.bench_work/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_commit():
    # Only the checkout's own repository: a checkout that is not one must
    # not report the commit of some enclosing directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main():
    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: benchmark build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(out_dir, "p3pdb_perfbench")
    commit = git_commit()
    sys.stdout.flush()
    sys.stderr.flush()
    # The binary writes its durable stores and spans under .bench_work/ of
    # the working directory. exec replaces this process, so a caller that
    # stops the benchmark stops the program itself and nothing outlives it.
    os.chdir(ROOT)
    os.execv(binary, [binary, *sys.argv[1:], "--commit", commit])


if __name__ == "__main__":
    sys.exit(main())
