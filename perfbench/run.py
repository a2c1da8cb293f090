#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to .bench_build at the repository root (or
$CARGO_TARGET_DIR when set); build output goes to stderr so the last
line of stdout stays the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target", target]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if sys.argv[1:] == ["--self-test"]:
        build(build_dir, "perfbench_test")
        exe = os.path.join(build_dir, "perfbench_test")
        os.execv(exe, [exe])
    build(build_dir, "perfbench")
    exe = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.execv(exe, [exe] + sys.argv[1:] + ["--work-dir", work_dir])


if __name__ == "__main__":
    main()
