#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. It builds `perfbench/` in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the binary with
glibc's heap trimming off, and passes its standard output through: the
last line is the JSON result. A traced run also writes its spans to
`<target dir>/perfbench-spans/<workload>-seed<n>.tsv`. The exit code is
the build's when the build fails, else the benchmark's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.tsv")
        command += ["--spans-out", spans]
    # glibc keeps freed memory in the process instead of handing it back
    # to the kernel, so the timings hold the program's work rather than
    # the page faults of memory it re-allocates (see README.md).
    bench_env = dict(
        env,
        MALLOC_TRIM_THRESHOLD_=str(256 << 20),
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
    )
    return subprocess.run(command, env=bench_env).returncode


if __name__ == "__main__":
    sys.exit(main())
