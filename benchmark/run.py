#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build (a Release build of the library, egoistd and
egoist_bench; tests and examples off); later runs reuse it. Build output
goes to stderr. stdout is egoist_bench's: one line per metric, then one
JSON result line per workload. Traced runs also write their spans to
<build>/spans-<workload>-<seed>.jsonl. Other arguments pass through to
egoist_bench (see benchmark/README.md).
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    args, rest = parser.parse_known_args()

    source = os.path.dirname(os.path.abspath(__file__))
    # Sockets live in the build directory; a relative path keeps their
    # names under the 108-byte limit of a Unix-domain socket address.
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = [["cmake", "--build", build, "--parallel", "4"]]
    if not any(os.path.exists(os.path.join(build, f)) for f in ("Makefile", "build.ninja")):
        steps.insert(0, ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))

    sha = subprocess.run(["git", "-C", source, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    command = [os.path.join(build, "egoist_bench"), "--workload", args.workload,
               "--seed", args.seed, "--trace", args.trace, "--workdir", build,
               "--git-sha", sha.stdout.strip() if sha.returncode == 0 else "unknown"]
    if args.trace != "0":
        command += ["--spans", os.path.join(build, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    os.execv(command[0], command + rest)


if __name__ == "__main__":
    main()
