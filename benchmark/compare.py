#!/usr/bin/env python3
"""Pairwise comparison of two builds of the benchmark.

    python3 benchmark/compare.py --base BUILD_A --change BUILD_B [--pairs 10]
    python3 benchmark/compare.py --base a.jsonl --change b.jsonl

A build directory (one holding egoist_bench) is run in alternating pairs:
pair i runs every workload on seed first_seed+i on both sides, the side
that goes first alternating, with identical settings; the rows are saved
under --out-dir. JSONL files written by egoist_bench --out are read as
they are and paired by (workload, seed). For each workload and end-to-end
metric it prints each side's median and quartiles, the change's win share
and a verdict:

  improved     the change wins >= 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range
  worse        the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   either side's spread (IQR / median) exceeds the bound and
               not every change run beats every parent run
  same         none of the above

When one side is traced and the other is not, it also prints
trace.overhead_frac per workload: 1 - traced / untraced ops_per_s.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def read_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if not row.get("header"):
                rows.append(row)
    return rows


def run_side(build, workload, seed, seconds, out_path):
    command = [os.path.join(build, "egoist_bench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--workdir", os.path.relpath(build), "--out", out_path]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"compare.py: {' '.join(command)} exited {done.returncode}")
    return read_rows(out_path)


def run_pairs(args, workloads):
    os.makedirs(args.out_dir, exist_ok=True)
    sides = {"base": args.base, "change": args.change}
    rows = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for workload in workloads:
            for side in order:
                out = os.path.join(args.out_dir, f"{side}-{workload}-{seed}.jsonl")
                rows[side] += run_side(sides[side], workload, seed, args.seconds, out)
                print(f"pair {i + 1}/{args.pairs} {workload} {side} done", file=sys.stderr)
    for side, side_rows in rows.items():
        with open(os.path.join(args.out_dir, f"{side}.jsonl"), "w") as f:
            for row in side_rows:
                f.write(json.dumps(row) + "\n")
    return rows["base"], rows["change"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, change):
    """base/change: per-pair values in pair order."""
    lower = metric["better"] == "lower"
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    pairs = min(len(base), len(change))
    if wins >= 0.9 * pairs and better(cm, bm) and abs(cm - bm) > (b3 - b1):
        return "improved", wins
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    if worse_by > metric["bound"]:
        return "worse", wins
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    everyone_better = all(better(c, b) for c in change for b in base)
    if spread > metric["bound"] and not everyone_better:
        return "unresolved", wins
    return "same", wins


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="parent build dir or JSONL file")
    parser.add_argument("--change", required=True, help="change build dir or JSONL file")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workloads", default="", help="comma list (default: all)")
    parser.add_argument("--out-dir", default="compare-out")
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if os.path.isdir(args.base) and os.path.isdir(args.change):
        if args.pairs < 10:
            print("compare.py: fewer than 10 pairs cannot support a claim", file=sys.stderr)
        base_rows, change_rows = run_pairs(args, workloads)
    else:
        base_rows, change_rows = read_rows(args.base), read_rows(args.change)

    print(f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in workloads:
        base = {r["seed"]: r for r in base_rows if r["workload"] == workload}
        change = {r["seed"]: r for r in change_rows if r["workload"] == workload}
        seeds = sorted(set(base) & set(change))
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[s]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["metrics"][name]["value"] for s in seeds]
            kind, wins = verdict(metric, b, c)
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:14s} {name:12s} {bm:12.6g} [{b1:.6g}, {b3:.6g}]".ljust(62) +
                  f" {cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(34) +
                  f" {wins:>3d}/{len(seeds):<3d}  {kind}")
        traced = {r["trace"] for r in base.values()}, {r["trace"] for r in change.values()}
        if traced[0] != traced[1]:
            untraced, traced_rows = (base, change) if True in traced[1] else (change, base)
            u = statistics.median(untraced[s]["metrics"]["ops_per_s"]["value"] for s in seeds)
            t = statistics.median(traced_rows[s]["metrics"]["ops_per_s"]["value"] for s in seeds)
            print(f"{workload:14s} trace.overhead_frac = {1 - t / u:.4f}")
    failed = [r for r in base_rows + change_rows if not r["correct"] or r["failed"]]
    if failed:
        print(f"compare.py: {len(failed)} runs reported failures", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
