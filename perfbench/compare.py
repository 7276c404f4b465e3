#!/usr/bin/env python3
"""Compares two sets of SimDC benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by perfbench/run.py (files from
.bench_build/results/) or directories of them. For every workload and trace
mode present in both, prints each metric's median over the records of each
side and the relative change. Refuses (exit status 2) when any two records
differ in their machine or build fingerprint: core count, CPU model,
compiler, flags, build type or pool width. The commit and source digest are
expected to differ and are only printed.
"""

import json
import os
import statistics
import sys

COMPARABLE = ("nproc", "cpu_model", "compiler", "flags", "build_type",
              "pool_width")


def fingerprint_mismatch(a, b):
    """Names of the fingerprint fields in which two records differ."""
    return [key for key in COMPARABLE
            if a["fingerprint"].get(key) != b["fingerprint"].get(key)]


def code_versions(records):
    """The (commit, source digest prefix) pairs a set of records measured."""
    return sorted({(r["fingerprint"]["commit"],
                    r["fingerprint"]["source_sha256"][:12]) for r in records})


def load(path):
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    records = []
    for item in paths:
        with open(item) as handle:
            records.append(json.load(handle))
    return records


def medians(records):
    """{(workload, trace): {metric: (median, unit)}}"""
    grouped = {}
    for record in records:
        key = (record["workload"], record["trace"])
        for name, metric in record["metrics"].items():
            grouped.setdefault(key, {}).setdefault(
                name, ([], metric["unit"]))[0].append(metric["value"])
    return {key: {name: (statistics.median(values), unit)
                  for name, (values, unit) in metrics.items()}
            for key, metrics in grouped.items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    records = base + new
    if not base or not new:
        print("no result records found", file=sys.stderr)
        return 2
    for record in records[1:]:
        differing = fingerprint_mismatch(records[0], record)
        if differing:
            print(f"refusing to compare: fingerprints differ in {differing}",
                  file=sys.stderr)
            return 2
    print(f"base {code_versions(base)} ({len(base)} records)")
    print(f"new  {code_versions(new)} ({len(new)} records)")
    base_m, new_m = medians(base), medians(new)
    for key in sorted(set(base_m) & set(new_m)):
        print(f"\n{key[0]} (trace {key[1]})")
        for name, (b, unit) in base_m[key].items():
            if name not in new_m[key]:
                continue
            n = new_m[key][name][0]
            change = f"{(n - b) / b:+8.2%}" if b else "     n/a"
            print(f"  {name:30s} {b:14.6g} -> {n:14.6g} {unit:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
