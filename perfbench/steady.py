#!/usr/bin/env python3
"""Steadiness check for the SimDC benchmark.

    python3 perfbench/steady.py run --workloads cohort_dense,tenants_shared \
        --seeds 1-10 --out set1.json
    python3 perfbench/steady.py check set1.json [set2.json]

`run` runs perfbench/run.py once per (workload, seed) with --trace 0 and
the run length from BENCHMARK.json, and saves every end-to-end value.
`check` reports, per workload and metric, the median and the spread (the
distance between the first and third quartile as a share of the median).
Every spread except setup_s's must stay within the metric's bound, and is
flagged when above a third of it. Given a second set, the second median must
not be worse than the first by more than the bound, setup_s included.
Exit status 0 means every check held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def worsening(first, second, better):
    """How much worse the median of `second` is than that of `first`, as a
    share of the first median (negative when it is better)."""
    a = statistics.median(first)
    b = statistics.median(second)
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def check(sets, metrics, out=sys.stdout):
    """Applies the steadiness rules to one or two sets of runs.

    `sets` holds one or two {workload: {metric: [values]}} dicts; `metrics`
    is BENCHMARK.json's end_to_end list. Returns True when every rule held.
    """
    ok = True
    first = sets[0]
    for workload in sorted(first):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = first[workload][name]
            s = spread(values)
            verdict = "ok"
            if name != "setup_s" and s > bound:
                verdict = "SPREAD"
                ok = False
            elif name != "setup_s" and s > bound / 3:
                verdict = "wide"
            line = (f"{workload:15s} {name:14s} median {statistics.median(values):12.5g}"
                    f" spread {s:7.4f} bound {bound:5.3f}")
            if len(sets) > 1:
                w = worsening(values, sets[1][workload][name], metric["better"])
                line += f" second-vs-first {w:+7.4f}"
                if w > bound:
                    verdict = "WORSE"
                    ok = False
            print(f"{line} {verdict}", file=out)
    return ok


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workloads, seeds, seconds):
    values = {}
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} seed {seed} exited "
                                   f"{proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed} not correct")
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    return values


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--out", required=True)
    chk = sub.add_parser("check")
    chk.add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.command == "run":
        values = run_set(args.workloads.split(","), parse_seeds(args.seeds),
                         benchmark["run_seconds"])
        with open(args.out, "w") as handle:
            json.dump(values, handle, indent=1)
        return 0 if check([values], benchmark["end_to_end"]) else 1
    sets = []
    for path in args.sets[:2]:
        with open(path) as handle:
            sets.append(json.load(handle))
    return 0 if check(sets, benchmark["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
