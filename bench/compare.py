#!/usr/bin/env python3
"""Diff two BENCH_*.json artifact sets and flag per-op perf regressions.

Usage:
    bench/compare.py BASELINE_DIR CURRENT_DIR [options]

Each directory must hold BENCH_*.json artifacts produced by bench/run_all.sh.
Artifacts are matched by their "bench" field; within a matched pair, every op
present in both "ops" maps is compared by ns_per_call. An op that got more
than --threshold slower (default 20%) is a regression and the script exits 1.

Guards against noise and apples-to-oranges comparisons:
  * ops whose baseline total_ns is below --min-total-ns (default 1 ms) are
    informational only — their timings are dominated by clock granularity;
  * with --warn-only-on-cpu-mismatch, regressions only warn (exit 0) when
    the two artifact sets were produced on different CPU models, core
    counts ("nproc") or build types, since absolute nanoseconds are not
    comparable across machines. An artifact without an "nproc" stamp is
    never comparable: its core count is unknown.

Memory is compared too: each artifact's "rss" map (peak-RSS snapshots and
bytes-per-device figures from `OPRSS` lines) is diffed by label, and growth
beyond --rss-threshold (default 10%) is warned about. RSS warnings never
fail the run — resident-set numbers depend on allocator behavior and what
ran earlier in the process, so they are a trend signal, not a gate.

Wall_ms is reported for context but never gates: it includes process startup
and is far noisier than the per-op timings.
"""

import argparse
import glob
import json
import os
import sys


def load_artifacts(directory):
    docs = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping unreadable artifact {path}: {error}",
                  file=sys.stderr)
            continue
        name = doc.get("bench")
        if name:
            docs[name] = doc
    return docs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional per-op slowdown that fails "
                             "(default: 0.20 = 20%%)")
    parser.add_argument("--min-total-ns", type=int, default=1_000_000,
                        help="ignore ops whose baseline total_ns is below "
                             "this (default: 1ms)")
    parser.add_argument("--rss-threshold", type=float, default=0.10,
                        help="fractional peak-RSS growth per label that "
                             "draws a warning (default: 0.10 = 10%%; "
                             "warnings never fail the run)")
    parser.add_argument("--warn-only-on-cpu-mismatch", action="store_true",
                        help="exit 0 despite regressions when baseline and "
                             "current ran on different CPU models, core "
                             "counts or build types")
    parser.add_argument("--fail-on-missing", action="store_true",
                        help="also fail when a baseline op or bench is "
                             "absent from the current run (default: loud "
                             "warning only, since op renames are legitimate "
                             "when the baseline is refreshed in the same "
                             "change)")
    args = parser.parse_args()

    baseline = load_artifacts(args.baseline_dir)
    current = load_artifacts(args.current_dir)
    if not baseline:
        print(f"error: no BENCH_*.json artifacts in {args.baseline_dir}",
              file=sys.stderr)
        return 2
    if not current:
        print(f"error: no BENCH_*.json artifacts in {args.current_dir}",
              file=sys.stderr)
        return 2

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: artifact sets share no bench names", file=sys.stderr)
        return 2

    def environment(docs):
        cpus = {d.get("cpu_model", "unknown") for d in docs.values()}
        builds = {d.get("build_type", "unknown") for d in docs.values()}
        nprocs = {d.get("nproc") for d in docs.values()}
        return cpus, builds, nprocs

    base_cpus, base_builds, base_nprocs = environment(baseline)
    cur_cpus, cur_builds, cur_nprocs = environment(current)
    comparable = (base_cpus == cur_cpus and base_builds == cur_builds and
                  base_nprocs == cur_nprocs and None not in base_nprocs)
    if not comparable:
        def cores(nprocs):
            return sorted("missing" if n is None else str(n) for n in nprocs)
        print(f"note: environments differ (baseline cpu={sorted(base_cpus)} "
              f"nproc={cores(base_nprocs)} build={sorted(base_builds)}; "
              f"current cpu={sorted(cur_cpus)} nproc={cores(cur_nprocs)} "
              f"build={sorted(cur_builds)}); absolute timings are not "
              f"directly comparable")

    # Coverage shrink is a gate-evasion vector: an op that disappears (or a
    # whole bench that stops running) takes its regression check with it, so
    # losses versus the baseline are always reported, never skipped silently.
    missing = [f"bench {name}" for name in sorted(set(baseline) - set(current))]
    regressions = []
    speedups = []
    rss_warnings = []
    compared = 0
    rss_compared = 0
    for name in shared:
        base_ops = baseline[name].get("ops", {})
        cur_ops = current[name].get("ops", {})
        for op in sorted(set(base_ops) - set(cur_ops)):
            missing.append(f"op {name}/{op}")
        base_wall = baseline[name].get("wall_ms")
        cur_wall = current[name].get("wall_ms")
        if base_wall and cur_wall:
            delta = (cur_wall - base_wall) / base_wall
            print(f"{name}: wall {base_wall} ms -> {cur_wall} ms "
                  f"({delta:+.0%} vs baseline, informational)")
        for op in sorted(set(base_ops) & set(cur_ops)):
            base_ns = base_ops[op].get("ns_per_call", 0.0)
            cur_ns = cur_ops[op].get("ns_per_call", 0.0)
            if base_ns <= 0:
                continue
            compared += 1
            ratio = cur_ns / base_ns
            marker = ""
            gated = base_ops[op].get("total_ns", 0) >= args.min_total_ns
            if ratio > 1.0 + args.threshold and gated:
                marker = "  <-- REGRESSION"
                regressions.append((name, op, base_ns, cur_ns, ratio))
            elif not gated:
                marker = "  (below --min-total-ns, informational)"
            if gated and ratio < 1.0 / 1.05:
                speedups.append((name, op, 1.0 / ratio))
            print(f"  {name}/{op}: {base_ns / 1e3:.1f} us -> "
                  f"{cur_ns / 1e3:.1f} us ({ratio - 1.0:+.0%}){marker}")
        # Memory trend: peak-RSS labels shared by both artifacts. Growth
        # beyond --rss-threshold warns; shrink and small drift print quietly.
        base_rss = baseline[name].get("rss", {})
        cur_rss = current[name].get("rss", {})
        for label in sorted(set(base_rss) - set(cur_rss)):
            missing.append(f"rss {name}/{label}")
        for label in sorted(set(base_rss) & set(cur_rss)):
            base_bytes = base_rss[label].get("peak_rss_bytes", 0)
            cur_bytes = cur_rss[label].get("peak_rss_bytes", 0)
            if base_bytes <= 0:
                continue
            rss_compared += 1
            ratio = cur_bytes / base_bytes
            marker = ""
            if ratio > 1.0 + args.rss_threshold:
                marker = "  <-- RSS GROWTH (warning)"
                rss_warnings.append((name, label, base_bytes, cur_bytes, ratio))
            print(f"  {name}/rss/{label}: {base_bytes / 2**20:.1f} MiB -> "
                  f"{cur_bytes / 2**20:.1f} MiB ({ratio - 1.0:+.0%}){marker}")

    # Summary reports per-op speedup factors, not just pass/fail: the wins
    # are as much a part of the perf trajectory as the regressions.
    speedups.sort(key=lambda entry: -entry[2])
    if speedups:
        shown = ", ".join(f"{name}/{op} {factor:.1f}x"
                          for name, op, factor in speedups[:8])
        if len(speedups) > 8:
            shown += f" (+{len(speedups) - 8} more)"
        speedup_note = f"speedups: {shown}"
    else:
        speedup_note = "speedups: none >= 1.05x"
    print(f"\ncompared {compared} ops and {rss_compared} rss labels across "
          f"{len(shared)} benches; {len(regressions)} regression(s) beyond "
          f"{args.threshold:.0%}; {speedup_note}")
    if rss_warnings:
        print(f"warning: {len(rss_warnings)} rss label(s) grew beyond "
              f"{args.rss_threshold:.0%} (memory trend, not a gate):",
              file=sys.stderr)
        for name, label, base_bytes, cur_bytes, ratio in rss_warnings:
            print(f"  {name}/rss/{label}: {base_bytes / 2**20:.1f} MiB -> "
                  f"{cur_bytes / 2**20:.1f} MiB ({ratio - 1.0:+.0%})",
                  file=sys.stderr)
    if missing:
        print(f"warning: {len(missing)} baseline entr(y/ies) absent from the "
              f"current run — their regression gates did not run:",
              file=sys.stderr)
        for entry in missing:
            print(f"  missing {entry}", file=sys.stderr)
        if args.fail_on_missing:
            return 1
    if regressions:
        for name, op, base_ns, cur_ns, ratio in regressions:
            print(f"  {name}/{op}: {base_ns / 1e3:.1f} us -> "
                  f"{cur_ns / 1e3:.1f} us ({ratio - 1.0:+.0%})",
                  file=sys.stderr)
        if args.warn_only_on_cpu_mismatch and not comparable:
            print("environments differ; treating regressions as warnings",
                  file=sys.stderr)
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
