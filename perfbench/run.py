#!/usr/bin/env python3
"""The SimDC benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) into .bench_build, then for workload W and seed N:

1. runs the reference configuration once (parallelism 1, single fleet) to
   get one result digest per experiment;
2. with --trace 0, repeats the measured configuration for S seconds and
   reports the end-to-end metrics (medians over the repetitions after the
   first); with
   --trace 1, alternates untraced and traced repetitions for S seconds and
   reports the per-layer metrics, writing the trace artifacts to
   .bench_build/traces/;
3. checks every repetition's digests against the reference.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A full record, with the machine and build fingerprint
and every sample, goes to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "simdc_perfbench"
BUILD_TIMEOUT_S = 850
# Everything after the build must end within this many seconds.
RUN_DEADLINE_S = 170


def load_benchmark():
    """BENCHMARK.json: the workloads and the metrics each mode reports."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out_dir):
    """Configures and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, BINARY)


def run_binary(binary, args, timeout_s):
    """Runs the binary and returns its JSON lines; raises on failure."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout_s)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode != 0:
        errors = [line.get("detail") for line in lines
                  if line.get("kind") == "error"]
        raise RuntimeError(f"{binary} {args[0]} exited {proc.returncode}: "
                           f"{errors}")
    return lines


def count_failures(reference_tasks, reps):
    """(attempted, failed) over every task of every repetition.

    A task fails when it is not ok (non-ok status, incomplete tenant) or
    its digest differs from the reference configuration's digest for the
    same task id."""
    expected = {task["id"]: task["digest"] for task in reference_tasks}
    attempted = failed = 0
    for rep in reps:
        for task in rep["tasks"]:
            attempted += 1
            if not task["ok"] or expected.get(task["id"]) != task["digest"]:
                failed += 1
    return attempted, failed


def end_to_end_metrics(reps):
    """Medians over the repetitions after the first, which warms caches,
    code pages and the thread pool."""
    reps = reps[1:]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "updates_per_s": statistics.median(
            r["updates"] / r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def with_units(values, declared):
    """The declared metrics, in order; a missing one raises KeyError."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def source_digest(root):
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    whether or not the checkout is a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_state(root):
    """(commit, dirty) when `root` is the top of a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if (top.returncode != 0 or
                os.path.realpath(top.stdout.strip()) != os.path.realpath(root)):
            return "none", None
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
        status = subprocess.run(
            ["git", "-C", root, "status", "--porcelain",
             "--untracked-files=no"], capture_output=True, text=True,
            timeout=10)
        return commit.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "none", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(binary_fingerprint, root):
    commit, dirty = git_state(root)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": binary_fingerprint.get("compiler"),
        "flags": binary_fingerprint.get("flags"),
        "build_type": binary_fingerprint.get("build_type"),
        "pool_width": binary_fingerprint.get("pool_width"),
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(root),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    benchmark = load_benchmark()
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    root = os.getcwd()
    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(out_dir, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    try:
        reference = run_binary(binary, ["reference"] + common,
                               deadline - time.monotonic())
        mode = "trace" if args.trace else "measure"
        lines = run_binary(
            binary, [mode] + common + ["--seconds", str(args.seconds)],
            deadline - time.monotonic())
        if args.trace:
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            for name in os.listdir(workdir):
                if name.endswith(".json"):
                    shutil.move(os.path.join(workdir, name),
                                os.path.join(traces, name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind = {}
    for line in lines:
        by_kind.setdefault(line["kind"], []).append(line)
    reference_tasks = [t for line in reference if line["kind"] == "reference"
                       for t in line["tasks"]]
    reps = by_kind.get("rep", [])
    traced = by_kind.get("traced", [])
    attempted, failed = count_failures(reference_tasks, reps + traced)
    correct = attempted > 0 and failed == 0 and bool(reference_tasks)
    if args.trace:
        layers = by_kind["layers"][0]
        if layers["problem_count"] != 0:
            log(f"traced run disagrees with the run: {layers['problems']}")
            correct = False
        metrics = with_units(layers["metrics"], benchmark["per_layer"])
    else:
        metrics = with_units(end_to_end_metrics(reps),
                             benchmark["end_to_end"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fingerprint": fingerprint(by_kind["fingerprint"][0], root),
        "reference": reference_tasks,
        "samples": reps + traced,
        "correct": correct,
        "metrics": metrics,
    }
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, KeyError, IndexError, ValueError,
            subprocess.SubprocessError) as error:
        # No result line: the run failed before it could measure anything.
        log(f"failed: {error!r}")
        sys.exit(1)
