#!/usr/bin/env bash
# Build-and-run helper for the SimDC benches.
#
# Usage:
#   bench/run_all.sh [BENCH_BIN_DIR]
#
# Runs every bench_* binary found in BENCH_BIN_DIR (default: build/bench,
# configuring + building the Release tree first if it is missing) and writes
# one BENCH_<name>.json artifact per bench to the repo root:
#
#   { "bench": "...", "wall_ms": ..., "exit_code": ..., "commit": "...",
#     "cpu_model": "...", "nproc": ..., "compiler": "...",
#     "ops": {"<op>": {"calls": ..., "total_ns": ..., "ns_per_call": ...}},
#     "rss": {"<label>": {"peak_rss_bytes": ...}}, "stdout": [...] }
#
# "ops" is parsed from `OPTIME <op> <calls> <total_ns>` lines and "rss"
# from `OPRSS <label> <bytes>` lines the benches print (see bench_util.h);
# the commit, CPU, core-count and compiler stamps make each artifact
# attributable to a source revision, a machine and a toolchain. These artifacts are the perf baseline later PRs
# are measured against — bench/compare.py diffs two artifact sets, flags
# per-op regressions and warns on per-label RSS growth.
#
# The memory-plane scale ladder (bench_fig8_1m_devices) runs its 10k and
# 100k rungs by default; export SIMDC_BENCH_1M=1 to add the ~GB-scale
# 1,000,000-device rung.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin_dir="${1:-$repo_root/build/bench}"

benches=("$bin_dir"/bench_*)
if [[ ! -e "${benches[0]}" ]]; then
  if [[ $# -ge 1 ]]; then
    echo "error: no bench_* binaries in $bin_dir" >&2
    exit 1
  fi
  # Default location and nothing built yet: build the Release benches in a
  # dedicated tree. Tests stay off — this path only needs bench_* — and a
  # separate binary dir keeps those cache settings out of the user's build/.
  echo "== bench binaries not found in $bin_dir; building build-bench tree =="
  cmake -B "$repo_root/build-bench" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
    -DSIMDC_BUILD_TESTS=OFF -DSIMDC_BUILD_EXAMPLES=OFF
  cmake --build "$repo_root/build-bench" -j
  bin_dir="$repo_root/build-bench/bench"
  benches=("$bin_dir"/bench_*)
  if [[ ! -e "${benches[0]}" ]]; then
    echo "error: build produced no bench_* binaries in $bin_dir" >&2
    exit 1
  fi
fi

# Stamp the artifacts with the build type of the tree the binaries came
# from, so a Debug-built baseline can't masquerade as a Release one.
build_type="unknown"
if [[ -f "$bin_dir/../CMakeCache.txt" ]]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$bin_dir/../CMakeCache.txt")"
  [[ -n "$build_type" ]] || build_type="unknown"
fi
if [[ "$build_type" != "Release" ]]; then
  echo "warning: benches built as '$build_type', not Release; timings are not a perf baseline" >&2
fi

# Provenance stamps: the source commit the binaries were (presumably) built
# from and the CPU they ran on, so a perf trajectory across artifacts is
# attributable to a revision and a machine.
commit="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git -C "$repo_root" diff --quiet HEAD 2>/dev/null; then
  commit="${commit}-dirty"
fi
cpu_model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n1)"
[[ -n "$cpu_model" ]] || cpu_model="$(uname -m)"
# Core count the benches could use (pool widths and the fig8 accumulate
# gate depend on it), and the compiler that built the binaries.
nproc_count="$(nproc 2>/dev/null || echo 0)"
compiler="unknown"
if [[ -f "$bin_dir/../CMakeCache.txt" ]]; then
  cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$bin_dir/../CMakeCache.txt")"
  if [[ -n "$cxx" ]] && "$cxx" --version >/dev/null 2>&1; then
    compiler="$("$cxx" --version | head -n1)"
  fi
fi

for bench in "${benches[@]}"; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  out_json="$repo_root/BENCH_${name#bench_}.json"
  echo "== $name =="

  start_ns=$(date +%s%N)
  set +e
  stdout="$("$bench" 2>&1)"
  exit_code=$?
  set -e
  end_ns=$(date +%s%N)
  wall_ms=$(( (end_ns - start_ns) / 1000000 ))

  tmp="$(mktemp)"
  printf '%s\n' "$stdout" > "$tmp"
  BENCH_NAME="$name" WALL_MS="$wall_ms" EXIT_CODE="$exit_code" BUILD_TYPE="$build_type" \
  COMMIT="$commit" CPU_MODEL="$cpu_model" NPROC="$nproc_count" COMPILER="$compiler" \
    python3 - "$out_json" "$tmp" <<'PY'
import json, os, sys
with open(sys.argv[2]) as f:
    lines = f.read().splitlines()
# Fold `OPTIME <op> <calls> <total_ns>` and `OPRSS <label> <bytes>` lines
# (bench_util.h) into per-op timing / per-label memory maps; they stay in
# "stdout" too for human inspection.
ops = {}
rss = {}
for line in lines:
    fields = line.split()
    if line.startswith("OPTIME ") and len(fields) == 4:
        try:
            calls, total_ns = int(fields[2]), int(fields[3])
        except ValueError:
            continue
        ops[fields[1]] = {
            "calls": calls,
            "total_ns": total_ns,
            "ns_per_call": total_ns / calls if calls else 0.0,
        }
    elif line.startswith("OPRSS ") and len(fields) == 3:
        try:
            rss[fields[1]] = {"peak_rss_bytes": int(fields[2])}
        except ValueError:
            continue
doc = {
    "bench": os.environ["BENCH_NAME"],
    "build_type": os.environ["BUILD_TYPE"],
    "commit": os.environ["COMMIT"],
    "cpu_model": os.environ["CPU_MODEL"],
    "nproc": int(os.environ["NPROC"]),
    "compiler": os.environ["COMPILER"],
    "wall_ms": int(os.environ["WALL_MS"]),
    "exit_code": int(os.environ["EXIT_CODE"]),
    "ops": ops,
    "rss": rss,
    "stdout": lines,
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
  rm -f "$tmp"

  echo "   -> ${out_json#$repo_root/} (${wall_ms} ms, exit $exit_code)"
  if [[ $exit_code -ne 0 ]]; then
    echo "error: $name exited with $exit_code" >&2
    exit "$exit_code"
  fi
done

echo "All benches done; artifacts in $repo_root/BENCH_*.json"
