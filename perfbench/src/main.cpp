// simdc_perfbench — the SimDC benchmark binary.
//
//   simdc_perfbench measure   --workload W --seed N --seconds S --workdir D
//   simdc_perfbench reference --workload W --seed N --workdir D
//   simdc_perfbench trace     --workload W --seed N --seconds S --workdir D
//   simdc_perfbench selftest
//
// Every mode prints JSON objects, one per line, on stdout; perfbench/run.py
// turns them into the benchmark's metrics. `measure` repeats the workload's
// untraced experiment until S seconds have passed (at least three times);
// `reference` runs it once at parallelism 1 on a single fleet, the
// configuration whose digests every measured repetition must match;
// `trace` runs the untraced experiment and the traced run alternately and
// writes the trace artifacts into D; `selftest` checks that the result digest
// catches a single flipped bit.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "digest.h"
#include "experiment.h"
#include "json.h"
#include "traced_run.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace perfbench {
namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 1000;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0;
}

void EmitFingerprint() {
  EmitLine(JsonObject()
               .Str("kind", "fingerprint")
               .Str("compiler", PERFBENCH_COMPILER)
               .Str("build_type", PERFBENCH_BUILD_TYPE)
               .Str("flags", PERFBENCH_FLAGS)
               .Int("hardware_threads", std::thread::hardware_concurrency())
               .Int("pool_width", PoolWidth()));
}

std::string TasksJson(const std::vector<TaskOutcome>& tasks) {
  std::string out = "[";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonObject()
               .Int("id", tasks[i].id)
               .Bool("ok", tasks[i].ok)
               .Str("digest", Hex(tasks[i].digest))
               .Str("detail", tasks[i].detail)
               .str();
  }
  return out + "]";
}

void EmitRep(const char* kind, std::size_t rep, const RepOutcome& outcome,
             double peak_rss_mb = 0.0) {
  EmitLine(JsonObject()
               .Str("kind", kind)
               .Int("rep", rep)
               .Num("peak_rss_mb", peak_rss_mb)
               .Num("setup_s", outcome.setup_s)
               .Num("generate_ms", outcome.generate_ms)
               .Num("construct_ms", outcome.construct_ms)
               .Num("run_s", outcome.run_s)
               .Int("updates", outcome.updates)
               .Raw("tasks", TasksJson(outcome.tasks)));
}

/// Starts a fresh peak-memory window: returns freed heap to the system
/// and resets the kernel's resident high-water mark (Linux clear_refs 5).
/// Returns false when the mark cannot be reset.
bool ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Resident high-water mark (VmHWM) since the last reset, in MiB; 0 when
/// /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Measure(WorkloadId id, const Args& args) {
  // Each repetition gets its own peak-memory window, so peak_rss_mb is a
  // per-repetition sample like the times.
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && Elapsed(start) >= args.seconds) break;
    if (!ResetPeakRss()) {
      EmitLine(JsonObject().Str("kind", "error").Str(
          "detail", "cannot reset the resident high-water mark"));
      return 1;
    }
    const RepOutcome outcome =
        RunRep(id, args.seed, Variant::kMeasured, args.workdir);
    EmitRep("rep", rep, outcome, PeakRssMb());
  }
  return 0;
}

int Reference(WorkloadId id, const Args& args) {
  EmitRep("reference", 0,
          RunRep(id, args.seed, Variant::kReference, args.workdir));
  return 0;
}

int Trace(WorkloadId id, const Args& args) {
  // Alternate untraced and traced repetitions so both see the same machine
  // state; trace.overhead_frac compares their medians.
  const auto start = std::chrono::steady_clock::now();
  TraceCollector collector(id, args.seed, args.workdir);
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && Elapsed(start) >= args.seconds) break;
    const RepOutcome untraced =
        RunRep(id, args.seed, Variant::kMeasured, args.workdir);
    EmitRep("rep", rep, untraced);
    collector.AddUntraced(untraced);
    EmitRep("traced", rep, collector.RunTraced());
  }
  EmitLine(collector.Report());
  return collector.WriteArtifacts() ? 0 : 1;
}

int SelfTest() {
  // A small real run: flipping any single bit of a final weight, a bias or
  // a per-round statistic must change the digest.
  simdc::data::SynthConfig data_config;
  data_config.num_devices = 20;
  data_config.records_per_device_mean = 5;
  data_config.num_test_devices = 4;
  data_config.hash_dim = 1u << 10;
  data_config.seed = 7;
  const auto dataset = simdc::data::GenerateSyntheticAvazu(data_config);
  simdc::core::FlExperimentConfig config;
  config.rounds = 2;
  config.train.epochs = 1;
  config.parallelism = 1;
  simdc::sim::EventLoop loop;
  simdc::core::FlEngine engine(loop, dataset, config);
  const simdc::core::FlRunResult result = engine.Run();
  const std::uint64_t base = DigestResult(result);

  std::size_t checked = 0;
  std::size_t caught = 0;
  auto check = [&](const simdc::core::FlRunResult& perturbed) {
    ++checked;
    if (DigestResult(perturbed) != base) ++caught;
  };
  for (std::size_t i = 0; i < result.final_weights.size(); i += 97) {
    for (int bit = 0; bit < 32; bit += 7) {
      simdc::core::FlRunResult perturbed = result;
      std::uint32_t word = 0;
      std::memcpy(&word, &perturbed.final_weights[i], sizeof(word));
      word ^= 1u << bit;
      std::memcpy(&perturbed.final_weights[i], &word, sizeof(word));
      check(perturbed);
    }
  }
  {
    simdc::core::FlRunResult perturbed = result;
    std::uint32_t word = 0;
    std::memcpy(&word, &perturbed.final_bias, sizeof(word));
    word ^= 1u;
    std::memcpy(&perturbed.final_bias, &word, sizeof(word));
    check(perturbed);
  }
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    simdc::core::FlRunResult perturbed = result;
    std::uint64_t word = 0;
    std::memcpy(&word, &perturbed.rounds[r].test_logloss, sizeof(word));
    word ^= 1ULL;
    std::memcpy(&perturbed.rounds[r].test_logloss, &word, sizeof(word));
    check(perturbed);
    perturbed = result;
    ++perturbed.rounds[r].clients;
    check(perturbed);
  }
  {
    simdc::core::FlRunResult perturbed = result;
    ++perturbed.messages_dropped;
    check(perturbed);
  }
  const bool repeatable = DigestResult(result) == base;
  EmitLine(JsonObject()
               .Str("kind", "selftest")
               .Int("perturbations", checked)
               .Int("caught", caught)
               .Bool("repeatable", repeatable));
  return checked > 0 && caught == checked && repeatable ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: simdc_perfbench measure|reference|trace|selftest "
                 "[--workload W] [--seed N] [--seconds S] [--workdir D]\n");
    return 2;
  }
  try {
    if (args.mode == "selftest") return SelfTest();
    const auto id = ParseWorkload(args.workload);
    if (!id) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    EmitFingerprint();
    if (args.mode == "measure") return Measure(*id, args);
    if (args.mode == "reference") return Reference(*id, args);
    if (args.mode == "trace") return Trace(*id, args);
    std::fprintf(stderr, "unknown mode '%s'\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& error) {
    // A failed experiment is a non-ok status: report it and exit non-zero.
    EmitLine(JsonObject().Str("kind", "error").Str("detail", error.what()));
    return 1;
  }
}
