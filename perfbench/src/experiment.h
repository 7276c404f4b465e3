// One untraced repetition of a workload: set-up (dataset generation plus
// engine or tenant construction), then FlEngine::Run or
// MultiTenantEngine::Run, timed on the host clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Verdict on one experiment (the task of a single-task workload, or one
/// tenant of tenants_shared).
struct TaskOutcome {
  std::uint64_t id = 0;
  /// Ran to completion with an ok status.
  bool ok = false;
  std::uint64_t digest = 0;
  std::string detail;
};

struct RepOutcome {
  double generate_ms = 0.0;
  double construct_ms = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Client updates folded into published models, over all tasks.
  std::size_t updates = 0;
  /// tenants_shared: MultiTenantEngine's admission counters.
  std::size_t admission_passes = 0;
  std::size_t peak_active = 0;
  std::vector<TaskOutcome> tasks;
};

/// Runs one repetition. `workdir` holds train_durable's durability
/// directory, created fresh and removed afterwards.
RepOutcome RunRep(WorkloadId id, std::uint64_t seed, Variant variant,
                  const std::string& workdir);

/// Verdicts for a FlRunResult of a single-task workload.
TaskOutcome SingleTaskOutcome(const simdc::core::FlExperimentConfig& config,
                              const simdc::core::FlRunResult& result);
TaskOutcome TenantOutcome(const simdc::core::TenantResult& tenant);

/// Σ RoundMetrics::clients over the rounds of `result`.
std::size_t FoldedUpdates(const simdc::core::FlRunResult& result);

/// Fresh, empty directory for one repetition's durable store.
std::string FreshDir(const std::string& workdir, const std::string& name);

}  // namespace perfbench
