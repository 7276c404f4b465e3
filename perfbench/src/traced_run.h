// The traced run: the workload's real FL run, driven step by step from the
// benchmark so each call into the simulator is a span, followed by a replay
// of every round's work through the layer functions (train, encode, put,
// decode, accumulate, evaluate, durable commit and checkpoint) so the
// per-layer split is measured where the work happens.
//
// Stepping. Single-task workloads construct a core::TaskRuntime and drive it
// the way core::FlEngine::Run does: Begin, then EventLoop::Step on the
// single-fleet path or sim::LockstepGroup::Run with timed next_pending and
// drain hooks on the sharded path, then Finalize. tenants_shared rebuilds
// core::MultiTenantEngine's admission (TaskQueue + GreedyScheduler over the
// ResourceManager) around one TaskRuntime per tenant, all unsharded on one
// cloud loop driven by EventLoop::Step. Every traced result must carry the
// same digest as the untraced run.
//
// Replay. Each round starts from the global model that opened it (the
// previous AggregationRecord::model_blob), re-selects the round's
// participants, and pushes each update through the layer functions. The
// replay is checked against the run: updates and bytes written per task
// must equal the run's counters, every round's test metrics must match, and
// on the lossless single-task workloads the replayed aggregate must equal
// the next published model bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiment.h"
#include "json.h"
#include "trace.h"

namespace perfbench {

class TraceCollector {
 public:
  TraceCollector(WorkloadId id, std::uint64_t seed, std::string workdir);

  /// Books an untraced repetition run in this process (the baseline of
  /// trace.overhead_frac, and the digests the traced run must reproduce).
  void AddUntraced(const RepOutcome& rep);

  /// One traced repetition: setup, driven run, replay.
  RepOutcome RunTraced();

  /// Per-layer metrics (medians over traced repetitions) and check verdict.
  JsonObject Report() const;

  /// Writes <workdir>/<workload>-<seed>.trace.json (Chrome trace events of
  /// the last traced repetition) and .layers.json (self time per span name
  /// and per layer). Returns false on an I/O failure.
  bool WriteArtifacts() const;

 private:
  WorkloadId id_;
  std::uint64_t seed_;
  std::string workdir_;
  Tracer tracer_;
  std::vector<double> untraced_run_s_;
  std::vector<double> traced_run_s_;
  std::vector<std::uint64_t> untraced_digests_;
  /// tenants_shared: (admission passes, peak active tenants) of the
  /// untraced engine.
  std::pair<std::size_t, std::size_t> untraced_admission_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
