// The benchmark's three workloads, generated from a workload seed.
//
//   cohort_dense   — aggregation-bound: 2 000 devices, all in every round,
//                    2^14-dim models, 4 shards on the partial-sum plane.
//   train_durable  — compute- and write-bound: 200 devices x 400 records,
//                    5 local epochs, log+checkpoint durability.
//   tenants_shared — event- and traffic-bound: 40 tenants drawing 200-device
//                    cohorts from one 50 000-device fleet under weighted-fair
//                    admission.
//
// Every input (dataset, per-task seeds, behaviour seeds) derives from the
// workload seed. The measured variant runs with a worker pool (and shards on
// cohort_dense); the reference variant is the same experiment at parallelism
// 1 on a single fleet, whose results must match bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fl_engine.h"
#include "core/multi_tenant.h"
#include "data/example.h"
#include "data/synth_avazu.h"
#include "sched/scheduler.h"

namespace perfbench {

enum class WorkloadId { kCohortDense, kTrainDurable, kTenantsShared };

std::optional<WorkloadId> ParseWorkload(std::string_view name);
const char* WorkloadName(WorkloadId id);

enum class Variant { kMeasured, kReference };

/// Worker threads of the measured variant: 4, capped at the core count.
std::size_t PoolWidth();

/// Dataset shape of a workload, derived from the workload seed.
simdc::data::SynthConfig DatasetConfig(WorkloadId id, std::uint64_t seed);

/// Single-task workloads (cohort_dense, train_durable). `durable_dir` is the
/// fresh directory train_durable's log and checkpoints go to.
simdc::core::FlExperimentConfig TaskConfig(WorkloadId id, std::uint64_t seed,
                                           Variant variant,
                                           const std::string& durable_dir);

/// tenants_shared: the fleet every tenant admission arbitrates over.
struct TenantFleet {
  std::size_t logical_bundles = 0;
  std::array<std::size_t, 2> phones = {};
  simdc::sched::SchedulePolicy policy;
};
TenantFleet TenantFleetConfig();

/// tenants_shared: all tenants, each pointing at `dataset`.
std::vector<simdc::core::TenantTask> TenantTasks(
    std::uint64_t seed, Variant variant,
    const simdc::data::FederatedDataset& dataset);

}  // namespace perfbench
