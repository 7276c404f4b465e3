#include "workloads.h"

#include <algorithm>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using namespace simdc;

namespace {

// Workload lengths (rounds per experiment). Each experiment takes about
// half a second to two seconds of host time on a 4-core x86 machine, so a
// run of several seconds repeats it enough times for a steady median.
constexpr std::size_t kCohortRounds = 6;
constexpr std::size_t kDurableRounds = 30;
constexpr std::size_t kTenantCount = 40;
constexpr std::size_t kTenantRounds = 4;
constexpr std::size_t kTenantCohort = 200;

/// Independent 64-bit stream per purpose, all keyed on the workload seed.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t purpose) {
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(purpose));
}

}  // namespace

std::optional<WorkloadId> ParseWorkload(std::string_view name) {
  if (name == "cohort_dense") return WorkloadId::kCohortDense;
  if (name == "train_durable") return WorkloadId::kTrainDurable;
  if (name == "tenants_shared") return WorkloadId::kTenantsShared;
  return std::nullopt;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kCohortDense: return "cohort_dense";
    case WorkloadId::kTrainDurable: return "train_durable";
    case WorkloadId::kTenantsShared: return "tenants_shared";
  }
  return "?";
}

std::size_t PoolWidth() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

data::SynthConfig DatasetConfig(WorkloadId id, std::uint64_t seed) {
  data::SynthConfig config;
  config.seed = Derive(seed, 1);
  switch (id) {
    case WorkloadId::kCohortDense:
      config.num_devices = 2000;
      config.records_per_device_mean = 8.0;
      config.num_test_devices = 50;
      config.hash_dim = 1u << 14;
      break;
    case WorkloadId::kTrainDurable:
      config.num_devices = 200;
      config.records_per_device_mean = 400.0;
      config.num_test_devices = 10;
      config.hash_dim = 1u << 10;
      break;
    case WorkloadId::kTenantsShared:
      config.num_devices = 50000;
      config.records_per_device_mean = 2.0;
      config.num_test_devices = 500;
      config.hash_dim = 1u << 10;
      break;
  }
  return config;
}

core::FlExperimentConfig TaskConfig(WorkloadId id, std::uint64_t seed,
                                    Variant variant,
                                    const std::string& durable_dir) {
  core::FlExperimentConfig config;
  config.seed = Derive(seed, 2);
  config.train.learning_rate = 0.05;
  config.logical_fraction = 0.5;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(60.0);
  // Pass-through dispatch with no losses and no rate limiter: every update
  // of a round reaches its aggregation, at any shard width.
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.0, flow::kShardWidthInvariantCapacity};
  const bool reference = variant == Variant::kReference;
  config.parallelism = reference ? 1 : PoolWidth();
  if (id == WorkloadId::kCohortDense) {
    config.rounds = kCohortRounds;
    config.train.epochs = 1;
    config.aggregate_plane = cloud::AggregatePlane::kPartialSum;
    config.payload_codec = ml::PayloadCodec::kFp32;
    config.reclaim_payload_blobs = true;
    config.shards = reference ? 1 : PoolWidth();
  } else {
    config.rounds = kDurableRounds;
    config.train.epochs = 5;
    config.shards = 1;
    config.durability.mode = persist::DurabilityMode::kLogCheckpoint;
    config.durability.dir = durable_dir;
  }
  return config;
}

TenantFleet TenantFleetConfig() {
  // Each tenant freezes 10 bundles and 2 high-grade phones: the fleet holds
  // half of the 40 tenants at once.
  TenantFleet fleet;
  fleet.logical_bundles = 10 * kTenantCount / 2;
  fleet.phones = {2 * kTenantCount / 2, 2 * kTenantCount / 2};
  fleet.policy.mode = sched::ScheduleMode::kWeightedFair;
  return fleet;
}

std::vector<core::TenantTask> TenantTasks(
    std::uint64_t seed, Variant variant,
    const data::FederatedDataset& dataset) {
  std::vector<core::TenantTask> tasks;
  tasks.reserve(kTenantCount);
  for (std::uint64_t id = 1; id <= kTenantCount; ++id) {
    core::TenantTask task;
    task.spec.id = TaskId(id);
    task.spec.name = "tenant-" + std::to_string(id);
    task.spec.priority = static_cast<int>(id % 7);
    task.spec.rounds = kTenantRounds;
    sched::DeviceRequirement requirement;
    requirement.grade = device::DeviceGrade::kHigh;
    requirement.num_devices = kTenantCohort;
    requirement.phones = 2;
    requirement.logical_bundles = 10;
    task.spec.requirements.push_back(requirement);

    core::FlExperimentConfig& fl = task.fl;
    fl.task = TaskId(id);
    fl.seed = Derive(seed, 100 + id);
    fl.rounds = kTenantRounds;
    fl.participants_per_round = kTenantCohort;
    fl.train.learning_rate = 0.05;
    fl.train.epochs = 1;
    fl.logical_fraction = 0.5;
    fl.trigger = cloud::AggregationTrigger::kScheduled;
    fl.schedule_period = Seconds(30.0);
    fl.shards = 1;
    // Measured: inherit the engine's pool. Reference: sequential.
    fl.parallelism = variant == Variant::kReference ? 1 : 0;
    switch (id % 3) {
      case 0:
        fl.strategy = flow::RealtimeAccumulated{
            {20, 100, 50}, 0.0, flow::kDefaultCapacityPerSecond};
        break;
      case 1:
        fl.strategy = flow::RealtimeAccumulated{
            {1}, 0.1, flow::kShardWidthInvariantCapacity};
        break;
      default: {
        flow::TimePointDispatch points;
        points.points = {{Seconds(1.0), true, 80, 0.0, 0},
                         {Seconds(5.0), true, 80, 0.0, 5},
                         {Seconds(10.0), true, kTenantCohort, 0.0, 5}};
        fl.strategy = points;
        break;
      }
    }
    if (id % 2 == 0) {
      fl.link.transient_failure_probability = 0.2;
      fl.link.max_attempts = 3;
      fl.link.backoff_initial = Seconds(2.0);
      fl.link.backoff_multiplier = 2.0;
      fl.link.backoff_max = Seconds(20.0);
      fl.link.upload_deadline = Seconds(25.0);
    }
    fl.behavior.enabled = true;
    fl.behavior.seed = Derive(seed, 3);
    fl.behavior.mean_availability = 0.85;
    fl.behavior.diurnal_amplitude = 0.1;
    fl.behavior.diurnal_period = Seconds(3600.0);
    fl.behavior.churn_rate = 0.05;
    fl.behavior.churn_horizon = Seconds(3600.0);
    fl.behavior.rejoin_fraction = 0.5;
    fl.behavior.churn_downtime = Seconds(600.0);
    fl.behavior.link_base_failure = 0.02;
    fl.behavior.link_diurnal_swing = 0.05;
    if (id % 6 < 2) {
      fl.round_quorum = 20;
      fl.round_deadline = Seconds(25.0);
      fl.round_extension = Seconds(10.0);
      fl.max_round_extensions = 1;
    }
    task.dataset = &dataset;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace perfbench
