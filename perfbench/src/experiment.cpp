#include "experiment.h"

#include <chrono>
#include <filesystem>
#include <memory>

#include "common/thread_pool.h"
#include "digest.h"
#include "sched/resource_manager.h"

namespace perfbench {

using namespace simdc;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

RepOutcome RunSingleTask(WorkloadId id, std::uint64_t seed, Variant variant,
                         const std::string& workdir) {
  RepOutcome out;
  const std::string dir = FreshDir(workdir, "durable");
  const Clock::time_point t0 = Clock::now();
  const data::FederatedDataset dataset =
      data::GenerateSyntheticAvazu(DatasetConfig(id, seed));
  const core::FlExperimentConfig config = TaskConfig(id, seed, variant, dir);
  const Clock::time_point t1 = Clock::now();
  sim::EventLoop loop;
  core::FlEngine engine(loop, dataset, config);
  const Clock::time_point t2 = Clock::now();
  const core::FlRunResult result = engine.Run();
  const Clock::time_point t3 = Clock::now();
  out.generate_ms = 1e3 * Seconds(t0, t1);
  out.construct_ms = 1e3 * Seconds(t1, t2);
  out.setup_s = Seconds(t0, t2);
  out.run_s = Seconds(t2, t3);
  out.updates = FoldedUpdates(result);
  out.tasks.push_back(SingleTaskOutcome(config, result));
  std::filesystem::remove_all(dir);
  return out;
}

RepOutcome RunTenants(std::uint64_t seed, Variant variant) {
  RepOutcome out;
  const Clock::time_point t0 = Clock::now();
  const data::FederatedDataset dataset = data::GenerateSyntheticAvazu(
      DatasetConfig(WorkloadId::kTenantsShared, seed));
  std::vector<core::TenantTask> tasks = TenantTasks(seed, variant, dataset);
  const Clock::time_point t1 = Clock::now();
  const TenantFleet fleet = TenantFleetConfig();
  std::unique_ptr<ThreadPool> pool;
  if (variant == Variant::kMeasured) {
    pool = std::make_unique<ThreadPool>(PoolWidth());
  }
  sim::EventLoop loop;
  sched::ResourceManager resources(fleet.logical_bundles, fleet.phones);
  core::MultiTenantEngine engine(loop, resources, pool.get());
  for (core::TenantTask& task : tasks) {
    const Status submitted = engine.Submit(std::move(task));
    SIMDC_CHECK(submitted.ok(), "tenant submit failed: " << submitted.ToString());
  }
  const Clock::time_point t2 = Clock::now();
  const std::vector<core::TenantResult> results = engine.Run(fleet.policy);
  const Clock::time_point t3 = Clock::now();
  out.generate_ms = 1e3 * Seconds(t0, t1);
  out.construct_ms = 1e3 * Seconds(t1, t2);
  out.setup_s = Seconds(t0, t2);
  out.run_s = Seconds(t2, t3);
  out.admission_passes = engine.admission_passes();
  out.peak_active = engine.peak_active_tenants();
  for (const core::TenantResult& tenant : results) {
    out.updates += FoldedUpdates(tenant.result);
    out.tasks.push_back(TenantOutcome(tenant));
  }
  return out;
}

}  // namespace

std::size_t FoldedUpdates(const core::FlRunResult& result) {
  std::size_t updates = 0;
  for (const core::RoundMetrics& round : result.rounds) {
    updates += round.clients;
  }
  return updates;
}

TaskOutcome SingleTaskOutcome(const core::FlExperimentConfig& config,
                              const core::FlRunResult& result) {
  TaskOutcome task;
  task.id = config.task.value();
  task.digest = DigestResult(result);
  task.ok = result.rounds.size() == config.rounds;
  if (!task.ok) task.detail = "run stopped before its last round";
  return task;
}

TaskOutcome TenantOutcome(const core::TenantResult& tenant) {
  TaskOutcome task;
  task.id = tenant.id.value();
  task.digest = DigestTenant(tenant);
  task.ok = tenant.completed && !tenant.rejected;
  if (!task.ok) task.detail = tenant.detail;
  return task;
}

std::string FreshDir(const std::string& workdir, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(workdir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

RepOutcome RunRep(WorkloadId id, std::uint64_t seed, Variant variant,
                  const std::string& workdir) {
  if (id == WorkloadId::kTenantsShared) return RunTenants(seed, variant);
  return RunSingleTask(id, seed, variant, workdir);
}

}  // namespace perfbench
