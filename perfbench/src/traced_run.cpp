#include "traced_run.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "cloud/payload_decoder.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/task_runtime.h"
#include "device/behavior.h"
#include "ml/fedavg.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "persist/durable_store.h"
#include "sched/resource_manager.h"
#include "sched/scheduler.h"
#include "sched/task_queue.h"
#include "sim/lockstep.h"

namespace perfbench {

using namespace simdc;

namespace {

using Ns = Tracer::Ns;

double Ms(Ns ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Partial-sum lanes of the replayed aggregation (the order-invariant
/// cascade makes the lane count invisible in the aggregate's bits).
constexpr std::size_t kReplayLanes = 4;

/// Everything the replay needs from one task's finished run.
struct TaskRun {
  std::uint64_t tenant = 0;
  const core::FlExperimentConfig* config = nullptr;
  const core::TaskRuntime* runtime = nullptr;
  core::FlRunResult result;
  /// Virtual time round 0 opened (the admission time of a tenant).
  SimTime start = 0;
  /// Run's storage read counter, taken before the replay reads the
  /// published models back from that store.
  std::size_t bytes_read = 0;
};

/// Counts the replay accumulates across tasks.
struct ReplayCounts {
  std::uint64_t train_steps = 0;
  std::uint64_t eval_examples = 0;
};

/// Replays one task's rounds through the layer functions; appends every
/// mismatch with the run to `problems`.
class TaskReplay {
 public:
  TaskReplay(const data::FederatedDataset& dataset,
             std::span<const data::Example> train_pool, bool lossless,
             const std::string& durable_dir, Tracer& tracer,
             ReplayCounts& counts, std::vector<std::string>& problems)
      : dataset_(dataset),
        train_pool_(train_pool),
        lossless_(lossless),
        durable_dir_(durable_dir),
        tracer_(tracer),
        counts_(counts),
        problems_(problems) {}

  void Replay(const TaskRun& run);

 private:
  void Problem(const TaskRun& run, const std::string& what) {
    problems_.push_back("task " + std::to_string(run.config->task.value()) +
                        ": " + what);
  }
  std::vector<std::size_t> Participants(const TaskRun& run, std::size_t round,
                                        SimTime t0,
                                        const device::BehaviorModel* behavior,
                                        std::size_t& skipped) const;
  persist::CheckpointState CheckpointAt(
      const TaskRun& run, std::size_t row_index, std::size_t aggregations,
      const ml::LrModel& global, const flow::DispatchStats& dispatch) const;

  const data::FederatedDataset& dataset_;
  std::span<const data::Example> train_pool_;
  bool lossless_;
  std::string durable_dir_;
  Tracer& tracer_;
  ReplayCounts& counts_;
  std::vector<std::string>& problems_;
};

std::vector<std::size_t> TaskReplay::Participants(
    const TaskRun& run, std::size_t round, SimTime t0,
    const device::BehaviorModel* behavior, std::size_t& skipped) const {
  // The engine's selection: everyone, or a seeded per-round sample, minus
  // the devices the behaviour model reports unavailable at round start.
  const core::FlExperimentConfig& config = *run.config;
  const std::size_t n = dataset_.devices.size();
  std::vector<std::size_t> participants;
  if (config.participants_per_round == 0 ||
      config.participants_per_round >= n) {
    participants.resize(n);
    for (std::size_t i = 0; i < n; ++i) participants[i] = i;
  } else {
    Rng round_rng = Rng(config.seed).Split(round * 2654435761ULL + 17);
    participants =
        round_rng.SampleWithoutReplacement(n, config.participants_per_round);
    std::sort(participants.begin(), participants.end());
  }
  if (behavior != nullptr) {
    std::size_t kept = 0;
    for (const std::size_t index : participants) {
      if (behavior->Available(dataset_.devices[index].device.value(), t0)) {
        participants[kept++] = index;
      } else {
        ++skipped;
      }
    }
    participants.resize(kept);
  }
  return participants;
}

persist::CheckpointState TaskReplay::CheckpointAt(
    const TaskRun& run, std::size_t row_index, std::size_t aggregations,
    const ml::LrModel& global, const flow::DispatchStats& dispatch) const {
  // A checkpoint of the same shape the engine writes at this boundary:
  // round rows, aggregation history and model, the dispatch-stat prefix.
  const core::RoundMetrics& row = run.result.rounds[row_index];
  persist::CheckpointState state;
  state.time = row.time;
  state.resume_t0 = row.time;
  state.next_round = row_index + 1;
  state.rounds_started = row_index + 1;
  state.last_recorded_round = row_index + 1;
  for (std::size_t i = 0; i <= row_index; ++i) {
    const core::RoundMetrics& m = run.result.rounds[i];
    state.rounds.push_back({m.round, m.time, m.test_accuracy, m.test_logloss,
                            m.train_accuracy, m.train_logloss, m.clients,
                            m.samples});
  }
  const auto& history = run.runtime->aggregation().history();
  state.aggregation.history.assign(
      history.begin(),
      history.begin() + static_cast<std::ptrdiff_t>(aggregations));
  state.aggregation.model_dim = global.dim();
  state.aggregation.global_weights.assign(global.weights().begin(),
                                          global.weights().end());
  state.aggregation.global_bias = global.bias();
  state.aggregation.accumulator.assign(global.dim(), 0.0);
  state.aggregation.accumulator_c1.assign(global.dim(), 0.0);
  state.aggregation.accumulator_c2.assign(global.dim(), 0.0);
  state.dispatch = dispatch;
  std::size_t prefix = 0;
  while (prefix < dispatch.batches.size() &&
         dispatch.batches[prefix].first <= row.time) {
    ++prefix;
  }
  state.dispatch.batches.resize(prefix);
  state.dispatch.batch_keys.resize(std::min(prefix,
                                            state.dispatch.batch_keys.size()));
  return state;
}

void TaskReplay::Replay(const TaskRun& run) {
  const core::FlExperimentConfig& config = *run.config;
  const core::TaskRuntime& runtime = *run.runtime;
  const auto& rows = run.result.rounds;
  const auto& history = runtime.aggregation().history();
  const std::uint32_t dim = dataset_.hash_dim;
  const std::span<const data::Example> test_span(
      dataset_.test_set.data(),
      std::min(dataset_.test_set.size(), config.eval_cap));
  const std::span<const data::Example> train_span =
      train_pool_.first(std::min(train_pool_.size(), config.eval_cap));
  const std::size_t n = dataset_.devices.size();
  const auto logical_cut = static_cast<std::size_t>(
      config.logical_fraction * static_cast<double>(n) + 0.5);

  cloud::BlobStore store;
  const cloud::BlobModelDecoder decoder(store);
  std::unique_ptr<persist::DurableStore> durable;
  if (config.durability.mode != persist::DurabilityMode::kOff) {
    persist::DurabilityConfig durable_config;
    durable_config.mode = config.durability.mode;
    durable_config.dir = durable_dir_;
    durable = std::make_unique<persist::DurableStore>(durable_config);
    const Status fresh = durable->BeginFresh();
    if (!fresh.ok()) Problem(run, "replay durable store: " + fresh.ToString());
    store.set_journal(durable.get());
  }
  std::unique_ptr<device::BehaviorModel> behavior;
  if (config.behavior.enabled) {
    behavior = std::make_unique<device::BehaviorModel>(config.behavior);
  }
  const flow::DispatchStats dispatch =
      durable != nullptr ? runtime.dispatch_stats() : flow::DispatchStats{};

  ml::LrModel global(dim);
  std::vector<ml::FedAvgAggregator> lanes(kReplayLanes,
                                          ml::FedAvgAggregator(dim));
  std::vector<std::byte> bytes;
  std::vector<BlobId> round_blobs;
  std::size_t aggregations = 0;
  std::size_t emitted = 0;
  std::size_t skipped = 0;

  auto commit = [&] {
    if (durable == nullptr) return;
    Tracer::Scope span(tracer_, "persist.commit");
    const Status committed = durable->CommitLog();
    if (!committed.ok()) Problem(run, "replay commit: " + committed.ToString());
  };

  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto round = static_cast<std::int64_t>(k);
    Tracer::Scope round_span(tracer_, "replay.round", round, run.tenant);
    if (config.reclaim_payload_blobs && !round_blobs.empty()) {
      Tracer::Scope span(tracer_, "cloud.reclaim", round, run.tenant);
      for (const BlobId id : round_blobs) (void)store.Delete(id);
      round_blobs.clear();
      (void)store.ReclaimArena();
    }
    const SimTime t0 = k == 0 ? run.start : rows[k - 1].time;
    const std::vector<std::size_t> participants =
        Participants(run, k, t0, behavior.get(), skipped);
    emitted += participants.size();
    std::size_t samples = 0;
    for (std::size_t slot = 0; slot < participants.size(); ++slot) {
      const std::size_t index = participants[slot];
      const data::DeviceData& device = dataset_.devices[index];
      ml::LrModel local(dim);
      {
        Tracer::Scope span(tracer_, "ml.train", round, run.tenant);
        local = global;
        const auto op = ml::MakeLrOperator(index < logical_cut
                                               ? ml::OperatorVenue::kServer
                                               : ml::OperatorVenue::kMobile);
        ml::TrainConfig train = config.train;
        train.shuffle_seed =
            SplitMix64(config.seed ^ (index * 1000003ULL + k));
        op->Train(local, device.examples, train);
      }
      counts_.train_steps += device.examples.size() * config.train.epochs;
      {
        Tracer::Scope span(tracer_, "ml.encode", round, run.tenant);
        bytes.resize(local.EncodedSize(config.payload_codec));
        local.EncodeTo(bytes, config.payload_codec);
      }
      flow::Message message;
      message.task = config.task;
      message.device = device.device;
      message.sample_count = device.examples.size();
      {
        Tracer::Scope span(tracer_, "cloud.put", round, run.tenant);
        message.payload = config.reclaim_payload_blobs
                              ? store.PutPooled(bytes)
                              : store.Put(std::move(bytes));
      }
      if (config.reclaim_payload_blobs) round_blobs.push_back(message.payload);
      flow::DecodedUpdate update;
      {
        Tracer::Scope span(tracer_, "cloud.decode", round, run.tenant);
        update = decoder.Decode(std::move(message));
      }
      if (!update.decoded()) {
        Problem(run, "replayed payload failed to decode");
        continue;
      }
      {
        Tracer::Scope span(tracer_, "ml.accumulate", round, run.tenant);
        (void)lanes[slot % kReplayLanes].Add(*update.model,
                                             update.message.sample_count);
      }
      samples += update.message.sample_count;
    }
    commit();  // the engine group-commits a round's uploads at round start

    const core::RoundMetrics& row = rows[k];
    const bool aggregated = row.clients > 0;
    if (aggregated) {
      if (aggregations >= history.size()) {
        Problem(run, "more aggregated rounds than aggregation records");
        break;
      }
      const cloud::AggregationRecord& record = history[aggregations++];
      Result<ml::LrModel> replayed = ml::LrModel(dim);
      {
        Tracer::Scope span(tracer_, "ml.accumulate", round, run.tenant);
        ml::FedAvgAggregator total(dim);
        for (ml::FedAvgAggregator& lane : lanes) {
          total.MergeFrom(lane);
          lane.Reset();
        }
        replayed = total.Aggregate();
      }
      auto published_bytes = runtime.storage().Get(record.model_blob);
      if (!published_bytes.ok()) {
        Problem(run, "published model blob missing");
        break;
      }
      auto published = ml::LrModel::FromBytes(*published_bytes);
      if (!published.ok()) {
        Problem(run, "published model blob undecodable");
        break;
      }
      if (lossless_) {
        if (record.clients != participants.size() || record.samples != samples) {
          Problem(run, "round " + std::to_string(k) + ": run folded " +
                           std::to_string(record.clients) +
                           " updates, replay " +
                           std::to_string(participants.size()));
        } else if (!replayed.ok() ||
                   !std::equal(replayed->weights().begin(),
                               replayed->weights().end(),
                               published->weights().begin(),
                               published->weights().end(),
                               [](float a, float b) { return SameBits(a, b); }) ||
                   !SameBits(replayed->bias(), published->bias())) {
          Problem(run, "round " + std::to_string(k) +
                           ": replayed aggregate differs from the published "
                           "model");
        }
      }
      global = std::move(*published);
      {
        Tracer::Scope span(tracer_, "cloud.put", round, run.tenant);
        (void)store.Put(global.ToBytes());
      }
    } else {
      for (ml::FedAvgAggregator& lane : lanes) lane.Reset();
    }
    ml::EvalReport test;
    {
      Tracer::Scope span(tracer_, "ml.evaluate", round, run.tenant);
      test = ml::Evaluate(global, test_span);
      counts_.eval_examples += test_span.size();
      if (aggregated) {
        (void)ml::Evaluate(global, train_span);
        counts_.eval_examples += train_span.size();
      }
    }
    if (!SameBits(test.accuracy, row.test_accuracy) ||
        !SameBits(test.logloss, row.test_logloss)) {
      Problem(run, "round " + std::to_string(k) +
                       ": replayed test metrics differ from the run's");
    }
    if (aggregated && durable != nullptr) {
      commit();
      Tracer::Scope span(tracer_, "persist.checkpoint", round, run.tenant);
      const Status wrote = durable->WriteCheckpoint(
          CheckpointAt(run, k, aggregations, global, dispatch));
      if (!wrote.ok()) Problem(run, "replay checkpoint: " + wrote.ToString());
    }
  }

  if (emitted != run.result.messages_emitted) {
    Problem(run, "replay emitted " + std::to_string(emitted) +
                     " updates, run " +
                     std::to_string(run.result.messages_emitted));
  }
  if (skipped != run.result.skipped_unavailable) {
    Problem(run, "replay skipped " + std::to_string(skipped) +
                     " unavailable devices, run " +
                     std::to_string(run.result.skipped_unavailable));
  }
  if (store.bytes_written() != runtime.storage().bytes_written()) {
    Problem(run, "replay wrote " + std::to_string(store.bytes_written()) +
                     " bytes, run " +
                     std::to_string(runtime.storage().bytes_written()));
  }
  if (lossless_ ? store.bytes_read() != run.bytes_read
                : store.bytes_read() < run.bytes_read) {
    Problem(run, "replay read " + std::to_string(store.bytes_read()) +
                     " bytes, run " + std::to_string(run.bytes_read));
  }
  if (durable != nullptr) {
    const persist::DurableStore* real = runtime.durable_store();
    if (real == nullptr || durable->log_commits() != real->log_commits() ||
        durable->checkpoints_written() != real->checkpoints_written()) {
      Problem(run, "replay durable commits/checkpoints differ from the run's");
    }
  }
}

/// The first `cap` training examples in device order: the same number of
/// examples the engine's train-evaluation pool scores each round.
std::vector<data::Example> TrainPool(const data::FederatedDataset& dataset,
                                     std::size_t cap) {
  std::vector<data::Example> pool;
  for (const data::DeviceData& device : dataset.devices) {
    for (const data::Example& example : device.examples) {
      if (pool.size() >= cap) return pool;
      pool.push_back(example);
    }
  }
  return pool;
}

/// Run-side counters summed over tasks.
struct RunCounters {
  flow::DispatchStats flow;
  std::size_t flow_batches = 0;
  double serial_accumulate_ms = 0.0;
  double serial_bookkeeping_ms = 0.0;
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
  std::size_t arena_created = 0;
  std::size_t arena_recycled = 0;
  std::uint64_t log_commits = 0;
  std::uint64_t checkpoints = 0;

  void Add(const core::TaskRuntime& runtime) {
    const flow::DispatchStats stats = runtime.dispatch_stats();
    flow.received += stats.received;
    flow.sent += stats.sent;
    flow.dropped += stats.dropped;
    flow.retries += stats.retries;
    flow.deadline_drops += stats.deadline_drops;
    flow.churn_losses += stats.churn_losses;
    flow_batches += stats.batches.size() + stats.batches_truncated;
    serial_accumulate_ms +=
        static_cast<double>(runtime.aggregation().serial_accumulate_ns()) / 1e6;
    serial_bookkeeping_ms +=
        static_cast<double>(runtime.aggregation().serial_bookkeeping_ns()) /
        1e6;
    bytes_written += runtime.storage().bytes_written();
    bytes_read += runtime.storage().bytes_read();
    arena_created += runtime.storage().arena_blocks_created();
    arena_recycled += runtime.storage().arena_blocks_recycled();
    if (const persist::DurableStore* durable = runtime.durable_store()) {
      log_commits += durable->log_commits();
      checkpoints += durable->checkpoints_written();
    }
  }

  void Publish(const ReplayCounts& counts,
               std::map<std::string, double>& m) const {
    m["ml.train_steps"] = static_cast<double>(counts.train_steps);
    m["ml.eval_examples"] = static_cast<double>(counts.eval_examples);
    m["flow.messages"] = static_cast<double>(flow.received);
    m["flow.batches"] = static_cast<double>(flow_batches);
    m["flow.retries"] = static_cast<double>(flow.retries);
    m["flow.deadline_drops"] = static_cast<double>(flow.deadline_drops);
    m["flow.churn_losses"] = static_cast<double>(flow.churn_losses);
    // Delivered over attempts, retries included.
    const double attempts = static_cast<double>(flow.received + flow.retries);
    m["flow.delivered_ratio"] =
        attempts > 0 ? static_cast<double>(flow.sent) / attempts : 0.0;
    m["cloud.serial_accumulate_ms"] = serial_accumulate_ms;
    m["cloud.serial_bookkeeping_ms"] = serial_bookkeeping_ms;
    m["cloud.bytes_written"] = static_cast<double>(bytes_written);
    m["cloud.bytes_read"] = static_cast<double>(bytes_read);
    m["cloud.arena_blocks_created"] = static_cast<double>(arena_created);
    m["cloud.arena_blocks_recycled"] = static_cast<double>(arena_recycled);
    m["persist.log_commits"] = static_cast<double>(log_commits);
    m["persist.checkpoints"] = static_cast<double>(checkpoints);
  }
};

/// One traced repetition's raw outputs.
struct TracedRep {
  RepOutcome outcome;
  std::map<std::string, double> metrics;
};

/// Stepping-loop instrumentation shared by both topologies.
struct StepStats {
  std::uint64_t events = 0;
  std::uint64_t barriers = 0;
  std::vector<double> round_ms;
};

/// Single-task workloads: TaskRuntime driven like FlEngine::Run.
TracedRep TraceSingleTask(WorkloadId id, std::uint64_t seed,
                          const std::string& workdir, Tracer& tracer,
                          std::vector<std::string>& problems) {
  TracedRep rep;
  const std::string run_dir = FreshDir(workdir, "traced-durable");
  const Ns setup_start = Tracer::Now();
  tracer.Begin("setup", setup_start, -1, 0);
  tracer.Begin("data.generate");
  const data::FederatedDataset dataset =
      data::GenerateSyntheticAvazu(DatasetConfig(id, seed));
  const core::FlExperimentConfig config =
      TaskConfig(id, seed, Variant::kMeasured, run_dir);
  tracer.End();
  sim::EventLoop loop;
  std::optional<core::TaskRuntime> runtime;
  {
    Tracer::Scope span(tracer, "core.construct");
    runtime.emplace(loop, dataset, config);
  }
  tracer.End();
  const Ns run_start = Tracer::Now();
  rep.outcome.setup_s = static_cast<double>(run_start - setup_start) / 1e9;

  StepStats steps;
  std::size_t rounds_seen = 0;
  Ns last_close = run_start;
  auto check_round = [&] {
    const std::size_t closed = runtime->aggregation().rounds_completed();
    if (closed == rounds_seen) return;
    const Ns now = Tracer::Now();
    for (; rounds_seen < closed; ++rounds_seen) {
      steps.round_ms.push_back(Ms(now - last_close));
      last_close = now;
    }
  };
  auto current_round = [&] {
    return static_cast<std::int64_t>(runtime->aggregation().rounds_completed());
  };

  core::FlRunResult result;
  tracer.Begin("run", run_start, -1, 0);
  {
    Tracer::Scope span(tracer, "core.begin", 0);
    runtime->Begin();
  }
  if (!runtime->sharded()) {
    for (;;) {
      tracer.Begin("sim.step", current_round());
      const bool ran = loop.Step();
      tracer.End();
      if (!ran) break;
      ++steps.events;
      check_round();
    }
  } else {
    // FlEngine::Run's lockstep, with the cloud plane's share of each
    // iteration run (and timed) inside next_pending: the hook computes the
    // group's own T0, runs the cloud loop through it, and returns the
    // merger's pending tick time, so the group's RunUntil(T0) that follows
    // finds nothing left to run and the event order is unchanged.
    sim::LockstepGroup group(loop, runtime->ShardLoops(), runtime->pool());
    flow::ShardMerger* merger = runtime->merger();
    const std::vector<sim::EventLoop*> shards = runtime->ShardLoops();
    Ns advance_start = 0;
    sim::LockstepGroup::Hooks hooks;
    hooks.next_pending = [&] {
      const SimTime pending = merger->NextTickTime();
      SimTime t0 = std::min(loop.NextEventTime(), pending);
      for (sim::EventLoop* shard : shards) {
        t0 = std::min(t0, shard->NextEventTime());
      }
      if (t0 != sim::EventLoop::kNoEvent) {
        Tracer::Scope span(tracer, "sim.cloud_events", current_round());
        steps.events += loop.RunUntil(t0);
      }
      check_round();
      advance_start = Tracer::Now();
      return pending;
    };
    hooks.drain = [&](SimTime horizon) {
      tracer.Record("sim.shard_advance", advance_start, Tracer::Now(),
                    current_round());
      Tracer::Scope span(tracer, "sim.merge_barrier", current_round());
      merger->DrainUpTo(horizon);
      ++steps.barriers;
      check_round();
    };
    steps.events += group.Run(hooks, runtime->feedback_guard());
  }
  {
    Tracer::Scope span(tracer, "core.finalize");
    result = runtime->Finalize();
  }
  const Ns run_end = Tracer::Now();
  tracer.End(run_end);
  rep.outcome.run_s = static_cast<double>(run_end - run_start) / 1e9;
  rep.outcome.updates = FoldedUpdates(result);
  rep.outcome.tasks.push_back(SingleTaskOutcome(config, result));

  RunCounters counters;
  counters.Add(*runtime);

  // Replay.
  const std::vector<data::Example> train_pool =
      TrainPool(dataset, config.eval_cap);
  ReplayCounts counts;
  tracer.Begin("replay");
  {
    TaskReplay replay(dataset, train_pool, /*lossless=*/true,
                      FreshDir(workdir, "replay-durable"), tracer, counts,
                      problems);
    TaskRun run;
    run.config = &config;
    run.runtime = &*runtime;
    run.result = result;
    run.bytes_read = counters.bytes_read;
    replay.Replay(run);
  }
  tracer.End();

  auto& m = rep.metrics;
  m["sim.events"] = static_cast<double>(steps.events);
  m["sim.barriers"] = static_cast<double>(steps.barriers);
  m["core.round_ms.p50"] = Percentile(steps.round_ms, 0.5);
  m["core.round_ms.p90"] = Percentile(steps.round_ms, 0.9);
  m["core.round_ms.samples"] = static_cast<double>(steps.round_ms.size());
  counters.Publish(counts, m);
  std::filesystem::remove_all(run_dir);
  std::filesystem::remove_all(std::filesystem::path(workdir) / "replay-durable");
  return rep;
}

/// tenants_shared: MultiTenantEngine's admission rebuilt around per-tenant
/// TaskRuntimes on one cloud loop, so every event is one timed step.
class TracedTenants {
 public:
  TracedTenants(sim::EventLoop& loop, sched::ResourceManager& resources,
                ThreadPool* pool, sched::SchedulePolicy policy, Tracer& tracer)
      : loop_(loop),
        resources_(resources),
        pool_(pool),
        scheduler_(resources),
        policy_(policy),
        tracer_(tracer) {}

  void Submit(core::TenantTask task) {
    SIMDC_CHECK(task.fl.shards <= 1, "traced tenants run unsharded");
    const Status queued = queue_.Submit(task.spec);
    SIMDC_CHECK(queued.ok(), "tenant submit failed: " << queued.ToString());
    Tenant tenant;
    tenant.submitted = loop_.Now();
    tenant.task = std::move(task);
    const TaskId id = tenant.task.spec.id;
    tenants_.emplace(id, std::move(tenant));
  }

  /// Runs every tenant to quiescence; returns per-tenant results in
  /// ascending task-id order.
  std::vector<core::TenantResult> Run(std::uint64_t& events) {
    AdmissionPass();
    for (;;) {
      tracer_.Begin("sim.step");
      const bool ran = loop_.Step();
      tracer_.End();
      if (!ran) break;
      ++events;
    }
    std::vector<core::TenantResult> results;
    Tracer::Scope span(tracer_, "core.finalize");
    for (auto& [id, tenant] : tenants_) {
      core::TenantResult row;
      row.id = id;
      row.rejected = tenant.rejected;
      if (tenant.admitted && tenant.runtime->done()) {
        row.completed = true;
        row.result = tenant.runtime->Finalize();
        row.sla = tenant.runtime->Sla();
      } else {
        row.detail = tenant.rejected ? "rejected by admission control"
                                     : "never completed";
      }
      results.push_back(std::move(row));
    }
    return results;
  }

  const core::TaskRuntime* runtime(TaskId id) const {
    return tenants_.at(id).runtime.get();
  }
  const core::FlExperimentConfig& config(TaskId id) const {
    return tenants_.at(id).task.fl;
  }
  std::size_t admission_passes() const { return admission_passes_; }
  std::size_t peak_active() const { return peak_active_; }

 private:
  struct Tenant {
    core::TenantTask task;
    sched::ResourceRequest frozen;
    std::unique_ptr<core::TaskRuntime> runtime;
    SimTime submitted = 0;
    bool admitted = false;
    bool rejected = false;
  };

  // MultiTenantEngine::AdmissionPass, Admit and OnTenantComplete.
  void AdmissionPass() {
    Tracer::Scope span(tracer_, "core.admission");
    ++admission_passes_;
    const SimTime now = loop_.Now();
    sched::ScheduleDecision decision =
        scheduler_.SchedulePassEx(queue_, policy_);
    if (policy_.mode == sched::ScheduleMode::kWeightedFair &&
        decision.launched.empty() && active_ == 0 && !queue_.empty()) {
      sched::SchedulePolicy greedy = policy_;
      greedy.mode = sched::ScheduleMode::kPriority;
      sched::ScheduleDecision retry = scheduler_.SchedulePassEx(queue_, greedy);
      decision.launched = std::move(retry.launched);
      for (auto& spec : retry.rejected) {
        decision.rejected.push_back(std::move(spec));
      }
    }
    for (const sched::TaskSpec& spec : decision.rejected) {
      tenants_.at(spec.id).rejected = true;
    }
    for (const sched::TaskSpec& spec : decision.launched) {
      Tenant& tenant = tenants_.at(spec.id);
      tenant.frozen = sched::RequestFor(spec);
      Admit(tenant, now);
    }
  }

  void Admit(Tenant& tenant, SimTime now) {
    const std::uint64_t id = tenant.task.spec.id.value();
    tenant.admitted = true;
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    {
      Tracer::Scope span(tracer_, "core.construct", -1, id);
      tenant.runtime = std::make_unique<core::TaskRuntime>(
          loop_, *tenant.task.dataset, tenant.task.fl, pool_);
    }
    tenant.runtime->set_queue_times(tenant.submitted, now);
    Tenant* slot = &tenant;
    tenant.runtime->set_on_complete(
        [this, slot](SimTime when) { OnComplete(*slot, when); });
    Tracer::Scope span(tracer_, "core.begin", 0, id);
    tenant.runtime->Begin();
  }

  void OnComplete(Tenant& tenant, SimTime when) {
    --active_;
    const Status released = resources_.Release(tenant.frozen);
    SIMDC_CHECK(released.ok(), "release failed: " << released.ToString());
    if (!queue_.empty()) {
      loop_.ScheduleAt(when, [this] { AdmissionPass(); });
    }
  }

  sim::EventLoop& loop_;
  sched::ResourceManager& resources_;
  ThreadPool* pool_;
  sched::TaskQueue queue_;
  sched::GreedyScheduler scheduler_;
  sched::SchedulePolicy policy_;
  Tracer& tracer_;
  std::map<TaskId, Tenant> tenants_;
  std::size_t active_ = 0;
  std::size_t peak_active_ = 0;
  std::size_t admission_passes_ = 0;
};

TracedRep TraceTenants(std::uint64_t seed, Tracer& tracer,
                       std::vector<std::string>& problems) {
  TracedRep rep;
  const Ns setup_start = Tracer::Now();
  tracer.Begin("setup", setup_start, -1, 0);
  tracer.Begin("data.generate");
  const data::FederatedDataset dataset = data::GenerateSyntheticAvazu(
      DatasetConfig(WorkloadId::kTenantsShared, seed));
  std::vector<core::TenantTask> tasks =
      TenantTasks(seed, Variant::kMeasured, dataset);
  tracer.End();
  const TenantFleet fleet = TenantFleetConfig();
  std::optional<ThreadPool> pool;
  std::optional<sim::EventLoop> loop_storage;
  std::optional<sched::ResourceManager> resources;
  std::optional<TracedTenants> engine;
  {
    Tracer::Scope span(tracer, "core.construct");
    pool.emplace(PoolWidth());
    loop_storage.emplace();
    resources.emplace(fleet.logical_bundles, fleet.phones);
    engine.emplace(*loop_storage, *resources, &*pool, fleet.policy, tracer);
    for (core::TenantTask& task : tasks) engine->Submit(std::move(task));
  }
  tracer.End();
  const Ns run_start = Tracer::Now();
  rep.outcome.setup_s = static_cast<double>(run_start - setup_start) / 1e9;

  std::uint64_t events = 0;
  tracer.Begin("run", run_start, -1, 0);
  const std::vector<core::TenantResult> results = engine->Run(events);
  const Ns run_end = Tracer::Now();
  tracer.End(run_end);
  rep.outcome.run_s = static_cast<double>(run_end - run_start) / 1e9;
  rep.outcome.admission_passes = engine->admission_passes();
  rep.outcome.peak_active = engine->peak_active();

  RunCounters counters;
  std::vector<double> queue_wait_s;
  for (const core::TenantResult& tenant : results) {
    rep.outcome.updates += FoldedUpdates(tenant.result);
    rep.outcome.tasks.push_back(TenantOutcome(tenant));
    if (const core::TaskRuntime* runtime = engine->runtime(tenant.id)) {
      counters.Add(*runtime);
    }
    queue_wait_s.push_back(tenant.sla.queue_wait_s);
  }

  const std::vector<data::Example> train_pool = TrainPool(dataset, 20000);
  ReplayCounts counts;
  tracer.Begin("replay");
  for (const core::TenantResult& tenant : results) {
    const core::TaskRuntime* runtime = engine->runtime(tenant.id);
    if (runtime == nullptr) continue;
    TaskReplay replay(dataset, train_pool, /*lossless=*/false, "", tracer,
                      counts, problems);
    TaskRun run;
    run.tenant = tenant.id.value();
    run.config = &engine->config(tenant.id);
    run.runtime = runtime;
    run.result = tenant.result;
    run.start = tenant.sla.admitted;
    run.bytes_read = runtime->storage().bytes_read();
    replay.Replay(run);
  }
  tracer.End();

  auto& m = rep.metrics;
  m["sim.events"] = static_cast<double>(events);
  counters.Publish(counts, m);
  m["core.admission_passes"] =
      static_cast<double>(engine->admission_passes());
  m["core.peak_active_tenants"] = static_cast<double>(engine->peak_active());
  m["core.queue_wait_s.p50"] = Percentile(queue_wait_s, 0.5);
  return rep;
}

}  // namespace

TraceCollector::TraceCollector(WorkloadId id, std::uint64_t seed,
                           std::string workdir)
    : id_(id), seed_(seed), workdir_(std::move(workdir)) {}

void TraceCollector::AddUntraced(const RepOutcome& rep) {
  untraced_run_s_.push_back(rep.run_s);
  untraced_admission_ = {rep.admission_passes, rep.peak_active};
  untraced_digests_.clear();
  for (const TaskOutcome& task : rep.tasks) {
    untraced_digests_.push_back(task.digest);
  }
}

RepOutcome TraceCollector::RunTraced() {
  tracer_.Clear();
  TracedRep rep = id_ == WorkloadId::kTenantsShared
                      ? TraceTenants(seed_, tracer_, problems_)
                      : TraceSingleTask(id_, seed_, workdir_, tracer_,
                                        problems_);
  // The traced run must reproduce the untraced run bit for bit.
  if (rep.outcome.tasks.size() != untraced_digests_.size()) {
    problems_.push_back("traced run has a different task count");
  } else {
    for (std::size_t i = 0; i < untraced_digests_.size(); ++i) {
      if (rep.outcome.tasks[i].digest != untraced_digests_[i]) {
        problems_.push_back("traced digest differs for task " +
                            std::to_string(rep.outcome.tasks[i].id));
      }
    }
  }
  if (id_ == WorkloadId::kTenantsShared &&
      std::make_pair(rep.outcome.admission_passes, rep.outcome.peak_active) !=
          untraced_admission_) {
    problems_.push_back("traced admission differs from the untraced engine's");
  }
  traced_run_s_.push_back(rep.outcome.run_s);

  auto ms_of = [&](const char* name) {
    return Ms(tracer_.StatsOf(name).total_ns);
  };
  auto& m = rep.metrics;
  // Layers a workload does not exercise report zero.
  for (const char* name :
       {"sim.barriers", "core.round_ms.p50", "core.round_ms.p90",
        "core.round_ms.samples", "core.admission_passes",
        "core.peak_active_tenants", "core.queue_wait_s.p50"}) {
    m.try_emplace(name, 0.0);
  }
  m["data.generate_ms"] = ms_of("data.generate");
  m["core.construct_ms"] = ms_of("core.construct");
  m["ml.train_ms"] = ms_of("ml.train");
  m["ml.encode_ms"] = ms_of("ml.encode");
  m["cloud.put_ms"] = ms_of("cloud.put");
  m["cloud.decode_ms"] = ms_of("cloud.decode");
  m["ml.accumulate_ms"] = ms_of("ml.accumulate");
  m["ml.evaluate_ms"] = ms_of("ml.evaluate");
  m["persist.commit_ms"] = ms_of("persist.commit");
  m["persist.checkpoint_ms"] = ms_of("persist.checkpoint");
  m["sim.cloud_events_ms"] = ms_of("sim.cloud_events");
  m["sim.merge_barrier_ms"] = ms_of("sim.merge_barrier");
  m["sim.shard_advance_ms"] = ms_of("sim.shard_advance");
  const double run_ns = rep.outcome.run_s * 1e9;
  m["sim.ns_per_event"] =
      m["sim.events"] > 0 ? run_ns / m["sim.events"] : 0.0;
  const Tracer::NameStats run = tracer_.StatsOf("run");
  m["trace.unattributed_frac"] =
      run.total_ns > 0 ? static_cast<double>(run.self_ns()) /
                             static_cast<double>(run.total_ns)
                       : 0.0;
  for (const auto& [name, value] : m) samples_[name].push_back(value);
  return rep.outcome;
}

JsonObject TraceCollector::Report() const {
  JsonObject metrics;
  for (const auto& [name, values] : samples_) {
    metrics.Num(name, Median(values));
  }
  const double untraced = Median(untraced_run_s_);
  metrics.Num("trace.overhead_frac",
              untraced > 0 ? Median(traced_run_s_) / untraced - 1.0 : 0.0);
  metrics.Num("trace.run_s", Median(traced_run_s_));
  std::string problems = "[";
  for (std::size_t i = 0; i < problems_.size() && i < 20; ++i) {
    if (i > 0) problems += ",";
    problems += JsonString(problems_[i]);
  }
  problems += "]";
  return JsonObject()
      .Str("kind", "layers")
      .Raw("metrics", metrics.str())
      .Int("problem_count", problems_.size())
      .Raw("problems", problems);
}

bool TraceCollector::WriteArtifacts() const {
  const std::string stem = (std::filesystem::path(workdir_) /
                            (std::string(WorkloadName(id_)) + "-" +
                             std::to_string(seed_)))
                               .string();
  if (!tracer_.WriteChromeTrace(stem + ".trace.json")) return false;
  std::ofstream summary(stem + ".layers.json");
  summary << tracer_.SummaryJson() << "\n";
  return static_cast<bool>(summary);
}

}  // namespace perfbench
