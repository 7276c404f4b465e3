// Determinism suite for parallel federated rounds: the
// FlExperimentConfig::parallelism knob must never change results, only
// wall time. Each client trains from its own seed-derived RNG stream into
// a dedicated slot, and updates are reduced in fixed client-index order on
// the event loop, so runs at any worker count are bit-for-bit identical.
#include <gtest/gtest.h>

#include <cstring>

#include "cloud/payload_decoder.h"
#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"
#include "flow/shard_merger.h"
#include "reference_aggregation.h"

namespace simdc::core {
namespace {

data::FederatedDataset Dataset(std::size_t devices = 120) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 12;
  config.num_test_devices = 10;
  config.hash_dim = 1u << 12;
  config.seed = 33;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 2;
  config.logical_fraction = 0.5;  // both kernels in play
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.seed = 7;
  return config;
}

FlRunResult RunWith(const data::FederatedDataset& dataset,
                    FlExperimentConfig config, std::size_t parallelism) {
  sim::EventLoop loop;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  return engine.Run();
}

/// Bit-level equality: EXPECT_EQ on doubles is value equality, which is
/// what we want everywhere except the (impossible here) NaN case; weights
/// are compared as raw float vectors.
void ExpectIdentical(const FlRunResult& a, const FlRunResult& b,
                     std::size_t parallelism) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << "parallelism=" << parallelism;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time);
    EXPECT_EQ(a.rounds[i].clients, b.rounds[i].clients);
    EXPECT_EQ(a.rounds[i].samples, b.rounds[i].samples);
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
    EXPECT_EQ(a.rounds[i].test_logloss, b.rounds[i].test_logloss);
    EXPECT_EQ(a.rounds[i].train_accuracy, b.rounds[i].train_accuracy);
    EXPECT_EQ(a.rounds[i].train_logloss, b.rounds[i].train_logloss);
  }
  EXPECT_EQ(a.messages_emitted, b.messages_emitted);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size());
  EXPECT_EQ(0, std::memcmp(a.final_weights.data(), b.final_weights.data(),
                           a.final_weights.size() * sizeof(float)))
      << "parallelism=" << parallelism;
  EXPECT_EQ(a.final_bias, b.final_bias) << "parallelism=" << parallelism;
}

TEST(DeterminismTest, ParallelRunsBitIdenticalToSequential) {
  const auto dataset = Dataset();
  const auto sequential = RunWith(dataset, BaseConfig(), 1);
  ASSERT_EQ(sequential.rounds.size(), 3u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto parallel = RunWith(dataset, BaseConfig(), parallelism);
    ExpectIdentical(sequential, parallel, parallelism);
  }
}

TEST(DeterminismTest, DropoutAndPartialParticipationUnaffectedByWorkers) {
  // Dropout draws and participant sampling run on the event loop / round
  // RNG streams, never on worker threads — so they too must be invariant.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.participants_per_round = 40;
  config.strategy = flow::RealtimeAccumulated{{1}, 0.3};
  const auto sequential = RunWith(dataset, config, 1);
  EXPECT_GT(sequential.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    ExpectIdentical(sequential, RunWith(dataset, config, parallelism),
                    parallelism);
  }
}

TEST(DeterminismTest, MultiMessageTicksBitIdenticalAtAllParallelism) {
  // Real multi-message dispatch ticks (threshold 5) with dropout, plus a
  // sample-threshold trigger so rounds close *inside* delivery ticks: the
  // sequential run is the reference at every worker count. (What a tick
  // must publish relative to per-message admission is pinned against the
  // oracle in flow_test and the flow-level cases below.)
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{5}, 0.2};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;

  const auto reference = RunWith(dataset, config, 1);
  ASSERT_EQ(reference.rounds.size(), 3u);
  EXPECT_GT(reference.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    ExpectIdentical(reference, RunWith(dataset, config, parallelism),
                    parallelism);
  }
}

// ---------- Sharded fleets ----------

/// Everything a sharded run must keep bit-identical across widths:
/// FlRunResult (round metrics incl. arrival-derived times, weights),
/// the merged dispatch stats (arrival ticks, drops, sends), and the
/// cloud-side admission counters.
struct ShardedOutcome {
  FlRunResult result;
  flow::DispatchStats stats;
  std::size_t messages_received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
};

FlExperimentConfig ShardableConfig() {
  auto config = BaseConfig();
  // Pass-through ticks + a disengaged rate limiter are the width-invariant
  // regime (see FlExperimentConfig::shards); message-keyed transmission
  // drops exercise the dropout plane.
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.25, flow::kShardWidthInvariantCapacity};
  return config;
}

ShardedOutcome RunShardedWith(const data::FederatedDataset& dataset,
                              FlExperimentConfig config, std::size_t shards,
                              std::size_t parallelism = 1) {
  sim::EventLoop loop;
  config.shards = shards;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  ShardedOutcome out;
  out.result = engine.Run();
  out.stats = engine.dispatch_stats();
  out.messages_received = engine.aggregation().messages_received();
  out.decode_failures = engine.aggregation().decode_failures();
  out.stale_rejections = engine.aggregation().stale_rejections();
  return out;
}

void ExpectStatsIdentical(const flow::DispatchStats& a,
                          const flow::DispatchStats& b, std::size_t shards) {
  EXPECT_EQ(a.received, b.received) << "shards=" << shards;
  EXPECT_EQ(a.sent, b.sent) << "shards=" << shards;
  EXPECT_EQ(a.dropped, b.dropped) << "shards=" << shards;
  EXPECT_EQ(a.retries, b.retries) << "shards=" << shards;
  EXPECT_EQ(a.retry_successes, b.retry_successes) << "shards=" << shards;
  EXPECT_EQ(a.deadline_drops, b.deadline_drops) << "shards=" << shards;
  EXPECT_EQ(a.churn_losses, b.churn_losses) << "shards=" << shards;
  EXPECT_EQ(a.batches, b.batches) << "shards=" << shards;
  EXPECT_EQ(a.batch_keys, b.batch_keys) << "shards=" << shards;
  EXPECT_EQ(a.batches_truncated, b.batches_truncated) << "shards=" << shards;
}

void ExpectCountersIdentical(const ShardedOutcome& a, const ShardedOutcome& b,
                             std::size_t shards) {
  EXPECT_EQ(a.messages_received, b.messages_received) << "shards=" << shards;
  EXPECT_EQ(a.decode_failures, b.decode_failures) << "shards=" << shards;
  EXPECT_EQ(a.stale_rejections, b.stale_rejections) << "shards=" << shards;
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalToUnshardedScheduled) {
  // Scheduled aggregation: rounds close on the cloud plane while uploads
  // stream through per-shard dispatchers. shards=1 takes the unsharded
  // code path (single loop, no merger) and is the reference.
  const auto dataset = Dataset();
  const auto reference = RunShardedWith(dataset, ShardableConfig(), 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, ShardableConfig(), shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalUnderThresholdTrigger) {
  // Sample-threshold rounds close INSIDE merged delivery ticks, and the
  // round timestamp is the triggering message's arrival — so this case
  // asserts arrival-stamp identity, not just final weights. Staleness
  // rejection makes the message→round assignment observable too.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t parallelism : {1u, 4u}) {
      const auto sharded =
          RunShardedWith(dataset, config, shards, parallelism);
      ExpectIdentical(reference.result, sharded.result, shards);
      ExpectStatsIdentical(reference.stats, sharded.stats, shards);
      ExpectCountersIdentical(reference, sharded, shards);
    }
  }
}

TEST(ShardedDeterminismTest, PoolAdvancedShardsMatchSequential) {
  // Shard loops advance on the training pool when parallelism provides
  // one; worker scheduling must never leak into results. Also exercises
  // partial participation so shard participant subsets vary per round.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.participants_per_round = 80;
  const auto sequential = RunShardedWith(dataset, config, 4, /*parallelism=*/1);
  EXPECT_GT(sequential.result.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto pooled = RunShardedWith(dataset, config, 4, parallelism);
    ExpectIdentical(sequential.result, pooled.result, parallelism);
    ExpectStatsIdentical(sequential.stats, pooled.stats, parallelism);
  }
  // And the pooled sharded run still equals the unsharded reference.
  const auto reference = RunShardedWith(dataset, config, 1);
  ExpectIdentical(reference.result, sequential.result, 4);
}

TEST(ShardedDeterminismTest, SimultaneousUploadsStayWidthInvariant) {
  // Worst case for arrival stamping: EVERY device uploads at the same
  // microsecond. A finite capacity would serialize those collisions per
  // dispatcher (+1us steps), stamping them differently at each width;
  // the infinite-capacity regime gives zero serialization delay, so the
  // contract must hold even here. Threshold trigger makes the arrivals
  // observable as round timestamps.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 500;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng&) {
    return Seconds(1.0);  // identical for every device, every round
  };
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, MultiMessageTicksDeterministicAtFixedWidth) {
  // Outside the width-invariance regime — multi-message thresholds and a
  // finite (default 700/s) capacity — sharded runs must still be fully
  // deterministic at a fixed width, round-start pumps must stamp at the
  // round time (never a lockstep-barrier artifact behind it), and round
  // timestamps must stay monotone.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{20, 100, 50}, 0.15};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  const auto first = RunShardedWith(dataset, config, 4);
  const auto again = RunShardedWith(dataset, config, 4);
  ExpectIdentical(first.result, again.result, 4);
  ExpectStatsIdentical(first.stats, again.stats, 4);
  ASSERT_EQ(first.result.rounds.size(), 3u);
  SimTime last = 0;
  for (const auto& round : first.result.rounds) {
    EXPECT_GE(round.time, last);
    last = round.time;
  }
}

// ---------- Flow-level oracle harness ----------

/// A hand-built upload stream for the flow-level cases: one message per
/// second, 5 samples each, message-keyed dropout.
struct FlowMix {
  std::size_t messages = 24;
  /// Valid message i claims round i / wave, so with reject_stale some
  /// uploads land fresh and some stale depending on when rounds close.
  std::size_t wave = 24;
  std::size_t sample_threshold = 30;
  bool reject_stale = true;
  /// Interleave corrupt and missing blobs (fresh round), always-stale
  /// valid updates and always-stale corrupt blobs.
  bool failures = false;
  double drop_probability = 0.0;
};

/// What the cloud saw and what it published.
struct FlowMixOutcome {
  /// (message id, arrival) in delivery order.
  std::vector<std::pair<std::uint64_t, SimTime>> stream;
  std::size_t received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  std::size_t rounds = 0;
  std::vector<float> weights;
};

/// Pushes `mix` through `shards` per-shard dispatchers (decoding at the
/// dispatch tick when `decoded`) and the ShardMerger into one
/// AggregationService (flushing on `pool`) behind a capturing tee, and
/// asserts the service matches the oracle replay of the captured stream.
/// Messages carry distinct timestamps and globally ordered ids, so the
/// (tick time, first id, shard) merge yields one canonical delivery order
/// at every width.
FlowMixOutcome RunFlowMix(const FlowMix& mix, std::size_t shards,
                          bool decoded, ThreadPool* pool = nullptr) {
  constexpr std::uint32_t kDim = 16;
  sim::EventLoop cloud_loop;
  cloud::BlobStore store;
  cloud::AggregationConfig agg;
  agg.model_dim = kDim;
  agg.trigger = cloud::AggregationTrigger::kSampleThreshold;
  agg.sample_threshold = mix.sample_threshold;
  agg.reject_stale = mix.reject_stale;
  cloud::AggregationService service(cloud_loop, store, agg);
  service.set_thread_pool(pool);
  reference::CapturingEndpoint capture(&service);
  cloud::BlobModelDecoder decoder(store);

  flow::ShardMerger merger(shards, &capture, &cloud_loop);
  std::vector<std::unique_ptr<sim::EventLoop>> loops;
  std::vector<std::unique_ptr<flow::Dispatcher>> dispatchers;
  for (std::size_t s = 0; s < shards; ++s) {
    loops.push_back(std::make_unique<sim::EventLoop>());
    dispatchers.push_back(std::make_unique<flow::Dispatcher>(
        *loops[s], TaskId(1),
        flow::RealtimeAccumulated{{1}, mix.drop_probability,
                                  flow::kShardWidthInvariantCapacity},
        &merger.channel(s), /*seed=*/11));
    if (decoded) dispatchers[s]->set_decoder(&decoder);
  }

  for (std::size_t i = 0; i < mix.messages; ++i) {
    flow::Message m;
    m.id = MessageId(i + 1);
    m.task = TaskId(1);
    m.device = DeviceId(i + 1);
    m.sample_count = 5;
    m.round = i / mix.wave;
    ml::LrModel model(kDim);
    model.weights()[i % kDim] = static_cast<float>(i) * 0.5f - 40.0f;
    model.bias() = static_cast<float>(i % 7) * 0.125f;
    switch (mix.failures ? i % 6 : 0) {
      case 1:  // corrupt blob, fresh round
        m.payload = store.Put({std::byte{0x42}});
        break;
      case 2:  // missing blob, fresh round
        m.payload = BlobId(900000 + i);
        break;
      case 3:  // valid payload but a round that is always stale
        m.round = 77;
        m.payload = store.Put(model.ToBytes());
        break;
      case 4:  // corrupt blob AND always-stale round: must count stale
        m.round = 99;
        m.payload = store.Put({std::byte{0x01}, std::byte{0x02}});
        break;
      default:
        m.payload = store.Put(model.ToBytes());
        break;
    }
    // Contiguous ranges, like data::PartitionDevices for equal blocks.
    const std::size_t per_shard = (mix.messages + shards - 1) / shards;
    const std::size_t target = std::min(i / per_shard, shards - 1);
    flow::Dispatcher* dispatcher = dispatchers[target].get();
    loops[target]->ScheduleAt(
        Seconds(static_cast<double>(i + 1)),
        [dispatcher, m]() mutable { dispatcher->OnMessage(std::move(m)); });
  }
  for (auto& loop : loops) loop->Run();
  merger.DrainUpTo(Seconds(static_cast<double>(mix.messages + 1)));

  reference::ReferenceAggregation oracle(store, agg);
  oracle.Replay(capture.deliveries());
  reference::ExpectMatchesReference(service, store, oracle);

  FlowMixOutcome out;
  for (const reference::Delivery& delivery : capture.deliveries()) {
    out.stream.emplace_back(delivery.message.id.value(), delivery.arrival);
  }
  out.received = service.messages_received();
  out.decode_failures = service.decode_failures();
  out.stale_rejections = service.stale_rejections();
  out.rounds = service.rounds_completed();
  out.weights.assign(service.global_model().weights().begin(),
                     service.global_model().weights().end());
  return out;
}

void ExpectSameFlowOutcome(const FlowMixOutcome& a, const FlowMixOutcome& b) {
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
  EXPECT_EQ(a.stale_rejections, b.stale_rejections);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                           a.weights.size() * sizeof(float)));
}

TEST(ShardedDeterminismTest, DecodedPlaneBitIdenticalToLegacyAtAllWidths) {
  // Decoded ticks (fetch + decode on the shard loops) against the
  // per-message oracle at every width. Waves of 40 uploads racing a
  // 20-update threshold under dropout make the message→round admission
  // order observable: each wave's tail lands stale.
  FlowMix mix;
  mix.messages = 240;
  mix.wave = 40;
  mix.sample_threshold = 100;
  mix.drop_probability = 0.25;
  const auto reference = RunFlowMix(mix, 1, /*decoded=*/true);
  EXPECT_GE(reference.rounds, 2u);
  EXPECT_GT(reference.stale_rejections, 0u);
  EXPECT_LT(reference.stream.size(), mix.messages);  // dropout engaged
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectSameFlowOutcome(reference, RunFlowMix(mix, shards, true));
  }
}

TEST(ShardedDeterminismTest, PartialSumPlaneBitIdenticalToLegacyAtAllWidths) {
  // More admitted updates per round than the service's flush cap (256),
  // flushed across ThreadPool(4) lanes, against the per-message oracle at
  // every width.
  ThreadPool pool(4);
  FlowMix mix;
  mix.messages = 900;
  mix.sample_threshold = 1500;  // 300 updates per round
  mix.reject_stale = false;
  mix.drop_probability = 0.1;
  const auto reference = RunFlowMix(mix, 1, /*decoded=*/true, &pool);
  EXPECT_GE(reference.rounds, 2u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectSameFlowOutcome(reference, RunFlowMix(mix, shards, true, &pool));
  }
}

TEST(ShardedDeterminismTest, DecodeFailureAccountingParityAcrossPlanes) {
  // Corrupt-blob and missing-blob messages — fresh and stale — must book
  // the oracle's decode_failures / stale_rejections in delivery order on
  // decoded ticks (deferred accounting, flow::DecodedUpdate) and on
  // undecoded ticks (decoded in the service's Deliver), at every width.
  FlowMix mix;
  mix.failures = true;
  const auto reference = RunFlowMix(mix, 1, /*decoded=*/false);
  // The mix by construction: corrupt/missing fresh-round messages become
  // decode failures only while their round is fresh; round-77/99 messages
  // and post-aggregation round-0 messages are stale.
  EXPECT_GT(reference.decode_failures, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);
  EXPECT_EQ(reference.received, 24u);
  EXPECT_GE(reference.rounds, 1u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool decoded : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " decoded=" + std::to_string(decoded));
      ExpectSameFlowOutcome(reference, RunFlowMix(mix, shards, decoded));
    }
  }
}

TEST(ShardedDeterminismTest, ShardCountClampsToDevices) {
  // More fleets than devices must degrade gracefully to one device per
  // fleet, still bit-identical to the unsharded run.
  const auto dataset = Dataset(6);
  auto config = ShardableConfig();
  config.rounds = 2;
  const auto reference = RunShardedWith(dataset, config, 1);
  sim::EventLoop loop;
  auto wide = config;
  wide.shards = 64;
  wide.parallelism = 1;
  FlEngine engine(loop, dataset, wide);
  EXPECT_EQ(engine.shards(), 6u);
  const auto result = engine.Run();
  ExpectIdentical(reference.result, result, 64);
}

TEST(DeterminismTest, PlatformPoolMatchesPrivatePool) {
  // parallelism = 0 inherits the platform's shared pool; the result must
  // equal both the sequential run and a privately-pooled run.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;

  PlatformConfig platform_config;
  platform_config.worker_threads = 3;
  Platform platform(platform_config);
  auto inherited_config = config;
  inherited_config.parallelism = 0;
  const auto inherited = platform.RunFlExperiment(dataset, inherited_config);

  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, inherited, 0);
}

TEST(DeterminismTest, EngineOwnsPoolWhenWidthDiffers) {
  // A caller pool of the "wrong" width must not leak into training when
  // the experiment pins a different parallelism.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;
  ThreadPool caller_pool(2);

  auto run_with_pool = [&](std::size_t parallelism) {
    sim::EventLoop loop;
    auto pinned = config;
    pinned.parallelism = parallelism;
    FlEngine engine(loop, dataset, pinned, &caller_pool);
    return engine.Run();
  };
  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, run_with_pool(1), 1);   // knob forces sequential
  ExpectIdentical(sequential, run_with_pool(2), 2);   // matches caller pool
  ExpectIdentical(sequential, run_with_pool(5), 5);   // private 5-wide pool
}

}  // namespace
}  // namespace simdc::core
