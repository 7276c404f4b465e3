// Tests for the FL engine and the Platform facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"
#include "ml/lr_model.h"
#include "ml/metrics.h"

namespace simdc::core {
namespace {

data::FederatedDataset SmallDataset(
    data::LabelDistribution distribution = data::LabelDistribution::kNatural,
    std::size_t devices = 100) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 15;
  config.num_test_devices = 15;
  config.hash_dim = 1u << 12;
  config.distribution = distribution;
  config.seed = 21;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 3;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.compute_seconds = 2.0;
  config.seed = 5;
  return config;
}

// ---------- FlEngine ----------

TEST(FlEngineTest, CompletesConfiguredRounds) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  FlEngine engine(loop, dataset, BaseConfig());
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.rounds[0].round, 1u);
  EXPECT_EQ(result.rounds[2].round, 3u);
  EXPECT_EQ(result.model_dim, dataset.hash_dim);
  // Every device reported each round (no dropout, schedule slower than
  // slowest device).
  EXPECT_EQ(result.rounds[0].clients, dataset.devices.size());
  EXPECT_EQ(result.messages_emitted, 3 * dataset.devices.size());
  EXPECT_EQ(result.messages_dropped, 0u);
}

TEST(FlEngineTest, LearningImprovesLoss) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 150);
  auto config = BaseConfig();
  config.rounds = 6;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 6u);
  // Test log-loss after 6 rounds beats the untrained ln(2) baseline.
  EXPECT_LT(result.rounds.back().test_logloss, 0.69);
  EXPECT_LT(result.rounds.back().test_logloss,
            result.rounds.front().test_logloss + 1e-6);
}

TEST(FlEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::EventLoop loop;
    const auto dataset = SmallDataset();
    FlEngine engine(loop, dataset, BaseConfig());
    return engine.Run();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time);
    EXPECT_DOUBLE_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
  }
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST(FlEngineTest, TrainEvalPoolMatchesCopiedReservoir) {
  // The runtime keeps its train-eval pool as pointers into the dataset.
  // Rebuild the same approximate reservoir here from *copied* examples and
  // check the last round's train metrics keep their bits. The cap sits
  // below the dataset size so the replacement draws run.
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.eval_cap = 300;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 3u);

  std::vector<data::Example> pool;
  std::size_t seen = 0;
  Rng pool_rng = Rng(config.seed).Split("train-eval-pool");
  for (const auto& device : dataset.devices) {
    for (const auto& example : device.examples) {
      ++seen;
      if (pool.size() < config.eval_cap) {
        pool.push_back(example);
      } else {
        const auto j = static_cast<std::size_t>(pool_rng.UniformInt(
            0, static_cast<std::int64_t>(pool.size()) * 8));
        if (j < pool.size()) pool[j] = example;
      }
    }
  }
  ASSERT_GT(seen, config.eval_cap);

  ml::LrModel model(static_cast<std::uint32_t>(result.final_weights.size()));
  std::copy(result.final_weights.begin(), result.final_weights.end(),
            model.weights().begin());
  model.bias() = result.final_bias;
  const auto expected = ml::Evaluate(model, pool);
  const RoundMetrics& last = result.rounds.back();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(last.train_accuracy),
            std::bit_cast<std::uint64_t>(expected.accuracy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(last.train_logloss),
            std::bit_cast<std::uint64_t>(expected.logloss));
  EXPECT_GT(last.train_accuracy, 0.0);
}

TEST(FlEngineTest, SampleThresholdTriggerCountsSamples) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = dataset.TotalExamples() / 2;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_GE(result.rounds.size(), 1u);
  for (const auto& round : result.rounds) {
    if (round.clients > 0) {
      EXPECT_GE(round.samples, config.sample_threshold);
    }
  }
}

TEST(FlEngineTest, TimeWindowStopsEarly) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.rounds = 1000;
  config.time_window = Minutes(2.0);
  config.schedule_period = Seconds(30.0);
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  // ~4 aggregations fit into 2 minutes at a 30 s period.
  EXPECT_GE(result.rounds.size(), 2u);
  EXPECT_LE(result.rounds.size(), 6u);
}

TEST(FlEngineTest, DropoutReducesClients) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{1}, 0.7};
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_GT(result.messages_dropped, 0u);
  for (const auto& round : result.rounds) {
    EXPECT_LT(round.clients, dataset.devices.size());
  }
}

TEST(FlEngineTest, FullDropoutSurvivesViaStallGuard) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 30);
  auto config = BaseConfig();
  config.rounds = 2;
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1000000;  // unreachable
  config.strategy = flow::RealtimeAccumulated{{1}, 1.0};  // drop everything
  config.stall_timeout = Seconds(30.0);
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  // Rounds recorded as empty instead of hanging.
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds[0].clients, 0u);
}

TEST(FlEngineTest, PartialParticipation) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.participants_per_round = 20;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_FALSE(result.rounds.empty());
  for (const auto& round : result.rounds) {
    EXPECT_LE(round.clients, 20u);
    EXPECT_GT(round.clients, 0u);
  }
}

TEST(FlEngineTest, CustomDelayFnShapesRoundDuration) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = dataset.TotalExamples() - 1;
  config.rounds = 2;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng& rng) {
    return Seconds(rng.Uniform(100.0, 200.0));
  };
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_GE(result.rounds.size(), 1u);
  // Threshold needs nearly all devices → round closes only after the slow
  // tail arrived (≥100 s + compute).
  EXPECT_GE(result.rounds[0].time, Seconds(100.0));
}

TEST(FlEngineTest, HybridMixMatchesPureWithinHalfPercent) {
  // Core premise of Fig. 6: the operator mix induced by the allocation
  // ratio must not change accuracy materially.
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 120);
  auto run_with_fraction = [&](double fraction) {
    sim::EventLoop loop;
    auto config = BaseConfig();
    config.rounds = 4;
    config.logical_fraction = fraction;
    FlEngine engine(loop, dataset, config);
    return engine.Run().rounds.back().test_accuracy;
  };
  const double pure_logical = run_with_fraction(1.0);
  for (const double fraction : {0.75, 0.5, 0.25, 0.0}) {
    EXPECT_NEAR(run_with_fraction(fraction), pure_logical, 0.005)
        << "fraction=" << fraction;
  }
}

// ---------- Platform ----------

TEST(PlatformTest, AssignsUniqueTaskIds) {
  Platform platform;
  const TaskId a = platform.NextTaskId();
  const TaskId b = platform.NextTaskId();
  EXPECT_NE(a, b);
}

sched::TaskSpec SimpleTask(std::size_t devices, int priority = 0) {
  sched::TaskSpec task;
  task.priority = priority;
  task.rounds = 1;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = devices;
  requirement.benchmarking_phones = 1;
  requirement.logical_bundles = 80;
  requirement.phones = 3;
  task.requirements.push_back(requirement);
  return task;
}

TEST(PlatformTest, ExecutesQueuedTaskEndToEnd) {
  Platform platform;
  ASSERT_TRUE(platform.SubmitTask(SimpleTask(40)).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_GT(reports[0].finished, reports[0].started);
  EXPECT_EQ(reports[0].allocation.logical_devices.size(), 1u);
  // Resources fully released afterwards.
  const auto snapshot = platform.resources().Snapshot();
  EXPECT_EQ(snapshot.logical_bundles_free, snapshot.logical_bundles_total);
  EXPECT_EQ(snapshot.phones_free[0], snapshot.phones_total[0]);
}

TEST(PlatformTest, BenchmarkingSamplesCollected) {
  Platform platform;
  auto task = SimpleTask(30);
  ASSERT_TRUE(platform.SubmitTask(task).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].benchmarking.size(), 1u);
  ASSERT_EQ(reports[0].benchmarking[0].size(), 1u);
  const auto samples = platform.metrics().QueryTask(reports[0].id);
  EXPECT_FALSE(samples.empty());
}

TEST(PlatformTest, PriorityOrderUnderContention) {
  Platform platform;
  // Each task wants 3 + 1 High phones; 17 exist, so ~4 fit concurrently;
  // submit 6 tasks with distinct priorities and confirm the two overflow
  // tasks ran in priority order (they appear later in the reports).
  std::vector<TaskId> ids;
  for (int p = 0; p < 6; ++p) {
    auto task = SimpleTask(30, /*priority=*/p);
    task.id = platform.NextTaskId();
    ids.push_back(task.id);
    ASSERT_TRUE(platform.SubmitTask(task).ok());
  }
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 6u);
  for (const auto& report : reports) EXPECT_TRUE(report.ok);
  // All tasks eventually completed exactly once.
  std::set<std::uint64_t> seen;
  for (const auto& report : reports) seen.insert(report.id.value());
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PlatformTest, FixedRatioExecution) {
  Platform platform;
  ASSERT_TRUE(platform.SubmitTask(SimpleTask(40)).ok());
  ExecOptions options;
  options.use_optimizer = false;
  options.fixed_logical_ratio = 1.0;
  const auto reports = platform.RunQueuedTasks(options);
  ASSERT_EQ(reports.size(), 1u);
  // All placeable devices went logical.
  EXPECT_EQ(reports[0].allocation.logical_devices[0], 39u);
}

TEST(PlatformTest, OptimizerNotSlowerThanFixedRatios) {
  // Fig. 7 end-to-end: optimized allocation completes no later than the
  // five fixed types on the same platform.
  auto run = [](bool optimizer, double ratio) {
    Platform platform;
    auto task = SimpleTask(60);
    EXPECT_TRUE(platform.SubmitTask(task).ok());
    ExecOptions options;
    options.use_optimizer = optimizer;
    options.fixed_logical_ratio = ratio;
    options.aggregation_wait_s = 0.0;
    const auto reports = platform.RunQueuedTasks(options);
    EXPECT_EQ(reports.size(), 1u);
    return reports[0].elapsed_seconds();
  };
  const double optimized = run(true, 0.0);
  for (const double ratio : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    // Allow the constant closure overhead (15 s) shared by both paths.
    EXPECT_LE(optimized, run(false, ratio) + 1e-6) << "ratio=" << ratio;
  }
}

TEST(PlatformTest, RunFlExperimentThroughFacade) {
  Platform platform;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 60);
  auto config = BaseConfig();
  config.rounds = 2;
  const auto result = platform.RunFlExperiment(dataset, config);
  EXPECT_EQ(result.rounds.size(), 2u);
}

}  // namespace
}  // namespace simdc::core
