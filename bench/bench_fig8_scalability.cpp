// Reproduces Fig. 8: "Scalability of popular simulators" — average
// single-round training time of SimDC, FedScale and FederatedScope from
// 100 to 100,000 simulated devices on a 200-core cluster.
//
// Expected shape (§VI-B4): below 1,000 devices SimDC is slower (Ray job
// setup, placement groups, per-actor data/model downloads, shared-storage
// communication); FedScale is fastest everywhere but least realistic (no
// device-cloud communication at all); beyond ~10,000 devices the device
// scale dominates and SimDC is comparable to FederatedScope.
//
// Includes the DESIGN.md D4 ablation: SimDC without actor multiplexing
// (one actor per device) to show why actors sequentially simulate
// multiple devices.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/scalability_models.h"
#include "bench_util.h"
#include "core/fl_engine.h"
#include "data/synth_avazu.h"
#include "ml/fedavg.h"
#include "sim/event_loop.h"

namespace {

/// Measured (not modelled) engine throughput: one FL experiment over the
/// full synthetic fleet at a given training parallelism. Returns wall
/// seconds and the run result (for the bit-identity cross-check).
double TimedFlRun(const simdc::data::FederatedDataset& dataset,
                  std::size_t parallelism, simdc::core::FlRunResult* out) {
  using namespace simdc;
  sim::EventLoop loop;
  core::FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 3;
  config.logical_fraction = 0.5;  // exercise both kernels
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(60.0);
  config.seed = 99;
  config.parallelism = parallelism;
  const auto start = std::chrono::steady_clock::now();
  core::FlEngine engine(loop, dataset, config);
  *out = engine.Run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main() {
  using namespace simdc;
  bench::PrintHeader(
      "Fig. 8 — single-round time vs scale (seconds, 200-core cluster)");

  baseline::ClusterParams cluster;  // 200 cores
  baseline::SimDcModel simdc_model(cluster);
  baseline::FedScaleModel fedscale(cluster);
  baseline::FederatedScopeModel fedscope(cluster);
  baseline::SimDcModel::Params no_multiplex_params;
  no_multiplex_params.multiplex_devices_per_actor = false;
  baseline::SimDcModel simdc_no_multiplex(cluster, no_multiplex_params);

  std::printf("%10s %12s %12s %16s %22s\n", "Devices", "SimDC", "FedScale",
              "FederatedScope", "SimDC (no multiplex)");
  bench::PrintRule();
  bool shape_ok = true;
  for (const std::size_t n :
       {100u, 300u, 1000u, 3000u, 10000u, 30000u, 100000u}) {
    const double t_simdc = simdc_model.SingleRoundSeconds(n);
    const double t_fedscale = fedscale.SingleRoundSeconds(n);
    const double t_fedscope = fedscope.SingleRoundSeconds(n);
    const double t_ablation = simdc_no_multiplex.SingleRoundSeconds(n);
    std::printf("%10zu %12.1f %12.1f %16.1f %22.1f\n", n, t_simdc,
                t_fedscale, t_fedscope, t_ablation);
    if (n < 1000 && !(t_simdc > t_fedscale && t_simdc > t_fedscope)) {
      shape_ok = false;
    }
    if (n >= 10000) {
      const double ratio = t_simdc / t_fedscope;
      if (ratio < 0.5 || ratio > 2.0) shape_ok = false;
      if (t_fedscale >= t_simdc) shape_ok = false;
    }
  }
  bench::PrintRule();
  std::printf(
      "Shape checks vs paper: SimDC slower than both below 1k devices;\n"
      "FedScale fastest everywhere; SimDC ~ FederatedScope at >= 10k;\n"
      "device scale dominates beyond 10k: %s\n",
      shape_ok ? "REPRODUCED" : "NOT reproduced");

  // --- Measured engine throughput vs training parallelism ---
  // The table above is the paper's analytic cost model; this part runs the
  // real FlEngine over a synthetic fleet and measures wall time at several
  // widths of the parallelism knob, asserting the results stay
  // bit-identical (the determinism contract that makes the knob safe).
  bench::PrintHeader(
      "Measured: FlEngine wall time vs parallelism (bit-identical results)");
  data::SynthConfig data_config;
  data_config.num_devices = 600;
  data_config.records_per_device_mean = 25;
  data_config.num_test_devices = 50;
  data_config.hash_dim = 1u << 14;
  data_config.seed = 4242;
  const auto dataset = data::GenerateSyntheticAvazu(data_config);

  core::FlRunResult sequential;
  const double t_seq = TimedFlRun(dataset, 1, &sequential);
  bench::OpTimings::Instance().Record(
      "fl_run_parallelism_1",
      static_cast<std::uint64_t>(t_seq * 1e9));
  std::printf("%14s %10s %10s %12s\n", "parallelism", "wall s", "speedup",
              "identical");
  bench::PrintRule();
  std::printf("%14zu %10.3f %10s %12s\n", std::size_t{1}, t_seq, "1.00x", "-");
  bool deterministic = true;
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{4}}) {
    core::FlRunResult parallel;
    const double t_par = TimedFlRun(dataset, parallelism, &parallel);
    bench::OpTimings::Instance().Record(
        "fl_run_parallelism_" + std::to_string(parallelism),
        static_cast<std::uint64_t>(t_par * 1e9));
    const bool identical =
        parallel.final_weights == sequential.final_weights &&
        parallel.final_bias == sequential.final_bias &&
        parallel.rounds.size() == sequential.rounds.size();
    deterministic = deterministic && identical;
    std::printf("%14zu %10.3f %9.2fx %12s\n", parallelism, t_par,
                t_par > 0 ? t_seq / t_par : 0.0, identical ? "yes" : "NO");
  }
  bench::PrintRule();
  std::printf("hardware_concurrency = %u\n",
              std::thread::hardware_concurrency());
  std::printf("Parallel runs bit-identical to sequential: %s\n",
              deterministic ? "REPRODUCED" : "NOT reproduced");

  // --- Measured: sharded fleets (FlExperimentConfig::shards) ---
  // The shard plane partitions a 2000-device fleet into N fleets, each
  // with its own event loop + dispatcher advanced on the worker pool and
  // merged into one aggregator in (tick time, message id, shard) order.
  // Dispatch ticks decode payloads (on the shard workers when sharded);
  // the aggregation service stages each admitted update in O(1) and
  // flushes staged updates through per-lane FedAvg partials on the pool,
  // merged in ascending lane order. The cascaded compensated accumulator
  // makes the sum order-invariant, so the bit-identity gate against the
  // unsharded run is hard at every width; the wall-clock column is
  // informational on 1-core machines.
  bench::PrintHeader(
      "Measured: sharded fleets wall time vs width (bit-identical results)");
  data::SynthConfig fleet_config;
  fleet_config.num_devices = 2000;
  fleet_config.records_per_device_mean = 8;
  fleet_config.num_test_devices = 50;
  fleet_config.hash_dim = 1u << 14;
  fleet_config.seed = 777;
  const auto fleet = data::GenerateSyntheticAvazu(fleet_config);

  // Serial-merge profile of the aggregation service, split into the
  // accumulate kernel (flushes) vs admission bookkeeping (staleness,
  // decode-failure accounting, staging). Read off the engine BEFORE it is
  // destroyed.
  struct AggProfile {
    std::uint64_t accumulate_ns = 0;
    std::uint64_t bookkeeping_ns = 0;
  };
  auto timed_sharded = [&](std::size_t shards, core::FlRunResult* out,
                           AggProfile* profile) {
    using namespace simdc;
    sim::EventLoop loop;
    core::FlExperimentConfig config;
    config.rounds = 3;
    config.train.learning_rate = 0.05;
    config.train.epochs = 1;
    config.logical_fraction = 0.5;
    config.trigger = cloud::AggregationTrigger::kScheduled;
    config.schedule_period = Seconds(60.0);
    config.seed = 1234;
    // Width-invariant regime: pass-through ticks, disengaged rate limiter,
    // message-keyed drops (see FlExperimentConfig::shards).
    config.strategy = flow::RealtimeAccumulated{
        {1}, 0.1, flow::kShardWidthInvariantCapacity};
    config.shards = shards;
    // Pin the pool width so ONLY the shard count varies between rows:
    // training parallelism is measured by the previous section, and a
    // per-row pool width would fold it into the shard column.
    config.parallelism = 8;
    const auto start = std::chrono::steady_clock::now();
    core::FlEngine engine(loop, fleet, config);
    *out = engine.Run();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    profile->accumulate_ns = engine.aggregation().serial_accumulate_ns();
    profile->bookkeeping_ns = engine.aggregation().serial_bookkeeping_ns();
    return std::chrono::duration<double>(elapsed).count();
  };

  auto identical_runs = [](const core::FlRunResult& a,
                           const core::FlRunResult& b) {
    bool identical = a.final_weights == b.final_weights &&
                     a.final_bias == b.final_bias &&
                     a.messages_dropped == b.messages_dropped &&
                     a.rounds.size() == b.rounds.size();
    for (std::size_t r = 0; identical && r < a.rounds.size(); ++r) {
      identical = a.rounds[r].time == b.rounds[r].time &&
                  a.rounds[r].clients == b.rounds[r].clients &&
                  a.rounds[r].samples == b.rounds[r].samples;
    }
    return identical;
  };

  std::printf("%10s %10s %10s %14s %12s\n", "shards", "wall s", "speedup",
              "accum ms", "identical");
  bench::PrintRule();
  core::FlRunResult unsharded;
  AggProfile profile[9] = {};
  double t_one = 0.0;
  bool sharded_identical = true;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::FlRunResult sharded;
    const double t_n =
        timed_sharded(shards, shards == 1 ? &unsharded : &sharded,
                      &profile[shards]);
    const std::string width = std::to_string(shards);
    bench::OpTimings::Instance().Record(
        "fig8_partial_shards_" + width,
        static_cast<std::uint64_t>(t_n * 1e9));
    bench::OpTimings::Instance().Record("fig8_partial_accumulate_w" + width,
                                        profile[shards].accumulate_ns);
    bench::OpTimings::Instance().Record("fig8_partial_bookkeeping_w" + width,
                                        profile[shards].bookkeeping_ns);
    if (shards == 1) {
      t_one = t_n;
      std::printf("%10zu %10.3f %10s %14.3f %12s\n", shards, t_n, "1.00x",
                  profile[1].accumulate_ns / 1e6, "-");
      continue;
    }
    const bool identical = identical_runs(sharded, unsharded);
    sharded_identical = sharded_identical && identical;
    std::printf("%10zu %10.3f %9.2fx %14.3f %12s\n", shards, t_n,
                t_n > 0 ? t_one / t_n : 0.0, profile[shards].accumulate_ns / 1e6,
                identical ? "yes" : "NO");
  }
  bench::PrintRule();
  std::printf("Sharded fleets bit-identical to the unsharded run: %s\n",
              sharded_identical ? "REPRODUCED" : "NOT reproduced");

  // The "before" side of the accumulate comparison: one serial
  // FedAvgAggregator::Add per admitted update — the same count of
  // dim-sized updates the runs above folded, round by round — which is
  // what the serial side would cost without staging and pooled flushes.
  std::vector<ml::LrModel> updates;
  for (std::uint32_t k = 0; k < 64; ++k) {
    ml::LrModel model(fleet_config.hash_dim);
    for (std::uint32_t i = 0; i < model.dim(); ++i) {
      model.weights()[i] = static_cast<float>((i * 131u + k * 977u) % 2003u) *
                               1e-3f -
                           1.0f;
    }
    model.bias() = static_cast<float>(k) * 0.01f;
    updates.push_back(std::move(model));
  }
  ml::FedAvgAggregator serial(fleet_config.hash_dim);
  std::size_t folded = 0;
  const auto serial_start = std::chrono::steady_clock::now();
  for (const core::RoundMetrics& round : unsharded.rounds) {
    serial.Reset();
    for (std::size_t c = 0; c < round.clients; ++c, ++folded) {
      if (!serial.Add(updates[folded % updates.size()], 1 + c % 8).ok()) {
        std::abort();
      }
    }
  }
  const auto serial_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - serial_start)
          .count());
  bench::OpTimings::Instance().Record("fig8_serial_accumulate_ref",
                                      serial_ns);
  const double accumulate_speedup =
      profile[8].accumulate_ns > 0
          ? static_cast<double>(serial_ns) /
                static_cast<double>(profile[8].accumulate_ns)
          : 0.0;
  const bool multi_core = std::thread::hardware_concurrency() >= 4;
  const bool accumulate_fast = accumulate_speedup >= 2.0;
  std::printf("Serial reference accumulate: %zu updates in %.3f ms\n",
              folded, serial_ns / 1e6);
  std::printf("Accumulate speedup at 8 shards vs serial reference: %.2fx "
              "(gate: >= 2x, %s on %u-core)\n",
              accumulate_speedup, multi_core ? "hard" : "warn-only",
              std::thread::hardware_concurrency());
  if (!accumulate_fast && !multi_core) {
    std::printf("WARN: accumulate speedup below 2x — expected on < 4 cores, "
                "not gating\n");
  }

  // --- Measured: durability plane overhead (off vs log vs checkpoint) ---
  // The durable store turns every payload Put/Delete into a framed record
  // in an append-only log, group-committed once per dispatch tick / round
  // boundary, and (in log+checkpoint mode) snapshots the aggregator at
  // each round boundary. Two hard gates: the durable runs stay
  // bit-identical to durability=off, and the slowest durable mode costs
  // at most 1.25x the off run (plus a 50 ms noise floor for 1-core CI
  // containers) — group commit is what keeps the hot path O(1) syscalls
  // per tick.
  bench::PrintHeader(
      "Measured: durability plane overhead (bit-identical results)");
  // Compute-dominated workload: CTR features are sparse, so training cost
  // scales with records x epochs while the logged payload scales with the
  // dense model dim — few heavy devices with a small model measure the
  // durability plane against a realistic compute/IO ratio instead of
  // drowning the run in payload bytes.
  data::SynthConfig durable_data;
  durable_data.num_devices = 100;
  durable_data.records_per_device_mean = 400;
  durable_data.num_test_devices = 20;
  durable_data.hash_dim = 1u << 10;
  durable_data.seed = 2025;
  const auto durable_fleet = data::GenerateSyntheticAvazu(durable_data);
  const std::filesystem::path durable_root =
      std::filesystem::temp_directory_path() / "simdc_bench_fig8_durable";
  std::filesystem::remove_all(durable_root);
  auto timed_durable = [&](persist::DurabilityMode mode, const char* tag,
                           core::FlRunResult* out) {
    sim::EventLoop loop;
    core::FlExperimentConfig config;
    config.rounds = 3;
    config.train.learning_rate = 0.05;
    config.train.epochs = 6;
    config.logical_fraction = 0.5;
    config.trigger = cloud::AggregationTrigger::kScheduled;
    config.schedule_period = Seconds(60.0);
    config.seed = 99;
    config.parallelism = 2;
    config.durability.mode = mode;
    if (mode != persist::DurabilityMode::kOff) {
      const auto dir = durable_root / tag;
      std::filesystem::create_directories(dir);
      config.durability.dir = dir.string();
    }
    const auto start = std::chrono::steady_clock::now();
    core::FlEngine engine(loop, durable_fleet, config);
    *out = engine.Run();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
  };

  core::FlRunResult durable_off, durable_log, durable_ckpt;
  const double t_off =
      timed_durable(persist::DurabilityMode::kOff, "off", &durable_off);
  const double t_log =
      timed_durable(persist::DurabilityMode::kLog, "log", &durable_log);
  const double t_ckpt = timed_durable(persist::DurabilityMode::kLogCheckpoint,
                                      "ckpt", &durable_ckpt);
  bench::OpTimings::Instance().Record(
      "fig8_durability_off", static_cast<std::uint64_t>(t_off * 1e9));
  bench::OpTimings::Instance().Record(
      "fig8_durability_log", static_cast<std::uint64_t>(t_log * 1e9));
  bench::OpTimings::Instance().Record(
      "fig8_durability_ckpt", static_cast<std::uint64_t>(t_ckpt * 1e9));

  const double ceiling = t_off * 1.25 + 0.05;  // noise floor for tiny runs
  const bool durable_fast = t_log <= ceiling && t_ckpt <= ceiling;
  const bool durable_identical = identical_runs(durable_log, durable_off) &&
                                 identical_runs(durable_ckpt, durable_off);
  std::printf("%16s %10s %12s %12s\n", "durability", "wall s", "vs off",
              "identical");
  bench::PrintRule();
  std::printf("%16s %10.3f %12s %12s\n", "off", t_off, "1.00x", "-");
  std::printf("%16s %10.3f %11.2fx %12s\n", "log", t_log,
              t_off > 0 ? t_log / t_off : 0.0,
              identical_runs(durable_log, durable_off) ? "yes" : "NO");
  std::printf("%16s %10.3f %11.2fx %12s\n", "log+checkpoint", t_ckpt,
              t_off > 0 ? t_ckpt / t_off : 0.0,
              identical_runs(durable_ckpt, durable_off) ? "yes" : "NO");
  bench::PrintRule();
  std::printf("Durable runs bit-identical to durability=off: %s\n",
              durable_identical ? "REPRODUCED" : "NOT reproduced");
  std::printf("Durable overhead within 1.25x ceiling (%.3fs): %s\n", ceiling,
              durable_fast ? "yes" : "NO");
  std::filesystem::remove_all(durable_root);

  bench::EmitOpTimings();
  return shape_ok && deterministic && sharded_identical &&
                 (accumulate_fast || !multi_core) && durable_identical &&
                 durable_fast
             ? 0
             : 1;
}
