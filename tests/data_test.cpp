// Unit tests for the synthetic Avazu-like dataset generator.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/schema.h"
#include "data/sharding.h"
#include "data/synth_avazu.h"

namespace {

/// Counts operator-new calls made while `g_watch_allocations` is set by any
/// thread other than one that set `t_allocation_owner`.
std::atomic<bool> g_watch_allocations{false};
std::atomic<std::size_t> g_foreign_allocations{0};
thread_local bool t_allocation_owner = false;

}  // namespace

// Kept out of line: once inlined, GCC pairs a new-expression with the
// free() inside these and rejects it under -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_watch_allocations.load(std::memory_order_relaxed) &&
      !t_allocation_owner) {
    g_foreign_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace simdc::data {
namespace {

SynthConfig SmallConfig() {
  SynthConfig config;
  config.num_devices = 200;
  config.records_per_device_mean = 20;
  config.num_test_devices = 20;
  config.hash_dim = 1u << 14;
  config.seed = 7;
  return config;
}

TEST(SchemaTest, HashFeatureStaysInRange) {
  for (std::uint32_t f = 0; f < kAvazuFields.size(); ++f) {
    for (std::uint32_t v = 0; v < 100; ++v) {
      EXPECT_LT(HashFeature(f, v, 4096), 4096u);
    }
  }
}

TEST(SchemaTest, HashFeatureSeparatesFields) {
  // Same value in different fields should almost never collide.
  int collisions = 0;
  for (std::uint32_t v = 0; v < 500; ++v) {
    if (HashFeature(0, v, 1u << 16) == HashFeature(1, v, 1u << 16)) {
      ++collisions;
    }
  }
  EXPECT_LE(collisions, 2);
}

TEST(SynthAvazuTest, DeterministicInSeed) {
  const auto a = GenerateSyntheticAvazu(SmallConfig());
  const auto b = GenerateSyntheticAvazu(SmallConfig());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  ASSERT_EQ(a.TotalExamples(), b.TotalExamples());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    ASSERT_EQ(a.devices[d].examples.size(), b.devices[d].examples.size());
    for (std::size_t e = 0; e < a.devices[d].examples.size(); ++e) {
      EXPECT_EQ(a.devices[d].examples[e].features,
                b.devices[d].examples[e].features);
      EXPECT_EQ(a.devices[d].examples[e].label, b.devices[d].examples[e].label);
    }
  }
}

/// Digest over every generated feature, label, true CTR and response
/// delay, in device then record order.
std::uint64_t DatasetDigest(const FederatedDataset& dataset) {
  std::uint64_t digest = 0;
  const auto mix = [&](std::uint64_t value) {
    digest = SplitMix64(digest ^ SplitMix64(value));
  };
  const auto mix_examples = [&](const std::vector<Example>& examples) {
    mix(examples.size());
    for (const Example& example : examples) {
      for (const std::uint32_t feature : example.features) mix(feature);
      mix(std::bit_cast<std::uint32_t>(example.label));
    }
  };
  for (const DeviceData& device : dataset.devices) {
    mix(device.device.value());
    mix(std::bit_cast<std::uint64_t>(device.true_ctr));
    mix(std::bit_cast<std::uint64_t>(device.response_delay_s));
    mix_examples(device.examples);
  }
  mix_examples(dataset.test_set);
  return digest;
}

/// DatasetDigest of SmallConfig's output per LabelDistribution (kIid,
/// kNatural, kPolarized).
constexpr std::uint64_t kPinnedDigest[] = {14194236321850823992ull,
                                           15261328490411583347ull,
                                           2762084472352552053ull};

TEST(SynthAvazuTest, OutputDigestIsPinned) {
  // Pins the generator's exact output, so a faster path (e.g. a table of
  // the hashed ground-truth weights, or a cheaper UniformInt) must
  // reproduce every record bit for bit.
  for (const auto distribution :
       {LabelDistribution::kIid, LabelDistribution::kNatural,
        LabelDistribution::kPolarized}) {
    auto config = SmallConfig();
    config.distribution = distribution;
    SCOPED_TRACE(static_cast<int>(distribution));
    EXPECT_EQ(DatasetDigest(GenerateSyntheticAvazu(config)),
              kPinnedDigest[static_cast<int>(distribution)]);
  }
}

/// A shape of generator input and its DatasetDigest per LabelDistribution,
/// pinned from the single-threaded generator.
struct PinnedShape {
  const char* name;
  std::size_t num_devices;
  std::size_t num_test_devices;
  double records_per_device_mean;
  std::uint32_t hash_dim;
  std::uint64_t digest[3];
};

constexpr PinnedShape kPinnedShapes[] = {
    {"small", 200, 20, 20, 1u << 14,
     {kPinnedDigest[0], kPinnedDigest[1], kPinnedDigest[2]}},
    // Fewer devices, test devices included, than one block of the pool.
    {"under_one_block",
     5,
     3,
     20,
     1u << 14,
     {17292090388138828600ull, 10617037362975930095ull,
      7862512602486124493ull}},
    {"no_test_devices",
     200,
     0,
     20,
     1u << 14,
     {12600597962470541440ull, 1410889353698399744ull,
      11964132498085791743ull}},
    // A few devices with many records each.
    {"few_heavy_devices",
     200,
     10,
     400,
     1u << 10,
     {6294935445396501304ull, 3950146537827900887ull,
      12454351125436141618ull}},
};

TEST(SynthAvazuTest, PoolWidthDoesNotChangeOutput) {
  // Devices draw from their own streams and the calling thread sizes
  // every buffer, so no pool width may change a bit of the output.
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(3),
                        ThreadPool(8)};
  for (const PinnedShape& shape : kPinnedShapes) {
    for (const auto distribution :
         {LabelDistribution::kIid, LabelDistribution::kNatural,
          LabelDistribution::kPolarized}) {
      auto config = SmallConfig();
      config.num_devices = shape.num_devices;
      config.num_test_devices = shape.num_test_devices;
      config.records_per_device_mean = shape.records_per_device_mean;
      config.hash_dim = shape.hash_dim;
      config.distribution = distribution;
      const std::uint64_t pinned =
          shape.digest[static_cast<int>(distribution)];
      SCOPED_TRACE(testing::Message() << shape.name << " distribution "
                                      << static_cast<int>(distribution));
      for (ThreadPool& pool : pools) {
        SCOPED_TRACE(testing::Message() << "pool of " << pool.size());
        EXPECT_EQ(DatasetDigest(GenerateSyntheticAvazu(config, pool)), pinned);
      }
      EXPECT_EQ(DatasetDigest(GenerateSyntheticAvazu(config)), pinned);
    }
  }
}

TEST(SynthAvazuTest, PoolThreadsDoNotAllocate) {
  // Every buffer of the dataset comes from the calling thread; the pool's
  // threads only draw records into them.
  ThreadPool pool(4);
  auto config = SmallConfig();
  config.num_devices = 2000;
  t_allocation_owner = true;
  g_foreign_allocations.store(0);
  g_watch_allocations.store(true);
  const FederatedDataset dataset = GenerateSyntheticAvazu(config, pool);
  g_watch_allocations.store(false);
  t_allocation_owner = false;
  EXPECT_EQ(g_foreign_allocations.load(), 0u);
  EXPECT_EQ(dataset.devices.size(), config.num_devices);
}

TEST(SynthAvazuTest, DifferentSeedsDiffer) {
  auto config = SmallConfig();
  const auto a = GenerateSyntheticAvazu(config);
  config.seed = 8;
  const auto b = GenerateSyntheticAvazu(config);
  EXPECT_NE(a.TotalExamples(), b.TotalExamples());
}

TEST(SynthAvazuTest, ShapeMatchesConfig) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  EXPECT_EQ(dataset.devices.size(), 200u);
  EXPECT_EQ(dataset.hash_dim, 1u << 14);
  EXPECT_FALSE(dataset.test_set.empty());
  for (const auto& device : dataset.devices) {
    EXPECT_FALSE(device.examples.empty());
    for (const auto& example : device.examples) {
      EXPECT_EQ(example.features.size(), kFeaturesPerExample);
      for (std::uint32_t idx : example.features) {
        EXPECT_LT(idx, dataset.hash_dim);
      }
      EXPECT_TRUE(example.label == 0.0f || example.label == 1.0f);
    }
  }
}

TEST(SynthAvazuTest, DeviceIdsAreUniqueAndSequential) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  std::set<DeviceId> ids;
  for (const auto& device : dataset.devices) ids.insert(device.device);
  EXPECT_EQ(ids.size(), dataset.devices.size());
}

TEST(SynthAvazuTest, GlobalCtrNearTarget) {
  auto config = SmallConfig();
  config.num_devices = 1000;
  config.distribution = LabelDistribution::kIid;
  const auto dataset = GenerateSyntheticAvazu(config);
  EXPECT_NEAR(dataset.GlobalPositiveRate(), config.global_ctr, 0.03);
}

TEST(SynthAvazuTest, NaturalModeHasHeterogeneousCtr) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kNatural;
  const auto dataset = GenerateSyntheticAvazu(config);
  double lo = 1.0, hi = 0.0;
  for (const auto& device : dataset.devices) {
    lo = std::min(lo, device.true_ctr);
    hi = std::max(hi, device.true_ctr);
  }
  EXPECT_LT(lo, 0.10);  // spread on both sides of 0.17
  EXPECT_GT(hi, 0.30);
}

TEST(SynthAvazuTest, PolarizedModeSplitsDevices) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  config.polarized_positive_fraction = 0.7;
  const auto dataset = GenerateSyntheticAvazu(config);
  std::size_t positive_heavy = 0, negative_heavy = 0;
  for (const auto& device : dataset.devices) {
    if (device.true_ctr > 0.5) {
      ++positive_heavy;
    } else {
      ++negative_heavy;
    }
  }
  // 70% of 200 = 140 positive-heavy devices (Fig. 11b setup).
  EXPECT_EQ(positive_heavy, 140u);
  EXPECT_EQ(negative_heavy, 60u);
}

TEST(SynthAvazuTest, PolarizedLabelsReflectCtr) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  config.records_per_device_mean = 50;
  const auto dataset = GenerateSyntheticAvazu(config);
  // Empirical positive rate of positive-heavy devices must far exceed the
  // negative-heavy ones.
  double pos_rate_sum = 0.0, neg_rate_sum = 0.0;
  std::size_t pos_n = 0, neg_n = 0;
  for (const auto& device : dataset.devices) {
    std::size_t pos = 0;
    for (const auto& e : device.examples) pos += e.label > 0.5f;
    const double rate =
        static_cast<double>(pos) / static_cast<double>(device.examples.size());
    if (device.true_ctr > 0.5) {
      pos_rate_sum += rate;
      ++pos_n;
    } else {
      neg_rate_sum += rate;
      ++neg_n;
    }
  }
  EXPECT_GT(pos_rate_sum / static_cast<double>(pos_n), 0.55);
  EXPECT_LT(neg_rate_sum / static_cast<double>(neg_n), 0.25);
}

TEST(SynthAvazuTest, ResponseDelayNonNegative) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  for (const auto& device : dataset.devices) {
    EXPECT_GE(device.response_delay_s, 0.0);
  }
}

TEST(SynthAvazuTest, RejectsBadConfig) {
  SynthConfig config;
  config.num_devices = 0;
  EXPECT_THROW(GenerateSyntheticAvazu(config), std::invalid_argument);
  config.num_devices = 10;
  config.hash_dim = 16;  // too small
  EXPECT_THROW(GenerateSyntheticAvazu(config), std::invalid_argument);
}

TEST(RepartitionIidTest, PreservesTotalsAndShardSizes) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  const auto original = GenerateSyntheticAvazu(config);
  const auto iid = RepartitionIid(original, 99);
  EXPECT_EQ(iid.devices.size(), original.devices.size());
  EXPECT_EQ(iid.TotalExamples(), original.TotalExamples());
  EXPECT_EQ(iid.test_set.size(), original.test_set.size());
  for (std::size_t d = 0; d < iid.devices.size(); ++d) {
    EXPECT_EQ(iid.devices[d].examples.size(),
              original.devices[d].examples.size());
    EXPECT_EQ(iid.devices[d].device, original.devices[d].device);
  }
}

TEST(RepartitionIidTest, ShardsBecomeHomogeneous) {
  auto config = SmallConfig();
  config.num_devices = 100;
  config.records_per_device_mean = 100;
  config.distribution = LabelDistribution::kPolarized;
  const auto original = GenerateSyntheticAvazu(config);
  const auto iid = RepartitionIid(original, 99);
  const double global = iid.GlobalPositiveRate();
  // After IID repartition, per-shard positive rates concentrate near the
  // global rate; in the polarized original they are bimodal.
  std::size_t near_global = 0;
  for (const auto& device : iid.devices) {
    std::size_t pos = 0;
    for (const auto& e : device.examples) pos += e.label > 0.5f;
    const double rate =
        static_cast<double>(pos) / static_cast<double>(device.examples.size());
    if (std::abs(rate - global) < 0.15) ++near_global;
  }
  EXPECT_GT(near_global, 85u);  // >85% of shards close to global
}

TEST(RepartitionIidTest, OutputDigestIsPinned) {
  // Pins the repartitioned dataset, so moving examples out of the shuffled
  // pool must give the shards the same records as copying them did.
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  const auto iid = RepartitionIid(GenerateSyntheticAvazu(config), 99);
  EXPECT_EQ(DatasetDigest(iid), 1071693058070321192ull);
}

// ---------- Shard partitioning ----------

TEST(ShardingTest, PartitionCoversContiguouslyWithNearEqualSizes) {
  for (const std::size_t n : {1u, 7u, 100u, 101u, 4096u}) {
    for (const std::size_t s : {1u, 2u, 3u, 4u, 8u}) {
      const auto ranges = PartitionDevices(n, s);
      ASSERT_EQ(ranges.size(), std::min<std::size_t>(s, n));
      std::size_t cursor = 0;
      std::size_t lo = n, hi = 0;
      for (const auto& range : ranges) {
        EXPECT_EQ(range.begin, cursor) << "gap/overlap at n=" << n;
        EXPECT_GT(range.size(), 0u);
        cursor = range.end;
        lo = std::min(lo, range.size());
        hi = std::max(hi, range.size());
      }
      EXPECT_EQ(cursor, n);
      EXPECT_LE(hi - lo, 1u) << "unbalanced at n=" << n << " s=" << s;
    }
  }
}

TEST(ShardingTest, ShardOfMatchesRanges) {
  for (const std::size_t n : {1u, 5u, 64u, 101u}) {
    for (const std::size_t s : {1u, 2u, 4u, 8u, 200u}) {
      const auto ranges = PartitionDevices(n, s);
      for (std::size_t device = 0; device < n; ++device) {
        const std::size_t shard = ShardOf(device, n, s);
        ASSERT_LT(shard, ranges.size());
        EXPECT_TRUE(ranges[shard].contains(device))
            << "device " << device << " n=" << n << " s=" << s;
      }
    }
  }
}

TEST(ShardingTest, ClampsShardCountAndValidates) {
  EXPECT_EQ(PartitionDevices(3, 0).size(), 1u);    // 0 → one fleet
  EXPECT_EQ(PartitionDevices(3, 100).size(), 3u);  // never an empty shard
  EXPECT_TRUE(PartitionDevices(0, 4).empty());
  EXPECT_THROW(ShardOf(5, 5, 2), std::invalid_argument);
}

TEST(ShardingTest, MoreShardsThanDevicesGivesSingletons) {
  // 3 devices over 100 requested fleets: exactly one device per shard, and
  // ShardOf agrees with the clamped partition at every index.
  const auto ranges = PartitionDevices(3, 100);
  ASSERT_EQ(ranges.size(), 3u);
  for (std::size_t device = 0; device < 3; ++device) {
    EXPECT_EQ(ranges[device].begin, device);
    EXPECT_EQ(ranges[device].size(), 1u);
    EXPECT_EQ(ShardOf(device, 3, 100), device);
  }
}

TEST(ShardingTest, ZeroDevicesHasNoShardsAndRejectsLookups) {
  EXPECT_TRUE(PartitionDevices(0, 1).empty());
  EXPECT_TRUE(PartitionDevices(0, 0).empty());
  EXPECT_THROW(ShardOf(0, 0, 1), std::invalid_argument);
}

TEST(ShardingTest, MillionDeviceNonDivisibleRanges) {
  // The 1M ladder rung over 7 fleets: 1,000,000 = 7·142,857 + 1, so the
  // first shard takes the one-device remainder and boundaries stay exact.
  constexpr std::size_t kDevices = 1'000'000;
  constexpr std::size_t kShards = 7;
  const auto ranges = PartitionDevices(kDevices, kShards);
  ASSERT_EQ(ranges.size(), kShards);
  EXPECT_EQ(ranges.front().size(), 142'858u);
  EXPECT_EQ(ranges.back().size(), 142'857u);
  EXPECT_EQ(ranges.back().end, kDevices);
  std::size_t covered = 0;
  for (const auto& range : ranges) covered += range.size();
  EXPECT_EQ(covered, kDevices);
  // Spot-check ShardOf against every range boundary (first/last member),
  // where the remainder arithmetic is easiest to get wrong.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ShardOf(ranges[s].begin, kDevices, kShards), s);
    EXPECT_EQ(ShardOf(ranges[s].end - 1, kDevices, kShards), s);
  }
  EXPECT_THROW(ShardOf(kDevices, kDevices, kShards), std::invalid_argument);
}

TEST(ShardingTest, DatasetOverloadUsesDeviceCount) {
  auto config = SmallConfig();
  config.num_devices = 10;
  const auto dataset = GenerateSyntheticAvazu(config);
  const auto ranges = PartitionDevices(dataset, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.back().end, dataset.devices.size());
}

}  // namespace
}  // namespace simdc::data
