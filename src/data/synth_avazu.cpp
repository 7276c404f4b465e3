#include "data/synth_avazu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"
#include "data/schema.h"

namespace simdc::data {
namespace {

/// Inverse-CDF Zipf sampler over [0, n) with exponent s (s == 0 → uniform).
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), s);
      cumulative_[i] = total;
    }
    for (double& c : cumulative_) c /= total;
  }

  std::uint32_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cumulative_.begin(),
                                 static_cast<std::ptrdiff_t>(cumulative_.size()) - 1));
  }

 private:
  std::vector<double> cumulative_;
};

/// Ground-truth logistic weight for a (field, value) pair, derived
/// deterministically from a hash so labels are globally consistent across
/// devices and seeds.
double HashedGroundTruthWeight(std::uint32_t field, std::uint32_t value) {
  const std::uint64_t h =
      SplitMix64((static_cast<std::uint64_t>(field) << 32) ^ value ^
                 0xA5A5A5A5DEADBEEFULL);
  const std::uint64_t h2 = SplitMix64(h);
  // Box–Muller from two hash-derived uniforms.
  const double u1 =
      (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;  // in (0, 1]
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  const double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  // Keep per-example score stddev ~0.5 over 22 fields.
  constexpr double kWeightStd = 0.105;
  return kWeightStd * normal;
}

/// HashedGroundTruthWeight for every (field, value) of the schema, indexed
/// [field][value]; built on first use so a record costs table reads, not a
/// log, sqrt and cos per feature.
const std::vector<std::vector<double>>& GroundTruthWeights() {
  static const std::vector<std::vector<double>> weights = [] {
    std::vector<std::vector<double>> out(kAvazuFields.size());
    for (std::uint32_t f = 0; f < kAvazuFields.size(); ++f) {
      out[f].resize(kAvazuFields[f].cardinality);
      for (std::uint32_t v = 0; v < kAvazuFields[f].cardinality; ++v) {
        out[f][v] = HashedGroundTruthWeight(f, v);
      }
    }
    return out;
  }();
  return weights;
}

double Logit(double p) {
  const double clamped = std::clamp(p, 1e-6, 1.0 - 1e-6);
  return std::log(clamped / (1.0 - clamped));
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

const std::vector<ZipfSampler>& FieldSamplers() {
  static const std::vector<ZipfSampler> samplers = [] {
    std::vector<ZipfSampler> out;
    out.reserve(kAvazuFields.size());
    for (const auto& field : kAvazuFields) {
      out.emplace_back(field.cardinality, field.zipf_exponent);
    }
    return out;
  }();
  return samplers;
}

/// Most values a device-affine field prefers (1 + UniformInt(0, 2)).
constexpr std::size_t kMaxPreferences = 3;

/// Per-device state: field preferences and CTR bias. Fixed-size, so drawing
/// a profile never allocates.
struct DeviceProfile {
  /// Preferred values for device-affine fields (indexed by field): the
  /// first preference_count[f] entries of preferences[f].
  std::array<std::array<std::uint32_t, kMaxPreferences>, kAvazuFields.size()>
      preferences{};
  std::array<std::uint8_t, kAvazuFields.size()> preference_count{};
  double ctr_target = 0.0;
  double bias = 0.0;
};

/// Offset of each field's values in a flat [field][value] table; the last
/// entry is the table's size.
constexpr std::array<std::uint32_t, kAvazuFields.size() + 1> kFieldOffsets =
    [] {
      std::array<std::uint32_t, kAvazuFields.size() + 1> out{};
      for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
        out[f + 1] = out[f] + kAvazuFields[f].cardinality;
      }
      return out;
    }();

/// Read-only state every device's draws consult. Built on the calling
/// thread before the pool starts, so no worker initializes a static or
/// allocates.
struct GeneratorTables {
  explicit GeneratorTables(std::uint32_t hash_dim)
      : features(kFieldOffsets.back()) {
    for (std::uint32_t f = 0; f < kAvazuFields.size(); ++f) {
      for (std::uint32_t v = 0; v < kAvazuFields[f].cardinality; ++v) {
        features[kFieldOffsets[f] + v] = HashFeature(f, v, hash_dim);
      }
    }
  }

  const std::vector<ZipfSampler>& samplers = FieldSamplers();
  const std::vector<std::vector<double>>& weights = GroundTruthWeights();
  /// HashFeature(f, v, hash_dim) at kFieldOffsets[f] + v.
  std::vector<std::uint32_t> features;
};

DeviceProfile MakeProfile(Rng& rng, const SynthConfig& config,
                          const GeneratorTables& tables,
                          std::size_t device_index) {
  DeviceProfile profile;
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    if (!kAvazuFields[f].device_affine) continue;
    // A device concentrates on a handful of values per affine field.
    constexpr auto kMaxExtra = static_cast<std::int64_t>(kMaxPreferences) - 1;
    const std::size_t prefs =
        1 + static_cast<std::size_t>(rng.UniformInt(0, kMaxExtra));
    profile.preference_count[f] = static_cast<std::uint8_t>(prefs);
    for (std::size_t p = 0; p < prefs; ++p) {
      profile.preferences[f][p] = tables.samplers[f].Sample(rng);
    }
  }

  switch (config.distribution) {
    case LabelDistribution::kIid:
      profile.ctr_target = config.global_ctr;
      break;
    case LabelDistribution::kNatural:
      profile.ctr_target = Sigmoid(
          rng.Normal(Logit(config.global_ctr), config.natural_logit_stddev));
      break;
    case LabelDistribution::kPolarized: {
      // Interleaved assignment (index mod 100) so the fraction holds for
      // any contiguous index range — including the held-out test devices
      // that come after the training devices.
      const bool positive_heavy =
          static_cast<double>(device_index % 100) <
          config.polarized_positive_fraction * 100.0;
      profile.ctr_target = positive_heavy ? config.positive_heavy_ctr
                                          : config.negative_heavy_ctr;
      break;
    }
  }
  profile.bias = Logit(profile.ctr_target);
  return profile;
}

/// Draws one record into `example`, whose features are empty with room for
/// every field, so filling it never allocates.
void FillExample(Rng& rng, const DeviceProfile& profile,
                 const GeneratorTables& tables, Example& example) {
  double score = 0.0;
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    std::uint32_t value;
    const std::size_t prefs = profile.preference_count[f];
    // Device-affine fields reuse the device's preferred values 80% of the
    // time; everything else draws from the global popularity distribution.
    if (prefs > 0 && rng.Uniform() < 0.8) {
      value = profile.preferences[f][static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(prefs) - 1))];
    } else {
      value = tables.samplers[f].Sample(rng);
    }
    example.features.push_back(tables.features[kFieldOffsets[f] + value]);
    score += tables.weights[f][value];
  }
  const double click_probability = Sigmoid(score + profile.bias);
  example.label = rng.Bernoulli(click_probability) ? 1.0f : 0.0f;
}

std::size_t DrawRecordCount(Rng& rng, double mean) {
  // Log-normal spread around the configured mean, at least one record.
  constexpr double kSigma = 0.5;
  const double mu = std::log(std::max(1.0, mean)) - kSigma * kSigma / 2.0;
  const double draw = rng.LogNormal(mu, kSigma);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(draw)));
}

/// A device's stream after its profile and record count are drawn. Both
/// passes derive it from the root, so both see the same draws.
struct DeviceDraw {
  Rng rng;
  DeviceProfile profile;
  std::size_t records = 0;
};

DeviceDraw DrawDevice(const Rng& root, const SynthConfig& config,
                      const GeneratorTables& tables, std::size_t index) {
  DeviceDraw draw{root.Split(index), {}, 0};
  draw.profile = MakeProfile(draw.rng, config, tables, index);
  draw.records = DrawRecordCount(draw.rng, config.records_per_device_mean);
  return draw;
}

/// Devices per ParallelFor index: enough work per claim to keep the shared
/// counter cold, few enough that a handful of heavy devices still spread.
constexpr std::size_t kDevicesPerBlock = 16;

std::size_t DeviceBlocks(const SynthConfig& config) {
  const std::size_t devices = config.num_devices + config.num_test_devices;
  return (devices + kDevicesPerBlock - 1) / kDevicesPerBlock;
}

}  // namespace

FederatedDataset GenerateSyntheticAvazu(const SynthConfig& config) {
  // A ParallelFor runs on at most one thread per index, so workers beyond
  // the block count would only idle.
  const std::size_t hardware = std::thread::hardware_concurrency();
  ThreadPool pool(std::max<std::size_t>(
      1, std::min(hardware, DeviceBlocks(config))));
  return GenerateSyntheticAvazu(config, pool);
}

FederatedDataset GenerateSyntheticAvazu(const SynthConfig& config,
                                        ThreadPool& pool) {
  SIMDC_CHECK(config.num_devices > 0, "need at least one device");
  SIMDC_CHECK(config.hash_dim >= 1024, "hash_dim too small for 22 fields");
  const GeneratorTables tables(config.hash_dim);
  const Rng root(config.seed);
  const std::size_t total_devices = config.num_devices + config.num_test_devices;
  const auto for_each_device = [&](const auto& fn) {
    pool.ParallelFor(DeviceBlocks(config), [&](std::size_t block) {
      const std::size_t end =
          std::min(total_devices, (block + 1) * kDevicesPerBlock);
      for (std::size_t i = block * kDevicesPerBlock; i < end; ++i) fn(i);
    });
  };

  // Pass 1: every device's record count.
  std::vector<std::size_t> counts(total_devices);
  for_each_device([&](std::size_t i) {
    counts[i] = DrawDevice(root, config, tables, i).records;
  });

  // The calling thread allocates every buffer, in device order; the pool's
  // threads only fill them. (glibc hands a finished thread's malloc arena
  // to the next thread it starts, so records allocated on generator
  // threads would share arenas with the engine's workers.)
  FederatedDataset dataset;
  dataset.hash_dim = config.hash_dim;
  dataset.devices.resize(config.num_devices);
  for (std::size_t i = 0; i < config.num_devices; ++i) {
    auto& examples = dataset.devices[i].examples;
    examples.resize(counts[i]);
    for (Example& example : examples) {
      example.features.reserve(kFeaturesPerExample);
    }
  }
  // First test_set index of each test device, in test-device order.
  std::vector<std::size_t> test_first(config.num_test_devices);
  std::size_t test_records = 0;
  for (std::size_t t = 0; t < config.num_test_devices; ++t) {
    test_first[t] = test_records;
    test_records += counts[config.num_devices + t];
  }
  dataset.test_set.resize(test_records);
  for (Example& example : dataset.test_set) {
    example.features.reserve(kFeaturesPerExample);
  }

  // Pass 2: each device re-derives its stream, profile and count, then
  // fills its records in place.
  for_each_device([&](std::size_t i) {
    DeviceDraw draw = DrawDevice(root, config, tables, i);
    if (i < config.num_devices) {
      DeviceData& device = dataset.devices[i];
      device.device = DeviceId(i);
      device.true_ctr = draw.profile.ctr_target;
      // Higher-CTR devices respond faster (Fig. 9 scenario); the default
      // delay is the positive tail of a unit normal, shifted by CTR rank.
      device.response_delay_s =
          std::abs(draw.rng.Normal()) * (1.2 - draw.profile.ctr_target);
      for (Example& example : device.examples) {
        FillExample(draw.rng, draw.profile, tables, example);
      }
    } else {
      const std::size_t first = test_first[i - config.num_devices];
      for (std::size_t r = 0; r < draw.records; ++r) {
        FillExample(draw.rng, draw.profile, tables,
                    dataset.test_set[first + r]);
      }
    }
  });
  return dataset;
}

FederatedDataset RepartitionIid(const FederatedDataset& dataset,
                                std::uint64_t seed) {
  FederatedDataset out;
  out.hash_dim = dataset.hash_dim;
  out.test_set = dataset.test_set;

  std::vector<Example> pool;
  pool.reserve(dataset.TotalExamples());
  for (const auto& device : dataset.devices) {
    pool.insert(pool.end(), device.examples.begin(), device.examples.end());
  }
  Rng rng(seed);
  rng.Shuffle(pool);

  const double global_rate = dataset.GlobalPositiveRate();
  out.devices.reserve(dataset.devices.size());
  std::size_t cursor = 0;
  for (const auto& device : dataset.devices) {
    DeviceData shard;
    shard.device = device.device;
    shard.true_ctr = global_rate;
    shard.response_delay_s = device.response_delay_s;
    const std::size_t take =
        std::min(device.examples.size(), pool.size() - cursor);
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(cursor);
    shard.examples.assign(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(take)));
    cursor += take;
    out.devices.push_back(std::move(shard));
  }
  return out;
}

}  // namespace simdc::data
