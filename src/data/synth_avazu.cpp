#include "data/synth_avazu.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
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

/// Per-device state: field preferences and CTR bias.
struct DeviceProfile {
  /// Preferred values for device-affine fields (indexed by field).
  std::vector<std::vector<std::uint32_t>> preferences;
  double ctr_target = 0.0;
  double bias = 0.0;
};

DeviceProfile MakeProfile(Rng& rng, const SynthConfig& config,
                          std::size_t device_index) {
  DeviceProfile profile;
  profile.preferences.resize(kAvazuFields.size());
  const auto& samplers = FieldSamplers();
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    if (!kAvazuFields[f].device_affine) continue;
    // A device concentrates on a handful of values per affine field.
    const std::size_t prefs = 1 + static_cast<std::size_t>(rng.UniformInt(0, 2));
    for (std::size_t p = 0; p < prefs; ++p) {
      profile.preferences[f].push_back(samplers[f].Sample(rng));
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

Example MakeExample(Rng& rng, const DeviceProfile& profile,
                    std::uint32_t hash_dim) {
  Example example;
  example.features.reserve(kAvazuFields.size());
  const auto& samplers = FieldSamplers();
  const auto& weights = GroundTruthWeights();
  double score = 0.0;
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    std::uint32_t value;
    const auto& prefs = profile.preferences[f];
    // Device-affine fields reuse the device's preferred values 80% of the
    // time; everything else draws from the global popularity distribution.
    if (!prefs.empty() && rng.Uniform() < 0.8) {
      value = prefs[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(prefs.size()) - 1))];
    } else {
      value = samplers[f].Sample(rng);
    }
    example.features.push_back(
        HashFeature(static_cast<std::uint32_t>(f), value, hash_dim));
    score += weights[f][value];
  }
  const double click_probability = Sigmoid(score + profile.bias);
  example.label = rng.Bernoulli(click_probability) ? 1.0f : 0.0f;
  return example;
}

std::size_t DrawRecordCount(Rng& rng, double mean) {
  // Log-normal spread around the configured mean, at least one record.
  constexpr double kSigma = 0.5;
  const double mu = std::log(std::max(1.0, mean)) - kSigma * kSigma / 2.0;
  const double draw = rng.LogNormal(mu, kSigma);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(draw)));
}

}  // namespace

FederatedDataset GenerateSyntheticAvazu(const SynthConfig& config) {
  SIMDC_CHECK(config.num_devices > 0, "need at least one device");
  SIMDC_CHECK(config.hash_dim >= 1024, "hash_dim too small for 22 fields");
  FederatedDataset dataset;
  dataset.hash_dim = config.hash_dim;
  dataset.devices.reserve(config.num_devices);

  const Rng root(config.seed);
  const std::size_t total_devices = config.num_devices + config.num_test_devices;
  for (std::size_t i = 0; i < total_devices; ++i) {
    Rng device_rng = root.Split(i);
    const DeviceProfile profile = MakeProfile(device_rng, config, i);
    const std::size_t records =
        DrawRecordCount(device_rng, config.records_per_device_mean);

    if (i < config.num_devices) {
      DeviceData device;
      device.device = DeviceId(i);
      device.true_ctr = profile.ctr_target;
      // Higher-CTR devices respond faster (Fig. 9 scenario); the default
      // delay is the positive tail of a unit normal, shifted by CTR rank.
      device.response_delay_s =
          std::abs(device_rng.Normal()) * (1.2 - profile.ctr_target);
      device.examples.reserve(records);
      for (std::size_t r = 0; r < records; ++r) {
        device.examples.push_back(
            MakeExample(device_rng, profile, config.hash_dim));
      }
      dataset.devices.push_back(std::move(device));
    } else {
      for (std::size_t r = 0; r < records; ++r) {
        dataset.test_set.push_back(
            MakeExample(device_rng, profile, config.hash_dim));
      }
    }
  }
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
    shard.examples.assign(pool.begin() + static_cast<std::ptrdiff_t>(cursor),
                          pool.begin() + static_cast<std::ptrdiff_t>(cursor + take));
    cursor += take;
    out.devices.push_back(std::move(shard));
  }
  return out;
}

}  // namespace simdc::data
