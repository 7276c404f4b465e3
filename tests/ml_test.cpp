// Unit tests for the ML substrate: LR model, training operators, metrics,
// FedAvg.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synth_avazu.h"
#include "ml/fedavg.h"
#include "ml/lr_model.h"
#include "ml/metrics.h"
#include "ml/operators.h"

namespace simdc::ml {
namespace {

data::Example MakeExample(std::vector<std::uint32_t> features, float label) {
  data::Example e;
  e.features = std::move(features);
  e.label = label;
  return e;
}

// Reference metrics: one independent pass per metric, the oracle that the
// single-pass ml::Evaluate is checked against.

/// Fraction of examples where the 0.5-thresholded prediction matches the
/// label.
double Accuracy(const LrModel& model, std::span<const data::Example> examples) {
  if (examples.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& example : examples) {
    const bool predicted = model.Predict(example) >= 0.5;
    const bool actual = example.label > 0.5f;
    correct += predicted == actual ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

/// Mean binary cross-entropy (clamped probabilities).
double LogLoss(const LrModel& model, std::span<const data::Example> examples) {
  if (examples.empty()) return 0.0;
  double total = 0.0;
  for (const auto& example : examples) {
    const double p = std::clamp(model.Predict(example), 1e-12, 1.0 - 1e-12);
    total += example.label > 0.5f ? -std::log(p) : -std::log(1.0 - p);
  }
  return total / static_cast<double>(examples.size());
}

// ---------- LrModel ----------

TEST(LrModelTest, ZeroModelPredictsHalf) {
  LrModel model(16);
  EXPECT_DOUBLE_EQ(model.Predict(MakeExample({1, 2}, 1)), 0.5);
}

TEST(LrModelTest, ScoreSumsActiveWeights) {
  LrModel model(8);
  model.weights()[2] = 1.0f;
  model.weights()[5] = -0.5f;
  model.bias() = 0.25f;
  EXPECT_NEAR(model.Score(MakeExample({2, 5}, 0)), 0.75, 1e-6);
}

TEST(LrModelTest, PredictIsSigmoidOfScore) {
  LrModel model(4);
  model.bias() = 2.0f;
  EXPECT_NEAR(model.Predict(MakeExample({}, 0)), 1.0 / (1.0 + std::exp(-2.0)),
              1e-9);
}

TEST(LrModelTest, SerializationRoundTrip) {
  LrModel model(32);
  model.bias() = 0.125f;
  for (std::uint32_t i = 0; i < 32; ++i) {
    model.weights()[i] = static_cast<float>(i) * 0.25f - 3.0f;
  }
  const auto bytes = model.ToBytes();
  EXPECT_EQ(bytes.size(), model.SerializedSize());
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 32u);
  EXPECT_EQ(restored->bias(), model.bias());
  EXPECT_NEAR(restored->DistanceTo(model), 0.0, 1e-12);
}

TEST(LrModelTest, FromBytesRejectsGarbage) {
  EXPECT_FALSE(LrModel::FromBytes(std::vector<std::byte>(3)).ok());
  // Truncated payload.
  LrModel model(16);
  auto bytes = model.ToBytes();
  bytes.pop_back();
  EXPECT_FALSE(LrModel::FromBytes(bytes).ok());
}

// ---------- Payload codecs ----------

LrModel RampModel(std::uint32_t dim) {
  LrModel model(dim);
  model.bias() = 0.375f;
  for (std::uint32_t i = 0; i < dim; ++i) {
    model.weights()[i] = static_cast<float>(i) * 0.03125f - 1.0f;
  }
  return model;
}

TEST(LrModelCodecTest, Fp32CodecIsTheHistoricalFormat) {
  const LrModel model = RampModel(24);
  // The default ToBytes, the explicit fp32 codec and EncodeTo all produce
  // the same bytes — the bit-compat contract with pre-codec blobs.
  const auto legacy = model.ToBytes();
  EXPECT_EQ(legacy, model.ToBytes(PayloadCodec::kFp32));
  std::vector<std::byte> scratch(model.EncodedSize(PayloadCodec::kFp32));
  model.EncodeTo(scratch, PayloadCodec::kFp32);
  EXPECT_EQ(legacy, scratch);
  EXPECT_EQ(legacy.size(), model.SerializedSize());
}

TEST(LrModelCodecTest, Fp16RoundTrip) {
  const LrModel model = RampModel(48);
  const auto bytes = model.ToBytes(PayloadCodec::kFp16);
  EXPECT_EQ(bytes.size(), model.EncodedSize(PayloadCodec::kFp16));
  EXPECT_LT(bytes.size(), model.EncodedSize(PayloadCodec::kFp32));
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 48u);
  EXPECT_EQ(restored->bias(), model.bias());  // bias stays fp32
  for (std::uint32_t i = 0; i < 48; ++i) {
    // RampModel weights are multiples of 2^-5 in [-1, 0.5): exactly
    // representable in half precision, so the round trip is lossless.
    EXPECT_EQ(restored->weights()[i], model.weights()[i]) << i;
  }
}

TEST(LrModelCodecTest, Fp16RoundsToNearestEven) {
  LrModel model(2);
  // In [1, 2) the half-precision step is 2^-10. Both values below sit
  // exactly halfway between representable halves, so round-to-nearest-even
  // picks the even mantissa each time: down to 1.0 (mantissa 0), up to
  // 1 + 2^-9 (mantissa 2).
  model.weights()[0] = 1.0f + std::ldexp(1.0f, -11);
  model.weights()[1] = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kFp16));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->weights()[0], 1.0f);
  EXPECT_EQ(restored->weights()[1], 1.0f + std::ldexp(1.0f, -9));
}

// Encode a single weight through the fp16 codec and return the raw half
// bit pattern (the last two payload bytes of a dim-1 blob).
std::uint16_t EncodeHalf(float w) {
  LrModel model(1);
  model.weights()[0] = w;
  const auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::uint16_t h = 0;
  std::memcpy(&h, bytes.data() + bytes.size() - sizeof(h), sizeof(h));
  return h;
}

// Decode a raw half bit pattern through the fp16 codec.
float DecodeHalf(std::uint16_t h) {
  LrModel model(1);
  auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::memcpy(bytes.data() + bytes.size() - sizeof(h), &h, sizeof(h));
  auto restored = LrModel::FromBytes(bytes);
  EXPECT_TRUE(restored.ok());
  return restored->weights()[0];
}

TEST(LrModelCodecTest, Fp16OverflowSaturatesToInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  // Finite fp32 values beyond the half range must become half infinity
  // with the sign intact — never NaN or a sign flip.
  EXPECT_EQ(DecodeHalf(EncodeHalf(100000.0f)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(131072.0f)), inf);  // 2^17
  EXPECT_EQ(DecodeHalf(EncodeHalf(-100000.0f)), -inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(3.0e38f)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(inf)), inf);
  EXPECT_EQ(DecodeHalf(EncodeHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(DecodeHalf(EncodeHalf(std::nanf("")))));
  // Max finite half survives; the first value that ties toward 2^16
  // rounds up to infinity (ties-to-even picks the even = overflow side).
  EXPECT_EQ(DecodeHalf(EncodeHalf(65504.0f)), 65504.0f);
  EXPECT_EQ(DecodeHalf(EncodeHalf(65519.0f)), 65504.0f);
  EXPECT_EQ(DecodeHalf(EncodeHalf(65520.0f)), inf);
}

TEST(LrModelCodecTest, Fp16SubnormalRoundTrip) {
  // Every subnormal half is mant/2^10 * 2^-14 = mant * 2^-24; those values
  // must round-trip exactly through encode and decode.
  for (std::uint32_t mant : {1u, 2u, 3u, 0x200u, 0x201u, 0x3FFu}) {
    const float value = std::ldexp(static_cast<float>(mant), -24);
    EXPECT_EQ(DecodeHalf(static_cast<std::uint16_t>(mant)), value) << mant;
    EXPECT_EQ(EncodeHalf(value), mant) << mant;
    EXPECT_EQ(EncodeHalf(-value),
              static_cast<std::uint16_t>(0x8000u | mant)) << mant;
  }
  // 2^-15 (pattern 0x0200) decoded at full value, not half of it.
  EXPECT_EQ(DecodeHalf(0x0200), std::ldexp(1.0f, -15));
  // Underflow boundary: below 2^-25 flushes to zero, the 2^-25 tie goes
  // to even (zero), and anything past the tie rounds up to 2^-24.
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -26)), 0u);
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -25)), 0u);
  EXPECT_EQ(EncodeHalf(std::ldexp(1.5f, -25)), 1u);
  // Smallest normal half boundary from both sides.
  EXPECT_EQ(DecodeHalf(0x0400), std::ldexp(1.0f, -14));
  EXPECT_EQ(EncodeHalf(std::ldexp(1.0f, -14)), 0x0400u);
}

#if defined(__FLT16_MAX__)
// With a native _Float16 available, check the codec against the hardware /
// soft-float reference over every half bit pattern (decode) and over the
// decoded set re-encoded (encode), so the two directions agree bit-for-bit
// with IEEE 754 round-to-nearest-even.
TEST(LrModelCodecTest, Fp16MatchesNativeReferenceExhaustively) {
  const std::uint32_t n = 1u << 16;
  LrModel model(n);
  auto bytes = model.ToBytes(PayloadCodec::kFp16);
  std::byte* payload = bytes.data() + (bytes.size() - n * sizeof(std::uint16_t));
  for (std::uint32_t h = 0; h < n; ++h) {
    const auto v = static_cast<std::uint16_t>(h);
    std::memcpy(payload + h * sizeof(v), &v, sizeof(v));
  }
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  for (std::uint32_t h = 0; h < n; ++h) {
    const auto v = static_cast<std::uint16_t>(h);
    _Float16 ref;
    std::memcpy(&ref, &v, sizeof(v));
    const float expect = static_cast<float>(ref);
    const float got = restored->weights()[h];
    if (std::isnan(expect)) {
      ASSERT_TRUE(std::isnan(got)) << "pattern " << h;
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(expect))
        << "pattern " << h;
    // Decoded halves are exactly representable, so re-encoding must be the
    // identity on the bit pattern.
    ASSERT_EQ(EncodeHalf(expect), v) << "pattern " << h;
  }
  // Encode direction on values that are NOT exact halves: a deterministic
  // strided sweep of fp32 bit patterns against the native cast.
  for (std::uint32_t bits = 0; bits < 0xFF000000u; bits += 0x000F4243u) {
    const float f = std::bit_cast<float>(bits);
    const auto got = EncodeHalf(f);
    if (std::isnan(f)) {
      // The codec canonicalizes NaN payloads; only NaN-ness must survive.
      ASSERT_TRUE((got & 0x7C00u) == 0x7C00u && (got & 0x03FFu) != 0)
          << "fp32 bits " << bits;
      continue;
    }
    const auto want = std::bit_cast<std::uint16_t>(static_cast<_Float16>(f));
    ASSERT_EQ(got, want) << "fp32 bits " << bits;
  }
}
#endif

TEST(LrModelCodecTest, Int8NonFiniteWeightsEncodeSafely) {
  LrModel model(4);
  model.weights()[0] = std::nanf("");
  model.weights()[1] = std::numeric_limits<float>::infinity();
  model.weights()[2] = -std::numeric_limits<float>::infinity();
  model.weights()[3] = 0.5f;
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kInt8));
  ASSERT_TRUE(restored.ok());
  // NaN maps to zero, infinities saturate, and the finite weight sets the
  // scale (so it survives at full precision) instead of being crushed by inf.
  EXPECT_EQ(restored->weights()[0], 0.0f);
  EXPECT_NEAR(restored->weights()[1], 0.5f, 1e-6);   // +127 * (0.5/127)
  EXPECT_NEAR(restored->weights()[2], -0.5f, 1e-6);  // -127 * (0.5/127)
  EXPECT_NEAR(restored->weights()[3], 0.5f, 1e-6);
}

TEST(LrModelCodecTest, Int8RoundTrip) {
  const LrModel model = RampModel(64);
  const auto bytes = model.ToBytes(PayloadCodec::kInt8);
  EXPECT_EQ(bytes.size(), model.EncodedSize(PayloadCodec::kInt8));
  auto restored = LrModel::FromBytes(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dim(), 64u);
  EXPECT_EQ(restored->bias(), model.bias());
  // Symmetric per-tensor quantization: error bounded by half a step.
  float max_abs = 0.0f;
  for (float w : model.weights()) max_abs = std::max(max_abs, std::abs(w));
  const float step = max_abs / 127.0f;
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(restored->weights()[i], model.weights()[i], step / 2 + 1e-7)
        << i;
  }
  // The extreme weight hits quantization level ±127 and survives exactly.
  EXPECT_NEAR(restored->weights()[0], -1.0f, 1e-6);
}

TEST(LrModelCodecTest, Int8AllZeroWeightsUsesZeroScale) {
  LrModel model(8);
  model.bias() = 2.5f;
  auto restored = LrModel::FromBytes(model.ToBytes(PayloadCodec::kInt8));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->bias(), 2.5f);
  for (float w : restored->weights()) EXPECT_EQ(w, 0.0f);
}

TEST(LrModelCodecTest, FromBytesSharedMatchesFromBytes) {
  const LrModel model = RampModel(32);
  for (const auto codec :
       {PayloadCodec::kFp32, PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    const auto bytes = model.ToBytes(codec);
    auto eager = LrModel::FromBytes(bytes);
    auto shared = LrModel::FromBytesShared(bytes);
    ASSERT_TRUE(eager.ok()) << ToString(codec);
    ASSERT_TRUE(shared.ok()) << ToString(codec);
    EXPECT_EQ((*shared)->bias(), eager->bias());
    for (std::uint32_t i = 0; i < 32; ++i) {
      EXPECT_EQ((*shared)->weights()[i], eager->weights()[i]);
    }
  }
}

TEST(LrModelCodecTest, QuantizedBlobValidation) {
  const LrModel model = RampModel(16);
  for (const auto codec : {PayloadCodec::kFp16, PayloadCodec::kInt8}) {
    auto bytes = model.ToBytes(codec);
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(LrModel::FromBytes(truncated).ok()) << ToString(codec);
    auto padded = bytes;
    padded.push_back(std::byte{0});
    EXPECT_FALSE(LrModel::FromBytes(padded).ok()) << ToString(codec);
  }
  // Header alone (no payload) is rejected, not read out of bounds.
  auto header_only = model.ToBytes(PayloadCodec::kFp16);
  header_only.resize(3 * sizeof(std::uint32_t) + sizeof(float));
  EXPECT_FALSE(LrModel::FromBytes(header_only).ok());
  // An unknown codec tag inside a valid magic header is rejected.
  auto bad_tag = model.ToBytes(PayloadCodec::kFp16);
  const std::uint32_t unknown = 99;
  std::memcpy(bad_tag.data() + sizeof(std::uint32_t), &unknown,
              sizeof(unknown));
  EXPECT_FALSE(LrModel::FromBytes(bad_tag).ok());
}

/// A well-formed tagged `codec` blob for a dimension-0 model, made by
/// patching a one-weight encoding (encoding an LrModel(0) would memcpy
/// from null): the dimension is the third header word (magic, codec, dim,
/// bias), and the one weight is cut off the end.
std::vector<std::byte> ZeroDimensionBlob(PayloadCodec codec) {
  std::vector<std::byte> bytes = RampModel(1).ToBytes(codec);
  bytes.resize(bytes.size() - (codec == PayloadCodec::kFp16 ? 2 : 1));
  const std::uint32_t zero = 0;
  std::memcpy(bytes.data() + 2 * sizeof(std::uint32_t), &zero, sizeof(zero));
  return bytes;
}

void ExpectZeroDimensionRejected(const std::vector<std::byte>& bytes) {
  const auto model = LrModel::FromBytes(bytes);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.error().code(), ErrorCode::kParseError);
  const auto shared = LrModel::FromBytesShared(bytes);
  ASSERT_FALSE(shared.ok());
  EXPECT_EQ(shared.error().code(), ErrorCode::kParseError);
}

TEST(LrModelCodecTest, Fp32ZeroDimensionBlobRejected) {
  // Eight zero bytes: an untagged fp32 blob of dimension 0 and bias 0.
  ExpectZeroDimensionRejected(std::vector<std::byte>(8));
}

TEST(LrModelCodecTest, Fp16ZeroDimensionBlobRejected) {
  ExpectZeroDimensionRejected(ZeroDimensionBlob(PayloadCodec::kFp16));
}

TEST(LrModelCodecTest, Int8ZeroDimensionBlobRejected) {
  ExpectZeroDimensionRejected(ZeroDimensionBlob(PayloadCodec::kInt8));
}

TEST(LrModelCodecTest, EncodedSizeRatiosAtScale) {
  // The million-device ladder's wire-size contract (int8 >= 3.9x, fp16 >=
  // 1.9x smaller than fp32) holds from dim 1024 up.
  const LrModel model(1024);
  const double fp32 =
      static_cast<double>(model.EncodedSize(PayloadCodec::kFp32));
  EXPECT_GE(fp32 / model.EncodedSize(PayloadCodec::kInt8), 3.9);
  EXPECT_GE(fp32 / model.EncodedSize(PayloadCodec::kFp16), 1.9);
}

#ifndef NDEBUG
TEST(LrModelTest, ScoreBoundsCheckFiresInDebug) {
  LrModel model(4);
  EXPECT_THROW((void)model.Score(MakeExample({7}, 0)), std::invalid_argument);
}
#endif

TEST(LrModelTest, DistanceToSelfIsZeroAndSymmetric) {
  LrModel a(8), b(8);
  a.weights()[3] = 1.0f;
  b.weights()[3] = 4.0f;
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), b.DistanceTo(a));
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 3.0);
}

TEST(LrModelTest, DimensionMismatchChecks) {
  LrModel a(8), b(4);
  EXPECT_THROW((void)a.DistanceTo(b), std::invalid_argument);
}

// ---------- Operators ----------

class OperatorTest : public ::testing::TestWithParam<OperatorVenue> {};

TEST_P(OperatorTest, SgdReducesLogLoss) {
  data::SynthConfig config;
  config.num_devices = 1;
  config.records_per_device_mean = 400;
  config.hash_dim = 1u << 12;
  config.seed = 3;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto& shard = dataset.devices[0].examples;

  LrModel model(config.hash_dim);
  const double before = LogLoss(model, shard);
  const auto op = MakeLrOperator(GetParam());
  TrainConfig train;
  train.learning_rate = 0.05;
  train.epochs = 10;
  op->Train(model, shard, train);
  const double after = LogLoss(model, shard);
  EXPECT_LT(after, before - 0.01);
}

TEST_P(OperatorTest, EmptyShardIsNoop) {
  LrModel model(64);
  const auto op = MakeLrOperator(GetParam());
  op->Train(model, {}, TrainConfig{});
  LrModel zero(64);
  EXPECT_DOUBLE_EQ(model.DistanceTo(zero), 0.0);
}

TEST_P(OperatorTest, DeterministicGivenSeed) {
  data::SynthConfig config;
  config.num_devices = 1;
  config.hash_dim = 1u << 12;
  config.records_per_device_mean = 100;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto op = MakeLrOperator(GetParam());
  TrainConfig train;
  train.shuffle_seed = 77;
  LrModel a(config.hash_dim), b(config.hash_dim);
  op->Train(a, dataset.devices[0].examples, train);
  op->Train(b, dataset.devices[0].examples, train);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Venues, OperatorTest,
                         ::testing::Values(OperatorVenue::kServer,
                                           OperatorVenue::kMobile),
                         [](const auto& info) {
                           return info.param == OperatorVenue::kServer
                                      ? "Server"
                                      : "Mobile";
                         });

TEST(OperatorDivergenceTest, KernelsAreCloseButNotIdentical) {
  // §VI-B2: the PyMNN-like and MNN-like kernels must produce *slightly*
  // different numerics (different precision / traversal) while remaining
  // statistically equivalent — that is the premise of Fig. 6.
  data::SynthConfig config;
  config.num_devices = 1;
  config.records_per_device_mean = 300;
  config.hash_dim = 1u << 12;
  const auto dataset = data::GenerateSyntheticAvazu(config);
  const auto& shard = dataset.devices[0].examples;

  TrainConfig train;
  train.learning_rate = 1e-2;
  train.epochs = 10;
  train.shuffle_seed = 5;
  LrModel server_model(config.hash_dim), mobile_model(config.hash_dim);
  ServerLrOperator().Train(server_model, shard, train);
  MobileLrOperator().Train(mobile_model, shard, train);

  const double distance = server_model.DistanceTo(mobile_model);
  EXPECT_GT(distance, 0.0);      // numerically distinct
  EXPECT_LT(distance, 0.5);      // but equivalent in effect
  const double acc_server = Accuracy(server_model, shard);
  const double acc_mobile = Accuracy(mobile_model, shard);
  EXPECT_NEAR(acc_server, acc_mobile, 0.02);
}

TEST(OperatorNamesTest, Distinct) {
  EXPECT_NE(ServerLrOperator().name(), MobileLrOperator().name());
}

// ---------- Metrics ----------

TEST(MetricsTest, AccuracyOnSeparableData) {
  LrModel model(4);
  model.weights()[0] = 5.0f;
  model.weights()[1] = -5.0f;
  std::vector<data::Example> examples = {
      MakeExample({0}, 1), MakeExample({1}, 0), MakeExample({0}, 1),
      MakeExample({1}, 1)};  // last one misclassified
  EXPECT_DOUBLE_EQ(Accuracy(model, examples), 0.75);
}

TEST(MetricsTest, AccuracyEmptyIsZero) {
  LrModel model(4);
  EXPECT_DOUBLE_EQ(Accuracy(model, {}), 0.0);
}

TEST(MetricsTest, LogLossOfZeroModelIsLn2) {
  LrModel model(4);
  std::vector<data::Example> examples = {MakeExample({0}, 1),
                                         MakeExample({1}, 0)};
  EXPECT_NEAR(LogLoss(model, examples), std::log(2.0), 1e-9);
}

TEST(MetricsTest, AucPerfectRanking) {
  LrModel model(4);
  model.weights()[0] = 3.0f;
  std::vector<data::Example> examples = {
      MakeExample({0}, 1), MakeExample({0}, 1), MakeExample({1}, 0),
      MakeExample({2}, 0)};
  EXPECT_DOUBLE_EQ(Auc(model, examples), 1.0);
}

TEST(MetricsTest, AucRandomScoresNearHalf) {
  LrModel model(4);  // all-zero: every score ties → AUC 0.5 by convention
  std::vector<data::Example> examples;
  for (int i = 0; i < 100; ++i) {
    examples.push_back(MakeExample({static_cast<std::uint32_t>(i % 4)},
                                   i % 3 == 0 ? 1.0f : 0.0f));
  }
  EXPECT_NEAR(Auc(model, examples), 0.5, 1e-9);
}

TEST(MetricsTest, AucSingleClassIsHalf) {
  LrModel model(4);
  std::vector<data::Example> examples = {MakeExample({0}, 1),
                                         MakeExample({1}, 1)};
  EXPECT_DOUBLE_EQ(Auc(model, examples), 0.5);
}

TEST(MetricsTest, EvaluateBundlesAll) {
  LrModel model(4);
  std::vector<data::Example> examples = {MakeExample({0}, 1),
                                         MakeExample({1}, 0)};
  const auto report = Evaluate(model, examples);
  EXPECT_EQ(report.examples, 2u);
  EXPECT_NEAR(report.logloss, std::log(2.0), 1e-9);
}

TEST(MetricsTest, SinglePassEvaluateMatchesIndividualMetrics) {
  // Evaluate scores each example once and derives both metrics from that
  // pass; it must agree with the one-pass-per-metric reference.
  LrModel model(16);
  Rng rng(99);
  for (auto& w : model.weights()) {
    w = static_cast<float>(rng.Normal(0.0, 0.7));
  }
  model.bias() = 0.2f;
  std::vector<data::Example> examples;
  for (int i = 0; i < 200; ++i) {
    examples.push_back(MakeExample(
        {static_cast<std::uint32_t>(rng.UniformInt(0, 15)),
         static_cast<std::uint32_t>(rng.UniformInt(0, 15))},
        rng.Bernoulli(0.4) ? 1 : 0));
  }
  const auto report = Evaluate(model, examples);
  EXPECT_DOUBLE_EQ(report.accuracy, Accuracy(model, examples));
  EXPECT_DOUBLE_EQ(report.logloss, LogLoss(model, examples));
}

TEST(MetricsTest, EvaluateDegenerateInputs) {
  LrModel model(4);
  const auto empty = Evaluate(model, std::span<const data::Example>());
  EXPECT_EQ(empty.examples, 0u);
  EXPECT_DOUBLE_EQ(empty.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(empty.logloss, 0.0);

  std::vector<data::Example> positives = {MakeExample({0}, 1),
                                          MakeExample({1}, 1)};
  const auto report = Evaluate(model, positives);
  EXPECT_DOUBLE_EQ(report.accuracy, Accuracy(model, positives));
  EXPECT_NEAR(report.logloss, std::log(2.0), 1e-9);
}

/// Evaluates `examples` through both overloads (contiguous, and a pointer
/// per example) and expects the two reports to match bit for bit.
void ExpectPointerSpanMatchesContiguous(
    const LrModel& model, std::span<const data::Example> examples) {
  std::vector<const data::Example*> pointers;
  pointers.reserve(examples.size());
  for (const auto& example : examples) pointers.push_back(&example);
  const auto contiguous = Evaluate(model, examples);
  const auto indirect = Evaluate(model, pointers);
  EXPECT_EQ(indirect.examples, contiguous.examples);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(indirect.accuracy),
            std::bit_cast<std::uint64_t>(contiguous.accuracy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(indirect.logloss),
            std::bit_cast<std::uint64_t>(contiguous.logloss));
}

TEST(MetricsTest, EvaluatePointerSpanMatchesContiguous) {
  constexpr std::uint32_t kDim = 1024;
  LrModel model(kDim);
  Rng rng(7);
  for (auto& w : model.weights()) {
    w = static_cast<float>(rng.Normal(0.0, 0.8));
  }
  model.bias() = -0.4f;
  std::vector<data::Example> examples;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint32_t> features;
    for (int f = 0; f < 8; ++f) {
      features.push_back(
          static_cast<std::uint32_t>(rng.UniformInt(0, kDim - 1)));
    }
    examples.push_back(
        MakeExample(std::move(features), rng.Bernoulli(0.2) ? 1 : 0));
  }
  ExpectPointerSpanMatchesContiguous(model, examples);
  const auto report = Evaluate(model, examples);
  EXPECT_GT(report.accuracy, 0.0);
  EXPECT_LT(report.accuracy, 1.0);

  ExpectPointerSpanMatchesContiguous(model, {});
  // Single-class inputs, one of them a single example.
  std::vector<data::Example> positives;
  std::vector<data::Example> negatives;
  for (const auto& example : examples) {
    (example.label > 0.5f ? positives : negatives).push_back(example);
  }
  ASSERT_FALSE(positives.empty());
  ExpectPointerSpanMatchesContiguous(model, positives);
  ExpectPointerSpanMatchesContiguous(model, negatives);
  ExpectPointerSpanMatchesContiguous(model, std::span(positives).first(1));
}

/// Expects two doubles to have the same bits.
void ExpectSameBits(double actual, double expected) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << actual << " vs " << expected;
}

TEST(MetricsTest, PooledEvaluateMatchesSerial) {
  // Scoring grains across a pool must not change a bit of either metric,
  // for either overload, at any pool size: grain edges, a single example,
  // the empty set, and a train-eval-pool-sized set of many grains.
  constexpr std::uint32_t kDim = 512;
  LrModel model(kDim);
  Rng rng(31);
  for (auto& w : model.weights()) {
    w = static_cast<float>(rng.Normal(0.0, 0.9));
  }
  model.bias() = -0.6f;
  std::vector<data::Example> examples;
  for (int i = 0; i < 20011; ++i) {
    std::vector<std::uint32_t> features;
    for (int f = 0; f < 6; ++f) {
      features.push_back(
          static_cast<std::uint32_t>(rng.UniformInt(0, kDim - 1)));
    }
    examples.push_back(
        MakeExample(std::move(features), rng.Bernoulli(0.25) ? 1 : 0));
  }
  std::vector<const data::Example*> pointers;
  for (const auto& example : examples) pointers.push_back(&example);

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kEvaluateGrain - 1, kEvaluateGrain,
        kEvaluateGrain + 1, examples.size()}) {
    SCOPED_TRACE(n);
    const auto contiguous = std::span<const data::Example>(examples).first(n);
    const auto indirect =
        std::span<const data::Example* const>(pointers).first(n);
    const EvalReport serial = Evaluate(model, contiguous);
    ExpectSameBits(serial.accuracy, Accuracy(model, contiguous));
    ExpectSameBits(serial.logloss, LogLoss(model, contiguous));
    for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
      SCOPED_TRACE(pool->size());
      for (const EvalReport& pooled :
           {Evaluate(model, contiguous, pool), Evaluate(model, indirect, pool)}) {
        EXPECT_EQ(pooled.examples, n);
        ExpectSameBits(pooled.accuracy, serial.accuracy);
        ExpectSameBits(pooled.logloss, serial.logloss);
      }
    }
  }
}

/// Runs `body` once per AUC rank path (comparison sort, radix) and
/// restores the threshold afterwards.
template <typename Body>
void ForEachAucRankPath(Body body) {
  const std::size_t saved = GetAucRadixThreshold();
  SetAucRadixThreshold(std::numeric_limits<std::size_t>::max());
  body();
  SetAucRadixThreshold(0);
  body();
  SetAucRadixThreshold(saved);
}

TEST(MetricsTest, RadixAucBitIdenticalToComparisonSort) {
  // The radix rank path must be EXACT — same bits as the pair-sort, not
  // an approximation — on data with heavy score ties (small feature
  // space), negative scores and both labels.
  LrModel model(32);
  Rng rng(2024);
  for (auto& w : model.weights()) {
    w = static_cast<float>(rng.Normal(0.0, 1.5));
  }
  model.bias() = -0.3f;
  std::vector<data::Example> examples;
  for (int i = 0; i < 3000; ++i) {
    examples.push_back(MakeExample(
        {static_cast<std::uint32_t>(rng.UniformInt(0, 31)),
         static_cast<std::uint32_t>(rng.UniformInt(0, 31))},
        rng.Bernoulli(0.3) ? 1 : 0));
  }
  std::vector<double> auc_by_path;
  ForEachAucRankPath([&] { auc_by_path.push_back(Auc(model, examples)); });
  ASSERT_EQ(auc_by_path.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(auc_by_path[0]),
            std::bit_cast<std::uint64_t>(auc_by_path[1]));
  EXPECT_GT(auc_by_path[0], 0.0);
  EXPECT_LT(auc_by_path[0], 1.0);
}

TEST(MetricsTest, RadixAucExactOnAllTiesAndExtremes) {
  // Degenerate shapes both paths must agree on: every score identical
  // (one giant tie group) and a perfectly separated set.
  LrModel tie_model(4);  // all-zero: every score ties
  std::vector<data::Example> tied;
  for (int i = 0; i < 64; ++i) {
    tied.push_back(MakeExample({static_cast<std::uint32_t>(i % 4)},
                               i % 2 == 0 ? 1.0f : 0.0f));
  }
  LrModel split_model(4);
  split_model.weights()[0] = 7.0f;
  std::vector<data::Example> separable;
  for (int i = 0; i < 64; ++i) {
    const bool positive = i % 2 == 0;
    separable.push_back(
        MakeExample({positive ? 0u : 1u}, positive ? 1.0f : 0.0f));
  }
  ForEachAucRankPath([&] {
    EXPECT_NEAR(Auc(tie_model, tied), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(Auc(split_model, separable), 1.0);
  });
}

// ---------- FedAvg ----------

TEST(FedAvgTest, WeightedAverageBySamples) {
  LrModel a(4), b(4);
  a.weights()[0] = 1.0f;
  a.bias() = 1.0f;
  b.weights()[0] = 4.0f;
  b.bias() = -2.0f;
  FedAvgAggregator agg(4);
  ASSERT_TRUE(agg.Add(a, 1).ok());
  ASSERT_TRUE(agg.Add(b, 3).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->weights()[0], (1.0 * 1 + 4.0 * 3) / 4.0, 1e-6);
  EXPECT_NEAR(avg->bias(), (1.0 * 1 - 2.0 * 3) / 4.0, 1e-6);
  EXPECT_EQ(agg.clients(), 2u);
  EXPECT_EQ(agg.total_samples(), 4u);
}

TEST(FedAvgTest, SingleClientIsIdentity) {
  LrModel a(8);
  a.weights()[5] = 2.5f;
  FedAvgAggregator agg(8);
  ASSERT_TRUE(agg.Add(a, 10).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->DistanceTo(a), 0.0, 1e-6);
}

TEST(FedAvgTest, RejectsMismatchedDimAndZeroSamples) {
  FedAvgAggregator agg(8);
  EXPECT_FALSE(agg.Add(LrModel(4), 1).ok());
  EXPECT_FALSE(agg.Add(LrModel(8), 0).ok());
}

TEST(FedAvgTest, AggregateWithoutUpdatesFails) {
  FedAvgAggregator agg(8);
  EXPECT_FALSE(agg.Aggregate().ok());
}

TEST(FedAvgTest, ResetClears) {
  FedAvgAggregator agg(4);
  LrModel a(4);
  a.weights()[0] = 8.0f;
  ASSERT_TRUE(agg.Add(a, 2).ok());
  agg.Reset();
  EXPECT_EQ(agg.clients(), 0u);
  EXPECT_FALSE(agg.Aggregate().ok());
  LrModel b(4);
  b.weights()[0] = 2.0f;
  ASSERT_TRUE(agg.Add(b, 1).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->weights()[0], 2.0, 1e-6);  // no leakage from before reset
}

TEST(FedAvgTest, OneShotHelperMatchesAggregator) {
  std::vector<ClientUpdate> updates;
  for (int i = 0; i < 3; ++i) {
    ClientUpdate u{LrModel(4), static_cast<std::size_t>(i + 1),
                   static_cast<std::uint64_t>(i)};
    u.model.weights()[0] = static_cast<float>(i);
    updates.push_back(std::move(u));
  }
  auto result = FedAvg(updates);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->weights()[0], (0 * 1 + 1 * 2 + 2 * 3) / 6.0, 1e-6);
  EXPECT_FALSE(FedAvg({}).ok());
}

TEST(FedAvgTest, AverageOfIdenticalModelsIsUnchanged) {
  LrModel m(16);
  for (std::uint32_t i = 0; i < 16; ++i) m.weights()[i] = 0.5f - 0.05f * i;
  FedAvgAggregator agg(16);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(agg.Add(m, 7).ok());
  auto avg = agg.Aggregate();
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->DistanceTo(m), 0.0, 1e-5);
}

TEST(FedAvgTest, OneShotRejectsZeroSamplesAndDimMismatch) {
  // The one-shot helper surfaces the per-update validation errors.
  std::vector<ClientUpdate> zero_samples;
  zero_samples.push_back({LrModel(4), 0, 1});
  EXPECT_FALSE(FedAvg(zero_samples).ok());

  std::vector<ClientUpdate> mismatched;
  mismatched.push_back({LrModel(4), 2, 1});
  mismatched.push_back({LrModel(8), 2, 2});
  EXPECT_FALSE(FedAvg(mismatched).ok());
}

// Adversarial mix of magnitudes and sample weights for the invariance
// tests: large cancelling values next to tiny ones is the worst case for a
// reordered floating-point sum.
std::vector<ClientUpdate> AdversarialUpdates(std::size_t count,
                                             std::uint32_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> updates;
  for (std::size_t k = 0; k < count; ++k) {
    ClientUpdate u{LrModel(dim), 1 + static_cast<std::size_t>(rng() % 997),
                   static_cast<std::uint64_t>(k)};
    for (std::uint32_t i = 0; i < dim; ++i) {
      const double magnitude = std::pow(10.0, static_cast<double>(
                                                  rng() % 13) -
                                                  6.0);
      const double sign = (rng() & 1) ? 1.0 : -1.0;
      u.model.weights()[i] = static_cast<float>(sign * magnitude);
    }
    u.model.bias() = static_cast<float>(static_cast<double>(rng() % 2000) -
                                        1000.0);
    updates.push_back(std::move(u));
  }
  return updates;
}

std::vector<float> AggregateBits(const LrModel& model) {
  std::vector<float> bits(model.weights().begin(), model.weights().end());
  bits.push_back(model.bias());
  return bits;
}

TEST(FedAvgTest, AggregateIsOrderInvariantUnderShuffle) {
  // Bit-identical published models no matter the Add order: the cascade's
  // invariance window (~2^-99 relative) sits far below the final
  // double->float rounding. 20 adversarial shuffles, dim 64, 160 updates.
  auto updates = AdversarialUpdates(160, 64, 0xF00D);
  FedAvgAggregator reference(64);
  for (const auto& u : updates) {
    ASSERT_TRUE(reference.Add(u.model, u.sample_count).ok());
  }
  auto ref_model = reference.Aggregate();
  ASSERT_TRUE(ref_model.ok());
  const auto ref_bits = AggregateBits(*ref_model);

  Rng rng(0xBEEF);
  for (int trial = 0; trial < 20; ++trial) {
    rng.Shuffle(updates);
    FedAvgAggregator shuffled(64);
    for (const auto& u : updates) {
      ASSERT_TRUE(shuffled.Add(u.model, u.sample_count).ok());
    }
    auto model = shuffled.Aggregate();
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(AggregateBits(*model), ref_bits) << "shuffle trial " << trial;
  }
}

TEST(FedAvgTest, MergeFromMatchesSerialBitForBit) {
  // Shard-split invariance: partition the updates into k partial
  // aggregators, merge ascending, compare to the flat serial sum — the
  // exact reduction the partial-sum plane runs. Every split width the
  // plane supports plus an uneven one.
  const auto updates = AdversarialUpdates(96, 32, 0xCAFE);
  FedAvgAggregator reference(32);
  for (const auto& u : updates) {
    ASSERT_TRUE(reference.Add(u.model, u.sample_count).ok());
  }
  auto ref_model = reference.Aggregate();
  ASSERT_TRUE(ref_model.ok());
  const auto ref_bits = AggregateBits(*ref_model);

  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    std::vector<FedAvgAggregator> partials;
    for (std::size_t s = 0; s < shards; ++s) partials.emplace_back(32);
    for (std::size_t k = 0; k < updates.size(); ++k) {
      ASSERT_TRUE(partials[k % shards]
                      .Add(updates[k].model, updates[k].sample_count)
                      .ok());
    }
    FedAvgAggregator merged(32);
    for (const auto& partial : partials) merged.MergeFrom(partial);
    EXPECT_EQ(merged.clients(), reference.clients());
    EXPECT_EQ(merged.total_samples(), reference.total_samples());
    auto model = merged.Aggregate();
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(AggregateBits(*model), ref_bits) << shards << " shards";
  }
}

TEST(FedAvgTest, RestoreRoundTripsCascadeStateBitExactly) {
  // The checkpoint seam: accessor -> Restore must reproduce the aggregator
  // exactly, including both compensation planes, so a recovered run
  // publishes the same bits.
  const auto updates = AdversarialUpdates(40, 16, 0xD00F);
  FedAvgAggregator original(16);
  for (const auto& u : updates) {
    ASSERT_TRUE(original.Add(u.model, u.sample_count).ok());
  }

  FedAvgAggregator restored(16);
  restored.Restore(original.accumulator(), original.compensation1(),
                   original.compensation2(), original.bias_accumulator(),
                   original.bias_compensation1(),
                   original.bias_compensation2(), original.total_samples(),
                   original.clients());
  EXPECT_EQ(restored.clients(), original.clients());
  EXPECT_EQ(restored.total_samples(), original.total_samples());

  // Keep adding to both after the restore: identical trajectories.
  const auto more = AdversarialUpdates(17, 16, 0xFEED);
  FedAvgAggregator cont = std::move(restored);
  for (const auto& u : more) {
    ASSERT_TRUE(original.Add(u.model, u.sample_count).ok());
    ASSERT_TRUE(cont.Add(u.model, u.sample_count).ok());
  }
  auto a = original.Aggregate();
  auto b = cont.Aggregate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(AggregateBits(*a), AggregateBits(*b));

  // Reset drops everything, including the restored planes.
  cont.Reset();
  EXPECT_EQ(cont.clients(), 0u);
  EXPECT_EQ(cont.total_samples(), 0u);
  EXPECT_FALSE(cont.Aggregate().ok());
  for (const double v : cont.accumulator()) EXPECT_EQ(v, 0.0);
  for (const double v : cont.compensation1()) EXPECT_EQ(v, 0.0);
  for (const double v : cont.compensation2()) EXPECT_EQ(v, 0.0);
}

TEST(FedAvgKernelTest, RestrictKernelMatchesScalarReferenceBitForBit) {
  // fedavg_add_simd (CascadeAdd) vs fedavg_add_scalar (CascadeAddScalar):
  // same cascade, different loop qualification — every output bit equal.
  Rng rng(0xAB5E);
  const std::size_t n = 1024;
  std::vector<float> weights(n);
  for (auto& w : weights) {
    w = static_cast<float>(static_cast<double>(rng() % 100000) / 7.0 -
                           7000.0);
  }
  std::vector<double> sum_a(n, 0.0), c1_a(n, 0.0), c2_a(n, 0.0);
  std::vector<double> sum_b(n, 0.0), c1_b(n, 0.0), c2_b(n, 0.0);
  for (int pass = 0; pass < 5; ++pass) {
    const double scale = static_cast<double>(1 + rng() % 997);
    kernels::CascadeAddScalar(weights, scale, sum_a, c1_a, c2_a);
    kernels::CascadeAdd(weights.data(), n, scale, sum_b.data(), c1_b.data(),
                        c2_b.data());
    EXPECT_EQ(sum_a, sum_b) << "pass " << pass;
    EXPECT_EQ(c1_a, c1_b) << "pass " << pass;
    EXPECT_EQ(c2_a, c2_b) << "pass " << pass;
  }
}

TEST(FedAvgKernelTest, CascadeTracksExactSumOfCancellingTerms) {
  // 1e16 and ±1 terms: a naive double sum loses the ±1s entirely; the
  // cascade's represented value keeps them.
  std::vector<double> sum(1, 0.0), c1(1, 0.0), c2(1, 0.0);
  std::vector<float> big{1.0f};
  kernels::CascadeAddScalar(big, 1e16, sum, c1, c2);
  for (int i = 0; i < 1000; ++i) {
    kernels::CascadeAddScalar(big, 1.0, sum, c1, c2);
  }
  kernels::CascadeAddScalar(big, -1e16, sum, c1, c2);
  EXPECT_EQ(kernels::CascadeValue(sum[0], c1[0], c2[0]), 1000.0);
}


// ---------- Relative (base-delta) accumulate ----------

// A global model with full-significand weights of mixed magnitude and a
// nonzero bias — the base relative updates fold against.
std::shared_ptr<const LrModel> RelativeBase(std::uint32_t dim,
                                            std::uint64_t seed) {
  Rng rng(seed);
  auto base = std::make_shared<LrModel>(dim);
  for (float& w : base->weights()) {
    const double scale = std::pow(10.0, static_cast<double>(rng() % 7) - 3.0);
    w = static_cast<float>(
        (static_cast<double>(rng() % 2000001) - 1000000.0) / 7.0 * scale);
  }
  base->bias() = 0.25f;
  return base;
}

// `count` clients trained from `base`: each rewrites `touched` random
// weights (adversarial magnitudes) and the bias; every other weight stays
// bit-equal to the base, as after local SGD without a regulariser.
std::vector<ClientUpdate> SparseClients(const LrModel& base, std::size_t count,
                                        std::size_t touched,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientUpdate> clients;
  for (std::size_t k = 0; k < count; ++k) {
    ClientUpdate u{base, 1 + static_cast<std::size_t>(rng() % 997),
                   static_cast<std::uint64_t>(k)};
    for (std::size_t t = 0; t < touched; ++t) {
      const double magnitude =
          std::pow(10.0, static_cast<double>(rng() % 13) - 6.0);
      const double sign = (rng() & 1) ? 1.0 : -1.0;
      u.model.weights()[rng() % base.dim()] =
          static_cast<float>(sign * magnitude);
    }
    u.model.bias() =
        static_cast<float>(static_cast<double>(rng() % 2000) - 1000.0);
    clients.push_back(std::move(u));
  }
  return clients;
}

// The relative form of `model` against `base`, through the wire decoder.
RelativeModel Relative(const LrModel& model,
                       const std::shared_ptr<const LrModel>& base) {
  const auto relative = LrModel::DecodeRelative(model.ToBytes(), base);
  EXPECT_NE(relative, nullptr);
  return relative != nullptr ? *relative : RelativeModel{base, {}, {}, 0.0f};
}

// Raw IEEE bits of every weight and the bias (NaN- and signed-zero-exact).
std::vector<std::uint32_t> ModelBits(const LrModel& model) {
  std::vector<std::uint32_t> bits;
  for (const float w : model.weights()) {
    bits.push_back(std::bit_cast<std::uint32_t>(w));
  }
  bits.push_back(std::bit_cast<std::uint32_t>(model.bias()));
  return bits;
}

std::vector<std::uint32_t> DenseBits(std::span<const ClientUpdate> clients) {
  auto model = FedAvg(clients);
  EXPECT_TRUE(model.ok());
  return model.ok() ? ModelBits(*model) : std::vector<std::uint32_t>{};
}

std::vector<std::uint32_t> AggregateBitsOf(const FedAvgAggregator& agg) {
  auto model = agg.Aggregate();
  EXPECT_TRUE(model.ok());
  return model.ok() ? ModelBits(*model) : std::vector<std::uint32_t>{};
}

TEST(FedAvgRelativeTest, AllRelativeMatchesDenseBitForBit) {
  const auto base = RelativeBase(256, 0x5EED);
  const auto clients = SparseClients(*base, 120, 12, 0xA11);
  FedAvgAggregator relative(256);
  relative.SetBase(base);
  for (const auto& c : clients) {
    ASSERT_TRUE(relative.AddRelative(Relative(c.model, base), c.sample_count)
                    .ok());
  }
  EXPECT_EQ(relative.clients(), clients.size());
  EXPECT_EQ(relative.base_samples(), relative.total_samples());
  EXPECT_EQ(AggregateBitsOf(relative), DenseBits(clients));
}

TEST(FedAvgRelativeTest, MixedRelativeAndDenseMatchesDense) {
  const auto base = RelativeBase(200, 0x1234);
  const auto clients = SparseClients(*base, 90, 20, 0xB22);
  FedAvgAggregator mixed(200);
  mixed.SetBase(base);
  std::size_t relative_samples = 0;
  for (std::size_t k = 0; k < clients.size(); ++k) {
    const ClientUpdate& c = clients[k];
    if (k % 3 == 0) {
      ASSERT_TRUE(mixed.Add(c.model, c.sample_count).ok());
    } else {
      ASSERT_TRUE(
          mixed.AddRelative(Relative(c.model, base), c.sample_count).ok());
      relative_samples += c.sample_count;
    }
  }
  EXPECT_EQ(mixed.base_samples(), relative_samples);
  EXPECT_EQ(AggregateBitsOf(mixed), DenseBits(clients));
}

TEST(FedAvgRelativeTest, BaseMismatchMaterialisesAndMatchesDense) {
  // Same bits, different object: the pointer check fails and every update
  // takes the dense path — as when a round closes between decode and
  // admission. A base switched mid-round folds the samples it owes first.
  const auto base = RelativeBase(128, 0x77);
  const auto twin = std::make_shared<const LrModel>(*base);
  const auto clients = SparseClients(*base, 60, 8, 0xC33);
  const auto want = DenseBits(clients);

  FedAvgAggregator no_base(128);
  FedAvgAggregator other_base(128);
  other_base.SetBase(twin);
  for (const auto& c : clients) {
    const RelativeModel update = Relative(c.model, base);
    ASSERT_TRUE(no_base.AddRelative(update, c.sample_count).ok());
    ASSERT_TRUE(other_base.AddRelative(update, c.sample_count).ok());
  }
  EXPECT_EQ(no_base.base_samples(), 0u);
  EXPECT_EQ(other_base.base_samples(), 0u);
  EXPECT_EQ(AggregateBitsOf(no_base), want);
  EXPECT_EQ(AggregateBitsOf(other_base), want);

  FedAvgAggregator switched(128);
  switched.SetBase(base);
  for (std::size_t k = 0; k < clients.size(); ++k) {
    if (k == clients.size() / 2) {
      ASSERT_GT(switched.base_samples(), 0u);
      switched.SetBase(twin);
      EXPECT_EQ(switched.base_samples(), 0u);
    }
    ASSERT_TRUE(switched
                    .AddRelative(Relative(clients[k].model, base),
                                 clients[k].sample_count)
                    .ok());
  }
  EXPECT_EQ(AggregateBitsOf(switched), want);
}

TEST(FedAvgRelativeTest, MergeFromPartialsMatchesDense) {
  const auto base = RelativeBase(96, 0x99);
  const auto clients = SparseClients(*base, 96, 10, 0xD44);
  const auto want = DenseBits(clients);
  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    std::vector<FedAvgAggregator> partials;
    for (std::size_t s = 0; s < shards; ++s) {
      partials.emplace_back(96);
      partials.back().SetBase(base);
    }
    for (std::size_t k = 0; k < clients.size(); ++k) {
      FedAvgAggregator& lane = partials[k % shards];
      if (k % 5 == 0) {
        ASSERT_TRUE(lane.Add(clients[k].model, clients[k].sample_count).ok());
      } else {
        ASSERT_TRUE(lane.AddRelative(Relative(clients[k].model, base),
                                     clients[k].sample_count)
                        .ok());
      }
    }
    FedAvgAggregator merged(96);
    merged.SetBase(base);
    std::size_t base_samples = 0;
    for (const auto& partial : partials) {
      merged.MergeFrom(partial);
      base_samples += partial.base_samples();
    }
    EXPECT_EQ(merged.base_samples(), base_samples);
    EXPECT_EQ(AggregateBitsOf(merged), want) << shards << " shards";
  }
}

TEST(FedAvgRelativeTest, SnapshotRestoreMidRoundContinuesIdentically) {
  // A checkpoint cut while relative samples are owed: the image is the
  // folded dense cascade, Restore zeroes the count, and a restored
  // aggregator that keeps going publishes what the original does.
  const auto base = RelativeBase(64, 0xABC);
  const auto clients = SparseClients(*base, 50, 6, 0xE55);
  const std::size_t cut = 23;
  FedAvgAggregator original(64);
  original.SetBase(base);
  for (std::size_t k = 0; k < cut; ++k) {
    ASSERT_TRUE(original
                    .AddRelative(Relative(clients[k].model, base),
                                 clients[k].sample_count)
                    .ok());
  }
  ASSERT_GT(original.base_samples(), 0u);

  FedAvgAggregator image = original;
  image.FoldBase();
  EXPECT_EQ(image.base_samples(), 0u);
  FedAvgAggregator restored(64);
  restored.SetBase(base);
  ASSERT_TRUE(restored.AddRelative(Relative(clients[0].model, base), 1).ok());
  restored.Restore(image.accumulator(), image.compensation1(),
                   image.compensation2(), image.bias_accumulator(),
                   image.bias_compensation1(), image.bias_compensation2(),
                   image.total_samples(), image.clients());
  EXPECT_EQ(restored.base_samples(), 0u);
  EXPECT_EQ(restored.total_samples(), original.total_samples());
  EXPECT_EQ(AggregateBitsOf(restored), AggregateBitsOf(original));

  for (std::size_t k = cut; k < clients.size(); ++k) {
    const RelativeModel update = Relative(clients[k].model, base);
    ASSERT_TRUE(original.AddRelative(update, clients[k].sample_count).ok());
    ASSERT_TRUE(restored.AddRelative(update, clients[k].sample_count).ok());
  }
  const auto want = DenseBits(clients);
  EXPECT_EQ(AggregateBitsOf(original), want);
  EXPECT_EQ(AggregateBitsOf(restored), want);
}

TEST(FedAvgRelativeTest, BaseSampleTotalPast2To29SplitsIntoExactLimbs) {
  // Relative clients owe base·W with W > 2^29 (odd, 30 significant bits),
  // and dense clients holding -base cancel all but one sample of it, so
  // the published weight is base[j] / (2W - 1). A single rounded
  // base[j]·W product would be off by up to W·2^-54 ≈ 2^-24 relative to
  // that result — visible in the float.
  const auto base = RelativeBase(64, 0xF00);
  std::vector<ClientUpdate> clients;
  const std::size_t kBig = (std::size_t{1} << 28) + 12345;
  std::size_t relative_total = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    ClientUpdate u{*base, kBig + 2 * k, k};
    u.model.weights()[k] = 1.5f;
    relative_total += u.sample_count;
    clients.push_back(std::move(u));
  }
  ASSERT_GT(relative_total, std::size_t{1} << 29);
  ASSERT_EQ(relative_total % 2, 1u);
  LrModel negated = *base;
  for (float& w : negated.weights()) w = -w;
  std::size_t dense_left = relative_total - 1;
  for (std::uint64_t k = 3; dense_left > 0; ++k) {
    const std::size_t w = std::min(dense_left, kBig);
    clients.push_back({negated, w, k});
    dense_left -= w;
  }

  FedAvgAggregator agg(64);
  agg.SetBase(base);
  for (const auto& c : clients) {
    const Status added =
        c.client_id < 3
            ? agg.AddRelative(Relative(c.model, base), c.sample_count)
            : agg.Add(c.model, c.sample_count);
    ASSERT_TRUE(added.ok());
  }
  EXPECT_EQ(agg.base_samples(), relative_total);
  const auto want = DenseBits(clients);
  EXPECT_EQ(AggregateBitsOf(agg), want);
  // The fold (what a snapshot serializes) splits the count the same way.
  FedAvgAggregator folded = agg;
  folded.FoldBase();
  EXPECT_EQ(AggregateBitsOf(folded), want);
}

TEST(FedAvgRelativeTest, SignedZeroAndNaNPayloadWordsAreDifferences) {
  // Words are compared as bits, not as floats: -0.0 vs +0.0 and two NaNs
  // with different payloads are differences; a bit-equal NaN is not.
  auto base = std::make_shared<LrModel>(*RelativeBase(40, 0x0D));
  base->weights()[1] = 0.0f;
  base->weights()[2] = -0.0f;
  base->weights()[3] = std::bit_cast<float>(0x7FC00001u);
  base->weights()[4] = std::bit_cast<float>(0x7FC00002u);
  LrModel client = *base;
  client.weights()[1] = -0.0f;
  client.weights()[2] = 0.0f;
  client.weights()[3] = std::bit_cast<float>(0x7FC00003u);
  client.weights()[37] = 2.0f;  // a word in the partial tail block
  const std::shared_ptr<const LrModel> shared = base;
  const RelativeModel relative = Relative(client, shared);
  EXPECT_EQ(relative.index, (std::vector<std::uint32_t>{1, 2, 3, 37}));
  ASSERT_EQ(relative.value.size(), 4u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(relative.value[0]), 0x80000000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(relative.value[1]), 0u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(relative.value[2]), 0x7FC00003u);
  auto decoded = LrModel::FromBytes(client.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ModelBits(relative.Materialize()), ModelBits(*decoded));

  const std::vector<ClientUpdate> clients = {{client, 3, 0}, {*base, 2, 1}};
  FedAvgAggregator agg(40);
  agg.SetBase(shared);
  ASSERT_TRUE(agg.AddRelative(relative, 3).ok());
  ASSERT_TRUE(agg.AddRelative(Relative(*base, shared), 2).ok());
  EXPECT_EQ(AggregateBitsOf(agg), DenseBits(clients));
}

}  // namespace
}  // namespace simdc::ml
