#include "ml/fedavg.h"

#include <algorithm>
#include <array>

namespace simdc::ml {

namespace kernels {
namespace {

/// Branch-free Knuth TwoSum: s = fl(a + b), err the exact residual so
/// that a + b == s + err. No magnitude precondition, no branches — one
/// straight-line dependency chain per lane, so the surrounding loops
/// vectorize.
inline void TwoSum(double a, double b, double& s, double& err) {
  s = a + b;
  const double bb = s - a;
  err = (a - (s - bb)) + (b - bb);
}

/// One cascade step shared by every kernel: folds term `t` into the
/// (sum, c1, c2) triple. Two error-free TwoSums; only the final c2 += e2
/// rounds, which is what bounds the order sensitivity (see fedavg.h).
inline void CascadeStep(double t, double& sum, double& c1, double& c2) {
  double s, e1;
  TwoSum(sum, t, s, e1);
  sum = s;
  double s2, e2;
  TwoSum(c1, e1, s2, e2);
  c1 = s2;
  c2 += e2;
}

}  // namespace

void CascadeAddScalar(std::span<const float> weights, double scale,
                      std::span<double> sum, std::span<double> c1,
                      std::span<double> c2) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    CascadeStep(scale * static_cast<double>(weights[i]), sum[i], c1[i],
                c2[i]);
  }
}

void CascadeAdd(const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2) {
  for (std::size_t i = 0; i < n; ++i) {
    CascadeStep(scale * static_cast<double>(weights[i]), sum[i], c1[i],
                c2[i]);
  }
}

void CascadeMerge(const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2) {
  // Each of the other cascade's terms is itself a partial-sum term inside
  // the invariance window, so folding the three through the same cascade
  // keeps the merged value within the window of the flat serial sum.
  for (std::size_t i = 0; i < n; ++i) {
    CascadeStep(other_sum[i], sum[i], c1[i], c2[i]);
    CascadeStep(other_c1[i], sum[i], c1[i], c2[i]);
    CascadeStep(other_c2[i], sum[i], c1[i], c2[i]);
  }
}

}  // namespace kernels

namespace {

/// Exact multipliers for a base sample count: count = Σ L_i·2^(29i) with
/// every limb L_i < 2²⁹, so each float·multiplier product is an exact
/// double (see fedavg.h). Zero limbs are skipped.
struct CountLimbs {
  explicit CountLimbs(std::size_t count) {
    static_assert(sizeof(std::size_t) * 8 <= 29 * 3);
    double scale = 1.0;
    for (; count > 0; count >>= 29, scale *= 0x1p29) {
      const std::size_t limb = count & ((std::size_t{1} << 29) - 1);
      if (limb != 0) multiplier[size++] = static_cast<double>(limb) * scale;
    }
  }
  std::array<double, 3> multiplier{};
  std::size_t size = 0;
};

/// Folds base·count into one coordinate's cascade triple.
inline void FoldBaseTerm(float base, const CountLimbs& limbs, double& sum,
                         double& c1, double& c2) {
  for (std::size_t l = 0; l < limbs.size; ++l) {
    kernels::CascadeStep(limbs.multiplier[l] * static_cast<double>(base), sum,
                         c1, c2);
  }
}

}  // namespace

Status FedAvgAggregator::Add(const LrModel& model, std::size_t sample_count) {
  if (model.dim() != dim()) {
    return InvalidArgument("FedAvg: model dim " + std::to_string(model.dim()) +
                           " != aggregator dim " + std::to_string(dim()));
  }
  if (sample_count == 0) {
    return InvalidArgument("FedAvg: client update with zero samples");
  }
  const auto w = static_cast<double>(sample_count);
  const auto weights = model.weights();
  kernels::CascadeAdd(weights.data(), accumulator_.size(), w,
                      accumulator_.data(), compensation1_.data(),
                      compensation2_.data());
  kernels::CascadeStep(w * static_cast<double>(model.bias()),
                       bias_accumulator_, bias_compensation1_,
                       bias_compensation2_);
  total_samples_ += sample_count;
  ++clients_;
  return Status::Ok();
}

Status FedAvgAggregator::AddRelative(const RelativeModel& update,
                                     std::size_t sample_count) {
  if (update.base != base_) return Add(update.Materialize(), sample_count);
  if (sample_count == 0) {
    return InvalidArgument("FedAvg: client update with zero samples");
  }
  SIMDC_DCHECK(update.index.size() == update.value.size(),
               "AddRelative: index/value size mismatch");
  const auto w = static_cast<double>(sample_count);
  const auto base = base_->weights();
  for (std::size_t k = 0; k < update.index.size(); ++k) {
    const std::uint32_t j = update.index[k];
    SIMDC_DCHECK(j < base.size(), "AddRelative: index " << j << " >= dim");
    kernels::CascadeStep(w * static_cast<double>(update.value[k]),
                         accumulator_[j], compensation1_[j],
                         compensation2_[j]);
    kernels::CascadeStep(-w * static_cast<double>(base[j]), accumulator_[j],
                         compensation1_[j], compensation2_[j]);
  }
  kernels::CascadeStep(w * static_cast<double>(update.bias),
                       bias_accumulator_, bias_compensation1_,
                       bias_compensation2_);
  total_samples_ += sample_count;
  base_samples_ += sample_count;
  ++clients_;
  return Status::Ok();
}

void FedAvgAggregator::SetBase(std::shared_ptr<const LrModel> base) {
  SIMDC_CHECK(base == nullptr || base->dim() == dim(),
              "FedAvgAggregator::SetBase: dimension mismatch");
  FoldBase();
  base_ = std::move(base);
}

void FedAvgAggregator::FoldBase() {
  if (base_samples_ == 0) return;
  const CountLimbs limbs(base_samples_);
  const auto base = base_->weights();
  for (std::size_t i = 0; i < accumulator_.size(); ++i) {
    FoldBaseTerm(base[i], limbs, accumulator_[i], compensation1_[i],
                 compensation2_[i]);
  }
  base_samples_ = 0;
}

void FedAvgAggregator::MergeFrom(const FedAvgAggregator& other) {
  SIMDC_CHECK(other.dim() == dim(),
              "FedAvgAggregator::MergeFrom: dimension mismatch");
  SIMDC_CHECK(other.base_samples_ == 0 || other.base_ == base_,
              "FedAvgAggregator::MergeFrom: relative partial has another base");
  kernels::CascadeMerge(other.accumulator_.data(), other.compensation1_.data(),
                        other.compensation2_.data(), accumulator_.size(),
                        accumulator_.data(), compensation1_.data(),
                        compensation2_.data());
  kernels::CascadeStep(other.bias_accumulator_, bias_accumulator_,
                       bias_compensation1_, bias_compensation2_);
  kernels::CascadeStep(other.bias_compensation1_, bias_accumulator_,
                       bias_compensation1_, bias_compensation2_);
  kernels::CascadeStep(other.bias_compensation2_, bias_accumulator_,
                       bias_compensation1_, bias_compensation2_);
  total_samples_ += other.total_samples_;
  clients_ += other.clients_;
  base_samples_ += other.base_samples_;
}

Result<LrModel> FedAvgAggregator::Aggregate() const {
  if (total_samples_ == 0) {
    return FailedPrecondition("FedAvg: no client updates to aggregate");
  }
  LrModel model(dim());
  const auto total = static_cast<double>(total_samples_);
  auto weights = model.weights();
  const double* SIMDC_RESTRICT sum = accumulator_.data();
  const double* SIMDC_RESTRICT c1 = compensation1_.data();
  const double* SIMDC_RESTRICT c2 = compensation2_.data();
  float* SIMDC_RESTRICT out = weights.data();
  if (base_samples_ == 0) {
    for (std::size_t i = 0; i < accumulator_.size(); ++i) {
      out[i] = static_cast<float>(
          kernels::CascadeValue(sum[i], c1[i], c2[i]) / total);
    }
  } else {
    const CountLimbs limbs(base_samples_);
    const float* base = base_->weights().data();
    for (std::size_t i = 0; i < accumulator_.size(); ++i) {
      double s = sum[i], a = c1[i], b = c2[i];
      FoldBaseTerm(base[i], limbs, s, a, b);
      out[i] = static_cast<float>(kernels::CascadeValue(s, a, b) / total);
    }
  }
  model.bias() = static_cast<float>(
      kernels::CascadeValue(bias_accumulator_, bias_compensation1_,
                            bias_compensation2_) /
      total);
  return model;
}

void FedAvgAggregator::Reset() {
  std::fill(accumulator_.begin(), accumulator_.end(), 0.0);
  std::fill(compensation1_.begin(), compensation1_.end(), 0.0);
  std::fill(compensation2_.begin(), compensation2_.end(), 0.0);
  bias_accumulator_ = 0.0;
  bias_compensation1_ = 0.0;
  bias_compensation2_ = 0.0;
  total_samples_ = 0;
  clients_ = 0;
  base_samples_ = 0;
}

Result<LrModel> FedAvg(std::span<const ClientUpdate> updates) {
  if (updates.empty()) {
    return InvalidArgument("FedAvg: empty update set");
  }
  FedAvgAggregator aggregator(updates.front().model.dim());
  for (const auto& update : updates) {
    const Status added = aggregator.Add(update.model, update.sample_count);
    if (!added.ok()) return added.error();
  }
  return aggregator.Aggregate();
}

}  // namespace simdc::ml
