#include "ml/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"

namespace simdc::ml {

namespace {
// Crossover measured on the dev container (bench_micro_kernels
// auc_rank_{sort,radix} ops): radix wins clearly by a few thousand
// scores; below that std::sort's cache locality is competitive.
std::size_t g_auc_radix_threshold = 4096;
}  // namespace

std::size_t GetAucRadixThreshold() { return g_auc_radix_threshold; }
void SetAucRadixThreshold(std::size_t min_examples) {
  g_auc_radix_threshold = min_examples;
}

namespace {

/// Monotone 64-bit key for a (finite) double: key(a) < key(b) iff a < b,
/// except -0.0 < +0.0 (numerically equal; the tie walk below compares
/// scores, not keys, so the pair still lands in one tie group). Sign bit
/// flipped for non-negatives, all bits flipped for negatives — the
/// classic order-preserving IEEE-754 remap.
std::uint64_t OrderedKey(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits & 0x8000000000000000ull) != 0 ? ~bits
                                             : bits ^ 0x8000000000000000ull;
}

/// Stable LSD radix sort of (score, positive) pairs by ascending score.
/// 8 digit histograms are built in one pass; passes whose digit is
/// constant across all keys (common: CTR scores share exponent bytes)
/// are skipped outright.
void RadixSortByScore(std::vector<std::pair<double, bool>>& scored) {
  const std::size_t n = scored.size();
  if (n < 2) return;
  struct Keyed {
    std::uint64_t key;
    std::pair<double, bool> value;
  };
  std::vector<Keyed> from(n);
  std::vector<Keyed> to(n);
  constexpr std::size_t kDigits = 8;
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = OrderedKey(scored[i].first);
    from[i] = {key, scored[i]};
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (8 * d)) & 0xff];
    }
  }
  Keyed* src = from.data();
  Keyed* dst = to.data();
  for (std::size_t d = 0; d < kDigits; ++d) {
    auto& count = counts[d];
    const std::size_t first_bucket = (src[0].key >> (8 * d)) & 0xff;
    if (count[first_bucket] == n) continue;  // constant digit: no-op pass
    std::array<std::size_t, 256> offsets;
    std::size_t running = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      offsets[b] = running;
      running += count[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> (8 * d)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) scored[i] = src[i].value;
}

/// Tie-averaged rank statistic over (score, is_positive) pairs. Sorts
/// `scored` in place — radix at GetAucRadixThreshold() scores and above,
/// comparison sort below; identical bits either way. The caller has
/// already ruled out the degenerate single-class / empty cases.
double AucFromScored(std::vector<std::pair<double, bool>>& scored,
                     std::size_t positives) {
  if (scored.size() >= GetAucRadixThreshold()) {
    RadixSortByScore(scored);
  } else {
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  // Sum of ranks of positives, averaging ranks across tied scores.
  double positive_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < scored.size()) {
    std::size_t j = i;
    while (j < scored.size() && scored[j].first == scored[i].first) ++j;
    const double avg_rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k) {
      if (scored[k].second) positive_rank_sum += avg_rank;
    }
    i = j;
  }
  const auto np = static_cast<double>(positives);
  const auto nn = static_cast<double>(scored.size() - positives);
  return (positive_rank_sum - np * (np + 1.0) / 2.0) / (np * nn);
}

}  // namespace

double Auc(const LrModel& model, std::span<const data::Example> examples) {
  // Cheap label-only pass first: a single-class (or empty) set is 0.5 by
  // definition and needs neither the scoring pass nor the pair-sort buffer.
  std::size_t positives = 0;
  for (const auto& example : examples) positives += example.label > 0.5f ? 1 : 0;
  if (positives == 0 || positives == examples.size()) return 0.5;

  std::vector<std::pair<double, bool>> scored;
  scored.reserve(examples.size());
  for (const auto& example : examples) {
    scored.emplace_back(model.Score(example), example.label > 0.5f);
  }
  return AucFromScored(scored, positives);
}

namespace {

const data::Example& Deref(const data::Example& example) { return example; }
const data::Example& Deref(const data::Example* example) { return *example; }

template <typename Examples>
EvalReport EvaluateImpl(const LrModel& model, const Examples& examples,
                        ThreadPool* pool) {
  // Hot path (called twice per FL round): score every example exactly
  // once and derive both metrics from that single forward pass.
  EvalReport report;
  const std::size_t n = examples.size();
  report.examples = n;
  if (n == 0) return report;

  // Grains write only their own slots: each example's log-loss term and
  // the grain's correct count. The term buffer is the calling thread's,
  // reused across calls so a round's evaluations do not fault in fresh
  // pages; grains on other threads reach it through `terms`, not by name.
  const std::size_t grains = (n + kEvaluateGrain - 1) / kEvaluateGrain;
  thread_local std::vector<double> scratch;
  scratch.resize(n);
  const std::span<double> terms(scratch);
  std::vector<std::size_t> correct(grains);
  const auto score_grain = [&](std::size_t grain) {
    const std::size_t end = std::min(n, (grain + 1) * kEvaluateGrain);
    std::size_t hits = 0;
    for (std::size_t i = grain * kEvaluateGrain; i < end; ++i) {
      const data::Example& example = Deref(examples[i]);
      const double probability = 1.0 / (1.0 + std::exp(-model.Score(example)));
      const bool actual = example.label > 0.5f;
      hits += (probability >= 0.5) == actual ? 1 : 0;
      const double p = std::clamp(probability, 1e-12, 1.0 - 1e-12);
      terms[i] = actual ? -std::log(p) : -std::log(1.0 - p);
    }
    correct[grain] = hits;
  };
  if (pool != nullptr && grains > 1) {
    pool->ParallelFor(grains, score_grain);
  } else {
    for (std::size_t grain = 0; grain < grains; ++grain) score_grain(grain);
  }

  // Serial, in example order: the additions a single pass would make.
  double total_logloss = 0.0;
  for (const double term : terms) total_logloss += term;
  std::size_t total_correct = 0;
  for (const std::size_t hits : correct) total_correct += hits;
  report.accuracy = static_cast<double>(total_correct) / static_cast<double>(n);
  report.logloss = total_logloss / static_cast<double>(n);
  return report;
}

}  // namespace

EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example> examples,
                    ThreadPool* pool) {
  return EvaluateImpl(model, examples, pool);
}

EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example* const> examples,
                    ThreadPool* pool) {
  return EvaluateImpl(model, examples, pool);
}

}  // namespace simdc::ml
