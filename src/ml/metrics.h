// Evaluation metrics for the CTR task: accuracy and log-loss per round
// (Evaluate), AUC on demand (Auc).
#pragma once

#include <cstddef>
#include <span>

#include "data/example.h"
#include "ml/lr_model.h"

namespace simdc {
class ThreadPool;
}  // namespace simdc

namespace simdc::ml {

/// Score count at or above which Auc's rank statistic ranks via an LSD
/// radix sort over order-preserving 64-bit score keys instead of the
/// comparison pair-sort (the pair-sort dominates Auc at eval-cap sizes).
/// Both paths are EXACT and produce bit-identical AUC — the radix
/// key is the IEEE-754 bit pattern monotonically remapped, not a lossy
/// quantization, and tie groups are still detected by score equality (so
/// -0.0/+0.0 stay one group). Below the cap the comparison sort's cache
/// behavior wins; 0 forces radix everywhere, SIZE_MAX disables it.
std::size_t GetAucRadixThreshold();
void SetAucRadixThreshold(std::size_t min_examples);

/// Area under the ROC curve via the rank statistic (ties averaged).
/// Returns 0.5 when one class is absent.
double Auc(const LrModel& model, std::span<const data::Example> examples);

struct EvalReport {
  /// Fraction of examples whose 0.5-thresholded prediction matches the
  /// label; 0 on an empty set.
  double accuracy = 0.0;
  /// Mean binary cross-entropy (probabilities clamped to [1e-12,
  /// 1 - 1e-12]); 0 on an empty set.
  double logloss = 0.0;
  std::size_t examples = 0;
};

/// Examples per scoring grain: the unit Evaluate hands to a pool thread.
inline constexpr std::size_t kEvaluateGrain = 1000;

/// Accuracy and log-loss from a single scoring pass over `examples`. With
/// a `pool`, grains of kEvaluateGrain examples are scored across it; the
/// per-example log-loss terms are then summed serially in example order,
/// so the report has the same bits with or without a pool, at any pool
/// size. The pointer overload scores examples held elsewhere (e.g. a
/// sample of a shared dataset) with the same bits as the contiguous one
/// over the same examples.
EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example> examples,
                    ThreadPool* pool = nullptr);
EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example* const> examples,
                    ThreadPool* pool = nullptr);

}  // namespace simdc::ml
