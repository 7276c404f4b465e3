#include "digest.h"

#include <cstring>
#include <type_traits>

namespace perfbench {

namespace {

class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  // Sizes are hashed as fixed-width integers so the digest does not depend
  // on the platform's size_t.
  void AddSize(std::size_t value) { Add(static_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddResult(Fnv1a& h, const simdc::core::FlRunResult& result) {
  h.AddSize(result.rounds.size());
  for (const simdc::core::RoundMetrics& round : result.rounds) {
    h.AddSize(round.round);
    h.Add(round.time);
    h.AddSize(round.clients);
    h.AddSize(round.samples);
    h.Add(round.test_accuracy);
    h.Add(round.test_logloss);
    h.Add(round.train_accuracy);
    h.Add(round.train_logloss);
  }
  h.AddSize(result.messages_emitted);
  h.AddSize(result.messages_dropped);
  h.AddSize(result.skipped_unavailable);
  h.AddSize(result.rounds_degraded);
  h.AddSize(result.rounds_extended);
  h.AddSize(result.rounds_aborted);
  h.Add(result.model_dim);
  h.AddSize(result.final_weights.size());
  for (const float w : result.final_weights) h.Add(w);
  h.Add(result.final_bias);
}

}  // namespace

std::uint64_t DigestResult(const simdc::core::FlRunResult& result) {
  Fnv1a h;
  AddResult(h, result);
  return h.value();
}

std::uint64_t DigestTenant(const simdc::core::TenantResult& tenant) {
  Fnv1a h;
  h.Add(tenant.id.value());
  h.Add(tenant.completed);
  h.Add(tenant.rejected);
  AddResult(h, tenant.result);
  const simdc::core::TaskSlaReport& sla = tenant.sla;
  h.Add(sla.retries);
  h.Add(sla.deadline_drops);
  h.Add(sla.churn_losses);
  h.AddSize(sla.messages_dropped);
  h.Add(sla.submitted);
  h.Add(sla.admitted);
  h.Add(sla.completed);
  return h.value();
}

}  // namespace perfbench
