// Test-side FedAvg oracle: the one reference every AggregationService
// equivalence test compares against.
//
// ReferenceAggregation replays a captured (message, arrival) delivery
// stream one message at a time, in delivery order, with the service's
// admission rules written out plainly:
//   1. staleness verdict (reject_stale: message.round != rounds published);
//   2. BlobModelDecoder fetch + decode, split into store error (its own
//      counter), missing blob and undecodable payload (decode failures);
//   3. dim check (a wrong-dimension model is a decode failure);
//   4. the sample-threshold trigger, stamping the round with the crossing
//      message's arrival.
// Each round publishes one-shot ml::FedAvg over exactly the updates that
// round admitted. The FedAvg cascade is order-invariant (ml/fedavg.h), so
// however the service stages, slices and flushes its updates across pool
// lanes, it must publish these bits. This is what the per-message,
// decode-in-handler, add-inline path of the service used to compute;
// tests whose names still say "PerMessage" or "Legacy" compare against it.
//
// CapturingEndpoint is the seam that records the stream: a tee in front of
// the service (directly, or behind a ShardMerger) that logs every message
// with its arrival stamp and forwards the call unchanged.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cloud/aggregation.h"
#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "flow/device_flow.h"
#include "ml/fedavg.h"

namespace simdc::reference {

/// One message as it reached the cloud endpoint.
struct Delivery {
  flow::Message message;
  SimTime arrival = 0;
};

/// Records every delivery in order, then forwards it to `downstream`
/// (nullptr = record only) through the same endpoint hook.
class CapturingEndpoint final : public flow::CloudEndpoint {
 public:
  explicit CapturingEndpoint(flow::CloudEndpoint* downstream = nullptr)
      : downstream_(downstream) {}

  void Deliver(const flow::Message& message, SimTime arrival) override {
    deliveries_.push_back({message, arrival});
    if (downstream_ != nullptr) downstream_->Deliver(message, arrival);
  }
  void DeliverBatch(std::span<const flow::Message> messages,
                    std::span<const SimTime> arrivals) override {
    ++ticks_;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      deliveries_.push_back({messages[i], arrivals[i]});
    }
    if (downstream_ != nullptr) downstream_->DeliverBatch(messages, arrivals);
  }
  void DeliverDecodedBatch(std::span<const flow::DecodedUpdate> updates,
                           std::span<const SimTime> arrivals) override {
    ++ticks_;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      deliveries_.push_back({updates[i].message, arrivals[i]});
    }
    if (downstream_ != nullptr) {
      downstream_->DeliverDecodedBatch(updates, arrivals);
    }
  }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  /// Batched / decoded calls received (one per dispatch tick).
  std::size_t ticks() const { return ticks_; }

 private:
  flow::CloudEndpoint* downstream_;
  std::vector<Delivery> deliveries_;
  std::size_t ticks_ = 0;
};

/// The per-message FedAvg reference (see the file comment).
class ReferenceAggregation {
 public:
  ReferenceAggregation(const cloud::BlobStore& store,
                       cloud::AggregationConfig config)
      : decoder_(store), config_(config), global_(config.model_dim) {}

  void Deliver(const flow::Message& message, SimTime arrival) {
    ++received_;
    if (config_.reject_stale && message.round != history_.size()) {
      ++stale_rejections_;
      return;
    }
    const flow::DecodedUpdate update = decoder_.Decode(message);
    if (update.failure == flow::DecodedUpdate::Failure::kStoreError) {
      ++store_errors_;
      return;
    }
    if (!update.decoded() || update.model->dim() != config_.model_dim) {
      ++decode_failures_;
      return;
    }
    const std::size_t samples =
        message.sample_count > 0 ? message.sample_count : 1;
    round_.push_back({*update.model, samples, message.id.value()});
    round_samples_ += samples;
    if (config_.trigger == cloud::AggregationTrigger::kSampleThreshold &&
        round_samples_ >= config_.sample_threshold) {
      Close(arrival);
    }
  }

  void Replay(std::span<const Delivery> stream) {
    for (const Delivery& delivery : stream) {
      Deliver(delivery.message, delivery.arrival);
    }
  }

  /// Publishes the open round at `when` (a scheduled tick, AggregateNow, a
  /// deadline commit). False when nothing was admitted or max_rounds is
  /// reached, exactly when the service declines to publish.
  bool Close(SimTime when) {
    if (round_.empty()) return false;
    if (config_.max_rounds != 0 && history_.size() >= config_.max_rounds) {
      return false;
    }
    auto model = ml::FedAvg(round_);
    EXPECT_TRUE(model.ok());
    if (!model.ok()) return false;
    cloud::AggregationRecord record;
    record.round = history_.size() + 1;
    record.time = when;
    record.clients = round_.size();
    record.samples = round_samples_;
    history_.push_back(record);
    global_ = std::move(*model);
    published_.push_back(global_);
    round_.clear();
    round_samples_ = 0;
    return true;
  }

  std::size_t messages_received() const { return received_; }
  std::size_t decode_failures() const { return decode_failures_; }
  std::size_t stale_rejections() const { return stale_rejections_; }
  std::size_t store_errors() const { return store_errors_; }
  std::size_t pending_samples() const { return round_samples_; }
  std::size_t pending_clients() const { return round_.size(); }
  const std::vector<cloud::AggregationRecord>& history() const {
    return history_;
  }
  /// Every published global model, one per history() entry.
  const std::vector<ml::LrModel>& published() const { return published_; }
  const ml::LrModel& global_model() const { return global_; }

 private:
  cloud::BlobModelDecoder decoder_;
  cloud::AggregationConfig config_;
  std::vector<ml::ClientUpdate> round_;
  std::size_t round_samples_ = 0;
  std::size_t received_ = 0;
  std::size_t decode_failures_ = 0;
  std::size_t stale_rejections_ = 0;
  std::size_t store_errors_ = 0;
  std::vector<cloud::AggregationRecord> history_;
  std::vector<ml::LrModel> published_;
  ml::LrModel global_;
};

/// Bit-level model equality: every weight and the bias, compared as raw
/// IEEE bits.
inline void ExpectSameBits(const ml::LrModel& a, const ml::LrModel& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::uint32_t i = 0; i < a.dim(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.weights()[i]),
              std::bit_cast<std::uint32_t>(b.weights()[i]))
        << "weight " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a.bias()),
            std::bit_cast<std::uint32_t>(b.bias()));
}

/// The oracle gate: `service` (whose published models live in `store`)
/// matches `reference` on every counter, every AggregationRecord, the open
/// round's totals, and every bit of every published model.
inline void ExpectMatchesReference(const cloud::AggregationService& service,
                                   const cloud::BlobStore& store,
                                   const ReferenceAggregation& reference) {
  EXPECT_EQ(service.messages_received(), reference.messages_received());
  EXPECT_EQ(service.decode_failures(), reference.decode_failures());
  EXPECT_EQ(service.stale_rejections(), reference.stale_rejections());
  EXPECT_EQ(service.store_errors(), reference.store_errors());
  EXPECT_EQ(service.pending_samples(), reference.pending_samples());
  EXPECT_EQ(service.pending_clients(), reference.pending_clients());
  ASSERT_EQ(service.history().size(), reference.history().size());
  for (std::size_t r = 0; r < reference.history().size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r + 1));
    const cloud::AggregationRecord& got = service.history()[r];
    const cloud::AggregationRecord& want = reference.history()[r];
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.clients, want.clients);
    EXPECT_EQ(got.samples, want.samples);
    auto bytes = store.Get(got.model_blob);
    ASSERT_TRUE(bytes.ok());
    auto published = ml::LrModel::FromBytes(*bytes);
    ASSERT_TRUE(published.ok());
    ExpectSameBits(*published, reference.published()[r]);
  }
  ExpectSameBits(service.global_model(), reference.global_model());
}

}  // namespace simdc::reference
