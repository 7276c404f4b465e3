// Canonical flow::PayloadDecoder over cloud storage: shared-ownership blob
// fetch (BlobStore::GetShared — no payload copy) + ml::LrModel decode.
//
// This is the shard-side half of the decoded payload plane (§V-A storage
// references make decode order-free work): dispatchers call Decode at
// dispatch-tick time, concurrently from N shard loops when fleets advance
// in lockstep on the worker pool. Thread safety: BlobStore is internally
// locked and blobs are immutable once Put; the decoder's only state, the
// base model, is set in serial phases (round start, publish, restore) and
// only read while shard loops decode.
//
// With a base set (the round's published global model), an untagged fp32
// payload of the base's dimension is compared to it bit-for-bit and, when
// at most dim/8 words differ, decoded relative to it (see
// flow::DecodedUpdate) — no O(dim) model is allocated or copied. Every
// other payload, and every malformed one, takes the dense FromBytesShared
// path, which owns the error texts and the failure split.
#pragma once

#include <memory>

#include "cloud/storage.h"
#include "flow/decoded_update.h"

namespace simdc::cloud {

class BlobModelDecoder final : public flow::PayloadDecoder {
 public:
  explicit BlobModelDecoder(const BlobStore& storage) : storage_(&storage) {}

  /// Never logs and never counts: failures are carried inside the update
  /// so the serial accumulate point can commit them after the staleness
  /// verdict, in delivery order (see flow::DecodedUpdate).
  flow::DecodedUpdate Decode(flow::Message message) const override;

  /// Base for relative decodes (nullptr: every payload decodes densely).
  /// Call only while no Decode is running.
  void set_base(std::shared_ptr<const ml::LrModel> base) {
    base_ = std::move(base);
  }

 private:
  const BlobStore* storage_;
  std::shared_ptr<const ml::LrModel> base_;
};

}  // namespace simdc::cloud
