// Decoded-payload delivery plane.
//
// §V-A messages carry a *reference* to the payload blob (see message.h),
// which makes fetch + decode embarrassingly parallel work: nothing about
// turning a BlobId into an ml::LrModel depends on delivery order, only the
// accumulate does. The decoded plane exploits that seam — dispatchers
// fetch-and-decode speculatively at dispatch-tick time (on shard worker
// threads when fleets are sharded), and the serial cloud side receives
// DecodedUpdates it only has to admit and accumulate. This is the
// parameter-server decode-offload discipline: parallel produce (decode),
// fixed-order reduce (FedAvg).
//
// The decode is *speculative* in two ways, both deliberate:
//   1. It runs before the cloud's staleness verdict, so a stale update is
//      decoded and then discarded. Correctness is unaffected (blobs are
//      immutable once Put) and the wasted decode is parallel-side work.
//   2. Its failure accounting is DEFERRED: a DecodedUpdate carries the
//      error, and the serial accumulate point commits it in delivery
//      order and only after the reject_stale check. A stale message with a
//      corrupt or missing blob therefore counts as a stale rejection,
//      never as a decode failure, no matter when or where it was decoded.
#pragma once

#include <memory>

#include "common/error.h"
#include "flow/message.h"
#include "ml/lr_model.h"

namespace simdc::flow {

/// A device→cloud message whose payload blob has already been fetched and
/// decoded — or whose fetch/decode failed, with the failure captured for
/// deferred, delivery-ordered accounting at the serial accumulate point.
struct DecodedUpdate {
  /// Where the speculative fetch + decode gave up (kNone on success).
  /// kMissingBlob is strictly "the store answered kNotFound" (reclaimed or
  /// never-written payload); kStoreError is any other store failure (an
  /// I/O fault from the durability plane) — the two are accounted in
  /// different counters at the serial commit point.
  enum class Failure { kNone, kMissingBlob, kUndecodable, kStoreError };

  Message message;
  /// Decoded payload model; nullptr when failure != kNone. Shared ownership
  /// keeps the update cheap to buffer and re-queue through the merge plane.
  std::shared_ptr<const ml::LrModel> model;
  Failure failure = Failure::kNone;
  /// Failure detail for the warning the serial side logs on commit.
  Status error = Status::Ok();

  bool decoded() const { return model != nullptr; }
};

/// Fetch-and-decode seam between the flow plane and payload storage.
/// Implementations MUST be safe to call concurrently: sharded fleets decode
/// from N shard loops advancing in parallel on the worker pool
/// (sim::LockstepGroup). The canonical implementation is
/// cloud::BlobModelDecoder (shared-ownership blob fetch + LrModel decode).
class PayloadDecoder {
 public:
  virtual ~PayloadDecoder() = default;

  /// Fetches and decodes `message`'s payload blob, consuming the message
  /// into the returned update. Never throws on bad payloads — failures are
  /// data, carried to the serial accumulate point.
  virtual DecodedUpdate Decode(Message message) const = 0;
};

}  // namespace simdc::flow
