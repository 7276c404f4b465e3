// Unit tests for the cloud services: blob storage, metrics database, and
// the aggregation service with both triggers, checked against the
// test-side FedAvg oracle (reference_aggregation.h).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <thread>

#include "cloud/aggregation.h"
#include "common/thread_pool.h"
#include "cloud/database.h"
#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "ml/lr_model.h"
#include "reference_aggregation.h"
#include "sim/event_loop.h"

namespace simdc::cloud {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ---------- BlobStore ----------

TEST(BlobStoreTest, PutGetDelete) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3}));
  EXPECT_TRUE(store.Contains(id));
  auto blob = store.Get(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 3u);
  EXPECT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  EXPECT_FALSE(store.Get(id).ok());
  EXPECT_FALSE(store.Delete(id).ok());
}

TEST(BlobStoreTest, DistinctIds) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1}));
  const BlobId b = store.Put(Bytes({1}));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.blob_count(), 2u);
}

TEST(BlobStoreTest, ByteAccounting) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1, 2, 3, 4}));
  store.Put(Bytes({5, 6}));
  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_EQ(store.bytes_written(), 6u);
  (void)store.Get(a);
  EXPECT_EQ(store.bytes_read(), 4u);
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_EQ(store.total_bytes(), 2u);
  EXPECT_EQ(store.bytes_written(), 6u);  // cumulative
}

TEST(BlobStoreTest, GetSharedAliasesWithoutCopy) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3, 4}));
  auto a = store.GetShared(id);
  auto b = store.GetShared(id);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both reads alias the one stored buffer — the whole point of the
  // shared-ownership hot path.
  EXPECT_EQ(a->data(), b->data());
  EXPECT_EQ(a->owner(), b->owner());
  EXPECT_EQ(a->size(), 4u);
  EXPECT_EQ(store.bytes_read(), 8u);  // still accounted per read
  EXPECT_FALSE(store.GetShared(BlobId(99)).ok());
}

TEST(BlobStoreTest, SharedBlobSurvivesDelete) {
  // A reader holding a SharedBlob must keep its bytes valid (and
  // bit-stable) across a concurrent Delete — the decode plane may still
  // be chewing on a blob the serial plane garbage-collects.
  BlobStore store;
  const BlobId id = store.Put(Bytes({7, 8, 9}));
  auto blob = store.GetShared(id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  ASSERT_EQ(blob->size(), 3u);
  EXPECT_EQ((*blob)[0], static_cast<std::byte>(7));
}

TEST(BlobStoreTest, PutPooledRoundTrip) {
  BlobStore store;
  const auto bytes = Bytes({10, 20, 30, 40, 50});
  const BlobId id = store.PutPooled(bytes);
  EXPECT_TRUE(store.Contains(id));
  auto copy = store.Get(id);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, bytes);
  EXPECT_EQ(store.bytes_written(), bytes.size());
  EXPECT_EQ(store.total_bytes(), bytes.size());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(BlobStoreTest, PooledBlobsShareArenaBlocks) {
  // Consecutive pooled puts bump-allocate out of the same slab: one heap
  // block for many blobs is the whole point of the arena path.
  BlobStore store;
  const BlobId a = store.PutPooled(Bytes({1, 2, 3}));
  const BlobId b = store.PutPooled(Bytes({4, 5}));
  EXPECT_EQ(store.arena_blocks_created(), 1u);
  auto sa = store.GetShared(a);
  auto sb = store.GetShared(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->owner(), sb->owner());  // same backing slab
  // Deleting one blob leaves its neighbors readable and intact.
  ASSERT_TRUE(store.Delete(a).ok());
  auto again = store.Get(b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], static_cast<std::byte>(4));
}

TEST(BlobStoreTest, ReclaimArenaWhileSharedBlobHeld) {
  // The reset-while-held hazard: a reader still holding a SharedBlob into
  // an arena block must keep its bytes valid across Delete + ReclaimArena;
  // the block is only recycled once the last holder lets go.
  BlobStore store;
  const auto bytes = Bytes({42, 43, 44});
  const BlobId id = store.PutPooled(bytes);
  auto held = store.GetShared(id);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.ReclaimArena(), 0u);  // held: must NOT be recycled
  EXPECT_EQ(held->size(), 3u);
  EXPECT_EQ((*held)[0], static_cast<std::byte>(42));
  EXPECT_EQ((*held)[2], static_cast<std::byte>(44));
  *held = SharedBlob();  // drop the last reference
  EXPECT_EQ(store.ReclaimArena(), 1u);
  EXPECT_EQ(store.arena_blocks_recycled(), 1u);
  // The recycled block serves the next pooled put: no new slab.
  (void)store.PutPooled(bytes);
  EXPECT_EQ(store.arena_blocks_created(), 1u);
}

TEST(BlobStoreTest, SharedBlobOutlivesStoreDestruction) {
  SharedBlob standalone;
  SharedBlob pooled;
  {
    BlobStore store;
    auto a = store.GetShared(store.Put(Bytes({1, 2})));
    auto b = store.GetShared(store.PutPooled(Bytes({3, 4})));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    standalone = *a;
    pooled = *b;
  }
  EXPECT_EQ(standalone[1], static_cast<std::byte>(2));
  EXPECT_EQ(pooled[0], static_cast<std::byte>(3));
}

TEST(BlobStoreConcurrencyTest, ConcurrentPutGetDeleteStress) {
  // N writers Put/Delete while N readers Get/GetShared and decode — the
  // exact concurrency shape of the decoded payload plane (shard workers
  // fetch + decode while the serial plane publishes new globals). Run
  // under ASan/UBSan in CI, this is the data-race gate for BlobStore.
  BlobStore store;
  constexpr int kWriters = 3;
  constexpr int kReaders = 4;
  constexpr int kBlobsPerWriter = 200;
  ml::LrModel model(64);
  model.weights()[0] = 1.5f;
  const auto payload = model.ToBytes();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_id{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBlobsPerWriter; ++i) {
        const BlobId id = store.Put(payload);
        std::uint64_t seen = max_id.load(std::memory_order_relaxed);
        while (seen < id.value() &&
               !max_id.compare_exchange_weak(seen, id.value(),
                                             std::memory_order_relaxed)) {
        }
        if (i % 3 == 0) (void)store.Delete(id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t probe = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t ceiling = max_id.load(std::memory_order_relaxed);
        if (ceiling == 0) continue;
        probe = probe % ceiling + 1;
        if (r % 2 == 0) {
          auto blob = store.GetShared(BlobId(probe));
          if (blob.ok()) {
            auto decoded = ml::LrModel::FromBytesShared(blob->span());
            ASSERT_TRUE(decoded.ok());
            ASSERT_EQ((*decoded)->weights()[0], 1.5f);
          }
        } else {
          auto blob = store.Get(BlobId(probe));
          if (blob.ok()) {
            ASSERT_EQ(blob->size(), payload.size());
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  // Two thirds of each writer's blobs survive its own deletes.
  EXPECT_GT(store.blob_count(), 0u);
  EXPECT_EQ(store.bytes_written(),
            payload.size() * kWriters * kBlobsPerWriter);
}

// ---------- MetricsDatabase ----------

device::PerfSample Sample(TaskId task, PhoneId phone, double t_s,
                          device::ApkStage stage, double current_ma,
                          std::int64_t bandwidth) {
  device::PerfSample s;
  s.task = task;
  s.phone = phone;
  s.time = Seconds(t_s);
  s.stage = stage;
  s.current_ua = -static_cast<std::int64_t>(current_ma * 1000);
  s.voltage_mv = 3850;
  s.cpu_percent = 5.0;
  s.memory_kb = 30000;
  s.bandwidth_bytes = bandwidth;
  return s;
}

TEST(MetricsDatabaseTest, QueryFiltersByTaskAndPhone) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(1), PhoneId(2), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(2), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  EXPECT_EQ(db.QueryTask(TaskId(1)).size(), 2u);
  EXPECT_EQ(db.QueryPhone(TaskId(1), PhoneId(2)).size(), 1u);
  EXPECT_EQ(db.sample_count(), 3u);
}

TEST(MetricsDatabaseTest, StageAggregationIntegratesEnergy) {
  MetricsDatabase db;
  // 10 samples 1 s apart at 360 mA → 360 mA · 10 s = 1 mAh.
  for (int i = 0; i <= 10; ++i) {
    db.Record(Sample(TaskId(1), PhoneId(1), i, device::ApkStage::kTraining,
                     360.0, 1024 * i));
  }
  const auto stages = db.AggregateStages(TaskId(1), PhoneId(1));
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, device::ApkStage::kTraining);
  EXPECT_NEAR(stages[0].energy_mah, 1.1, 0.05);  // 11 samples × 1 s
  EXPECT_NEAR(stages[0].comm_kb, 10.0, 0.01);
  EXPECT_EQ(stages[0].samples, 11u);
}

TEST(MetricsDatabaseTest, AverageStagesAcrossPhones) {
  MetricsDatabase db;
  for (int phone = 1; phone <= 2; ++phone) {
    const double ma = phone == 1 ? 100.0 : 300.0;
    for (int i = 0; i <= 5; ++i) {
      db.Record(Sample(TaskId(1), PhoneId(phone), i,
                       device::ApkStage::kTraining, ma, 0));
    }
  }
  const auto avg = db.AverageStages(TaskId(1), {PhoneId(1), PhoneId(2)});
  ASSERT_EQ(avg.size(), 1u);
  // Mean of per-phone energies: (100+300)/2 mA over 6 s.
  EXPECT_NEAR(avg[0].energy_mah, 200.0 * 6.0 / 3600.0, 0.01);
}

TEST(MetricsDatabaseTest, ScalarSeries) {
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(1), 0.5);
  const auto loss = db.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  EXPECT_TRUE(db.QueryScalar("nope").empty());
}

TEST(MetricsDatabaseTest, ScalarRowsPreserveGlobalInsertionOrder) {
  // Checkpoint replay depends on ScalarRows() returning the rows in the
  // exact order they were recorded, interleaved across series — not
  // grouped by series name.
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("acc", Seconds(1), 0.5);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  const auto rows = db.ScalarRows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(db.scalar_row_count(), 4u);
  EXPECT_EQ(rows[0].series, "loss");
  EXPECT_EQ(rows[1].series, "acc");
  EXPECT_EQ(rows[2].series, "loss");
  EXPECT_EQ(rows[3].series, "acc");
  EXPECT_DOUBLE_EQ(rows[2].value, 0.7);
}

TEST(MetricsDatabaseTest, FlushRestoreRoundTrips) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kTraining,
                   360.0, 1024));
  db.Record(Sample(TaskId(1), PhoneId(2), 1, device::ApkStage::kTraining,
                   200.0, 2048));
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  EXPECT_EQ(db.Flush(), 5u);  // 2 samples + 3 scalar rows

  MetricsDatabase restored;
  restored.Restore(db.Samples(), db.ScalarRows());
  EXPECT_EQ(restored.sample_count(), db.sample_count());
  EXPECT_EQ(restored.scalar_row_count(), db.scalar_row_count());
  EXPECT_EQ(restored.QueryTask(TaskId(1)).size(), 2u);
  const auto loss = restored.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_EQ(loss[0].first, Seconds(1));
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  const auto again = restored.ScalarRows();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].series, "acc");
}

// ---------- AggregationService ----------

using reference::Delivery;
using reference::ExpectMatchesReference;
using reference::ReferenceAggregation;

class AggregationTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDim = 16;

  flow::Message Upload(BlobStore& store, float weight0, std::size_t samples,
                       std::uint64_t id, std::size_t round = 0) {
    ml::LrModel model(kDim);
    model.weights()[0] = weight0;
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = round;
    m.payload = store.Put(model.ToBytes());
    m.sample_count = samples;
    return m;
  }

  /// A message whose payload is `bytes` (typically not a valid model).
  static flow::Message Raw(BlobStore& store, std::vector<std::byte> bytes,
                           std::uint64_t id, std::size_t round = 0) {
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = round;
    m.payload = store.Put(std::move(bytes));
    m.sample_count = 4;
    return m;
  }

  /// A message referencing a blob that was never stored.
  static flow::Message Missing(std::uint64_t id, std::size_t round = 0) {
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = round;
    m.payload = BlobId(1000000 + id);
    m.sample_count = 4;
    return m;
  }

  static AggregationConfig ThresholdConfig(std::size_t threshold,
                                           bool reject_stale = false) {
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = threshold;
    config.reject_stale = reject_stale;
    return config;
  }

  /// Feeds `stream` to `service` as one decoded tick (payloads decoded
  /// upstream, as dispatch ticks do) or message by message through
  /// Deliver (which decodes in the handler).
  static void Feed(AggregationService& service, const BlobStore& store,
                   std::span<const Delivery> stream, bool per_message) {
    if (per_message) {
      for (const Delivery& delivery : stream) {
        service.Deliver(delivery.message, delivery.arrival);
      }
      return;
    }
    BlobModelDecoder decoder(store);
    std::vector<flow::DecodedUpdate> updates;
    std::vector<SimTime> arrivals;
    for (const Delivery& delivery : stream) {
      updates.push_back(decoder.Decode(delivery.message));
      arrivals.push_back(delivery.arrival);
    }
    service.DeliverDecodedBatch(updates, arrivals);
  }

  /// Runs `stream` through a fresh service (both delivery entry points)
  /// and through the oracle, and asserts they agree — then, with
  /// `close_open_round`, publishes the open round on both and asserts
  /// again. Returns the oracle as of the end of the stream.
  ReferenceAggregation ExpectStreamMatchesReference(
      BlobStore& store, const AggregationConfig& config,
      std::span<const Delivery> stream, ThreadPool* pool = nullptr,
      bool close_open_round = false) {
    ReferenceAggregation reference(store, config);
    reference.Replay(stream);
    for (const bool per_message : {false, true}) {
      SCOPED_TRACE(per_message ? "Deliver" : "DeliverDecodedBatch");
      AggregationService service(loop_, store, config);
      service.set_thread_pool(pool);
      Feed(service, store, stream, per_message);
      ExpectMatchesReference(service, store, reference);
      if (!close_open_round) continue;
      ReferenceAggregation closed = reference;
      EXPECT_TRUE(closed.Close(loop_.Now()));
      EXPECT_TRUE(service.AggregateNow());
      ExpectMatchesReference(service, store, closed);
    }
    return reference;
  }

  /// Failure-mix stream, one message per second: `valid_count` valid
  /// updates of varied magnitude and sample count, interleaved with a
  /// corrupt blob, a missing blob, a wrong-dimension model and a payload
  /// whose read faults (store error). With `stale`, always-stale updates
  /// carrying valid, corrupt and missing payloads ride along. Fresh
  /// messages carry the round the oracle has reached when they arrive, so
  /// reject_stale admits them.
  std::vector<Delivery> MixedStream(BlobStore& store,
                                    const AggregationConfig& config,
                                    std::size_t valid_count, bool stale) {
    auto faulted = std::make_shared<std::vector<BlobId>>();
    store.set_read_fault_hook([faulted](BlobId id) -> Status {
      for (const BlobId bad : *faulted) {
        if (bad == id) return Unavailable("injected read fault");
      }
      return Status::Ok();
    });
    ReferenceAggregation labeler(store, config);
    std::vector<Delivery> stream;
    std::uint64_t id = 1;
    auto push = [&](flow::Message m, bool fresh) {
      if (fresh) m.round = labeler.history().size();
      const Delivery delivery{std::move(m),
                              Seconds(static_cast<double>(id))};
      labeler.Deliver(delivery.message, delivery.arrival);
      stream.push_back(delivery);
      ++id;
    };
    constexpr std::size_t kStaleRound = 999;
    for (std::size_t k = 0; k < valid_count; ++k) {
      const float w = static_cast<float>((k % 17) * 1000.0 - 8000.0) +
                      static_cast<float>(k) * 1e-4f;
      push(Upload(store, w, 1 + k % 7, id), true);
      if (k == valid_count / 5) push(Raw(store, Bytes({1, 2, 3}), id), true);
      if (k == valid_count / 4) push(Missing(id), true);
      if (k == valid_count / 3) {
        push(Raw(store, ml::LrModel(kDim * 2).ToBytes(), id), true);
      }
      if (k == valid_count / 2) {
        flow::Message io_fault = Upload(store, 5.0f, 3, id);
        faulted->push_back(io_fault.payload);
        push(std::move(io_fault), true);
      }
      if (!stale) continue;
      if (k % 10 == 3) push(Upload(store, w, 2, id, kStaleRound), false);
      if (k % 10 == 6) {
        push(Raw(store, Bytes({9, 9}), id, kStaleRound), false);
      }
      if (k % 10 == 8) push(Missing(id, kStaleRound), false);
    }
    return stream;
  }

  sim::EventLoop loop_;
  BlobStore store_;
};

TEST_F(AggregationTest, SampleThresholdTriggers) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 30;
  AggregationService service(loop_, store_, config);
  service.Start();

  service.Deliver(Upload(store_, 1.0f, 10, 1), 0);
  service.Deliver(Upload(store_, 2.0f, 10, 2), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);  // 20 < 30
  service.Deliver(Upload(store_, 3.0f, 10, 3), 0);
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_NEAR(service.global_model().weights()[0], 2.0, 1e-6);
  EXPECT_EQ(service.history()[0].clients, 3u);
  EXPECT_EQ(service.history()[0].samples, 30u);
  EXPECT_EQ(service.pending_samples(), 0u);  // aggregator reset
}

TEST_F(AggregationTest, BatchedDeliveryMatchesPerMessage) {
  // One tick crossing the sample threshold mid-batch must publish exactly
  // what the per-message reference publishes, and the round timestamp
  // must be the *triggering message's* arrival, not the tick's time.
  std::vector<Delivery> stream;
  for (std::uint64_t i = 0; i < 5; ++i) {
    stream.push_back({Upload(store_, static_cast<float>(i + 1), 10, i + 1),
                      Seconds(1.0 + static_cast<double>(i))});
  }
  const ReferenceAggregation reference =
      ExpectStreamMatchesReference(store_, ThresholdConfig(30), stream);
  ASSERT_EQ(reference.history().size(), 1u);
  EXPECT_EQ(reference.history()[0].time, Seconds(3.0));  // third message
  EXPECT_EQ(reference.pending_clients(), 2u);
}

TEST_F(AggregationTest, ScheduledTriggerFiresPeriodically) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(10.0);
  config.max_rounds = 3;
  AggregationService service(loop_, store_, config);
  service.Start();

  // Deliver a couple of updates before each tick.
  for (int round = 0; round < 3; ++round) {
    loop_.ScheduleAt(Seconds(10.0 * round + 1),
                     [&, round] {
                       service.Deliver(
                           Upload(store_, static_cast<float>(round), 5,
                                  static_cast<std::uint64_t>(round * 10 + 1)),
                           loop_.Now());
                     });
  }
  loop_.Run();
  EXPECT_EQ(service.rounds_completed(), 3u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  EXPECT_EQ(service.history()[2].time, Seconds(30.0));
}

TEST_F(AggregationTest, ScheduledTickWithNothingPendingSkips) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(5.0);
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  service.Start();
  loop_.ScheduleAt(Seconds(6.0), [&] {
    service.Deliver(Upload(store_, 1.0f, 5, 1), loop_.Now());
  });
  loop_.RunUntil(Seconds(30.0));
  // First tick (t=5) had nothing; second tick (t=10) aggregated.
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  service.Stop();
  loop_.Run();
}

TEST_F(AggregationTest, MissingBlobCountsAsDecodeFailure) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = BlobId(999);  // never stored
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);
}

TEST_F(AggregationTest, StoreIoErrorBooksAsStoreErrorNotDecodeFailure) {
  // A non-kNotFound store failure (durability-plane I/O fault) must land in
  // store_errors, not decode_failures — the payload exists, the read broke.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const flow::Message good = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  service.Deliver(faulted, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 0u);
  EXPECT_EQ(service.messages_received(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);  // update dropped, not absorbed

  // Healthy deliveries still flow, and a genuinely missing blob still books
  // as a decode failure alongside the I/O fault.
  service.Deliver(good, 0);
  EXPECT_EQ(service.pending_samples(), 10u);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);  // never stored
  missing.sample_count = 5;
  service.Deliver(missing, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, DecoderMapsStoreFaultsToDistinctFailures) {
  // BlobModelDecoder must keep the taxonomy the serial side accounts on:
  // kNotFound → kMissingBlob, any other store error → kStoreError.
  const flow::Message ok_msg = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);
  missing.sample_count = 5;
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  BlobModelDecoder decoder(store_);
  const flow::DecodedUpdate decoded = decoder.Decode(ok_msg);
  EXPECT_TRUE(decoded.decoded());
  EXPECT_EQ(decoded.failure, flow::DecodedUpdate::Failure::kNone);

  const flow::DecodedUpdate io_fault = decoder.Decode(faulted);
  EXPECT_FALSE(io_fault.decoded());
  EXPECT_EQ(io_fault.failure, flow::DecodedUpdate::Failure::kStoreError);
  EXPECT_EQ(io_fault.error.error().code(), ErrorCode::kUnavailable);

  const flow::DecodedUpdate gone = decoder.Decode(missing);
  EXPECT_FALSE(gone.decoded());
  EXPECT_EQ(gone.failure, flow::DecodedUpdate::Failure::kMissingBlob);

  // Decoded deliveries book them into the same counters as Deliver does.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const std::vector<flow::DecodedUpdate> updates = {decoded, io_fault, gone};
  const std::vector<SimTime> arrivals = {0, 0, 0};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 3u);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 10u);
}

TEST_F(AggregationTest, CorruptBlobRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(Bytes({1, 2, 3}));
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, WrongDimensionRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  ml::LrModel other(kDim * 2);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(other.ToBytes());
  m.sample_count = 5;
  service.Deliver(m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, ZeroDimensionBlobIsOneDecodeFailure) {
  // An 8-byte all-zero blob is an fp32 model of dimension 0. The decoder
  // rejects it as undecodable; it books exactly one decode failure, as it
  // did when the dim check caught it, and nothing is staged.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const flow::Message zero_dim = Raw(store_, std::vector<std::byte>(8), 1);
  const flow::DecodedUpdate update = BlobModelDecoder(store_).Decode(zero_dim);
  EXPECT_EQ(update.failure, flow::DecodedUpdate::Failure::kUndecodable);
  service.Deliver(zero_dim, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_clients(), 0u);
}

TEST_F(AggregationTest, PublishesModelBlobAndCallback) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 5;
  AggregationService service(loop_, store_, config);
  std::size_t callbacks = 0;
  service.set_on_aggregate(
      [&](const AggregationRecord& record, const ml::LrModel& model) {
        ++callbacks;
        EXPECT_TRUE(store_.Contains(record.model_blob));
        EXPECT_EQ(model.dim(), kDim);
      });
  service.Deliver(Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(callbacks, 1u);
}

TEST_F(AggregationTest, StopIgnoresFurtherDeliveries) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  AggregationService service(loop_, store_, config);
  service.Stop();
  service.Deliver(Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);
  EXPECT_EQ(service.messages_received(), 0u);
}

TEST_F(AggregationTest, MaxRoundsHonored) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    service.Deliver(Upload(store_, 1.0f, 1, i), 0);
  }
  EXPECT_EQ(service.rounds_completed(), 2u);
}

// ---------- Decoded deliveries vs the oracle ----------

/// Decoded-delivery cases: payloads decoded upstream (or in Deliver) must
/// book every counter in delivery order and publish every bit the
/// per-message oracle does. Pinned by name in the CI sanitizer job.
class AggregationDecodedTest : public AggregationTest {};

TEST_F(AggregationDecodedTest, DecodedBatchMatchesLegacyWithFailures) {
  // Valid updates, a corrupt blob, a missing blob, a wrong-dimension model
  // and a store fault, with threshold crossings mid-batch.
  const AggregationConfig config = ThresholdConfig(30);
  const auto stream = MixedStream(store_, config, 12, /*stale=*/false);
  const ReferenceAggregation reference =
      ExpectStreamMatchesReference(store_, config, stream);
  EXPECT_EQ(reference.decode_failures(), 3u);  // corrupt + missing + dim
  EXPECT_EQ(reference.store_errors(), 1u);
  EXPECT_GE(reference.history().size(), 1u);
}

TEST_F(AggregationDecodedTest, StaleBadPayloadIsStaleNotDecodeFailure) {
  // The accounting-order contract: reject_stale is checked BEFORE the
  // (deferred) decode failure commits, so a stale message with a corrupt
  // or missing payload is a stale rejection — the upstream decode error
  // is never booked.
  const std::vector<Delivery> stream = {
      {Raw(store_, Bytes({9, 9}), 1, /*round=*/7), Seconds(1.0)},
      {Missing(2, /*round=*/9), Seconds(2.0)},
      // Fresh-round bad payloads for contrast: these DO count.
      {Raw(store_, Bytes({1}), 3), Seconds(3.0)},
      {Missing(4), Seconds(4.0)},
  };
  const ReferenceAggregation reference = ExpectStreamMatchesReference(
      store_, ThresholdConfig(30, /*reject_stale=*/true), stream);
  EXPECT_EQ(reference.stale_rejections(), 2u);
  EXPECT_EQ(reference.decode_failures(), 2u);
  EXPECT_EQ(reference.messages_received(), 4u);
}

TEST_F(AggregationDecodedTest, StoppedServiceIgnoresDecodedDeliveries) {
  BlobStore store;
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store, config);
  service.Stop();
  BlobModelDecoder decoder(store);
  const std::vector<flow::DecodedUpdate> updates = {
      decoder.Decode(Upload(store, 1.0f, 5, 1))};
  const std::vector<SimTime> arrivals = {Seconds(1.0)};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 0u);
  EXPECT_EQ(service.decode_failures(), 0u);
}

// ---------- Staged, pooled-flush accumulation vs the oracle ----------

/// The service stages admitted updates and flushes them through per-lane
/// partial aggregators; the oracle adds one round's updates in one
/// ml::FedAvg. Every counter, record and published bit must match.
/// Pinned by name in the CI sanitizer job.
class AggregationPartialSumTest : public AggregationTest {};

TEST_F(AggregationPartialSumTest, MatchesLegacyPlaneAcrossFailuresAndRounds) {
  // Threshold 40 closes several rounds mid-batch; the tail stays staged.
  for (const bool reject_stale : {false, true}) {
    SCOPED_TRACE(reject_stale ? "reject_stale" : "admit stale");
    BlobStore store;
    const AggregationConfig config = ThresholdConfig(40, reject_stale);
    const auto stream = MixedStream(store, config, 64, /*stale=*/true);
    const ReferenceAggregation reference =
        ExpectStreamMatchesReference(store, config, stream);
    EXPECT_GT(reference.history().size(), 1u);
    EXPECT_GT(reference.decode_failures(), 0u);
    EXPECT_EQ(reference.store_errors(), 1u);
    EXPECT_GT(reference.pending_clients(), 0u);
    EXPECT_EQ(reference.stale_rejections() > 0, reject_stale);
  }
}

TEST_F(AggregationPartialSumTest, ParallelFlushMatchesLegacyBitForBit) {
  // More admitted updates per round than the service's flush cap (256), so
  // capacity flushes split every round — serially with no pool, across
  // ThreadPool(4) lanes with one — and the open round is published too.
  ThreadPool pool(4);
  for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(lanes ? "ThreadPool(4)" : "no pool");
    BlobStore store;
    const AggregationConfig config = ThresholdConfig(1500, true);
    const auto stream = MixedStream(store, config, 700, /*stale=*/true);
    const ReferenceAggregation reference = ExpectStreamMatchesReference(
        store, config, stream, lanes, /*close_open_round=*/true);
    ASSERT_GT(reference.history().size(), 0u);
    EXPECT_GT(reference.history()[0].clients, 256u);
    EXPECT_GT(reference.pending_clients(), 256u);
    EXPECT_GT(reference.stale_rejections(), 0u);
  }
}

TEST_F(AggregationPartialSumTest, MidRoundSnapshotRestoreContinuesIdentically) {
  // Cut a snapshot while updates are staged (no flush yet), restore into a
  // fresh service, deliver the rest: the recovered service must publish
  // what the oracle publishes for the uninterrupted stream.
  const AggregationConfig config = ThresholdConfig(500);  // all staged
  const auto stream = MixedStream(store_, config, 40, /*stale=*/true);
  const std::size_t cut = 17;
  const std::span<const Delivery> head(stream.data(), cut);
  const std::span<const Delivery> tail(stream.data() + cut,
                                       stream.size() - cut);

  AggregationService first(loop_, store_, config);
  Feed(first, store_, head, /*per_message=*/false);
  ReferenceAggregation reference(store_, config);
  reference.Replay(head);
  ExpectMatchesReference(first, store_, reference);
  EXPECT_GT(first.pending_clients(), 0u);

  AggregationService recovered(loop_, store_, config);
  recovered.RestoreSnapshot(first.Snapshot());
  EXPECT_EQ(recovered.pending_clients(), first.pending_clients());
  Feed(recovered, store_, tail, /*per_message=*/false);
  reference.Replay(tail);
  EXPECT_TRUE(recovered.AggregateNow());
  EXPECT_TRUE(reference.Close(loop_.Now()));
  ExpectMatchesReference(recovered, store_, reference);
}

TEST_F(AggregationPartialSumTest, QuorumAndAbortSeeStagedUpdates) {
  // The deadline policy must read the combined (flushed + staged) totals:
  // a quorum met purely by staged updates commits, and an abort discards
  // the staged entries.
  sim::EventLoop loop;
  BlobStore store;
  AggregationConfig config = ThresholdConfig(1000000);  // deadline only
  config.round_quorum = 2;
  config.round_deadline = Seconds(10.0);
  config.max_round_extensions = 0;
  AggregationService service(loop, store, config);
  service.OnRoundOpened(0);
  loop.ScheduleAt(Seconds(1.0), [&] {
    const std::vector<Delivery> tick = {
        {Upload(store, 1.0f, 3, 1), Seconds(1.0)},
        {Upload(store, 3.0f, 5, 2), Seconds(1.0)}};
    Feed(service, store, tick, /*per_message=*/false);
  });
  loop.RunUntil(Seconds(11.0));
  // Two staged clients met the quorum at the deadline: degraded commit.
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.deadline_commits(), 1u);
  EXPECT_EQ(service.history()[0].clients, 2u);
  EXPECT_EQ(service.history()[0].samples, 8u);
  EXPECT_EQ(service.pending_samples(), 0u);

  // Next round: one staged update below quorum, no extensions -> abort
  // discards the staged entry.
  bool aborted = false;
  service.set_on_round_aborted([&](SimTime) { aborted = true; });
  service.OnRoundOpened(Seconds(11.0));
  loop.ScheduleAt(Seconds(12.0), [&] {
    const std::vector<Delivery> tick = {
        {Upload(store, 2.0f, 4, 3), Seconds(12.0)}};
    Feed(service, store, tick, /*per_message=*/false);
  });
  loop.RunUntil(Seconds(30.0));
  EXPECT_TRUE(aborted);
  EXPECT_EQ(service.aborted_rounds(), 1u);
  EXPECT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);
  EXPECT_EQ(service.pending_clients(), 0u);
}

}  // namespace
}  // namespace simdc::cloud
