// Fault suite for delta-snapshot publishing and the online fold-in
// updater (ctest labels `chaos` + `delta_fault`):
//
//  - delta format round trip: manifest chains base_version -> version,
//    carries only the changed shards, and applies bit-exactly;
//  - base-version mismatch (stale / out-of-order / duplicate delta) is
//    refused with kFailedPrecondition and a "delta_rejected" journal
//    event — never half-applied, no breaker feedback;
//  - per-shard delta corruption: a corrupt changed shard whose range the
//    base covers keeps the base's rows (stale, partial_degraded serving on
//    *old* data); a corrupt brand-new shard quarantines; every changed
//    shard corrupt refuses the delta outright;
//  - mid-publish crash (truncation): the base snapshot stays live and the
//    retried intact publish recovers;
//  - delta lag past max_snapshot_staleness_ms trips the existing
//    staleness watchdog; `serve_snapshot_delta_lag_ms` tracks the lag;
//  - the 8-outcome serve accounting identity holds exactly throughout;
//  - cold-start fold-in: a brand-new user/item gets real (non-popularity)
//    recommendations after one delta publish;
//  - the updater's ingest accounting (kept + quarantined == total) and
//    bit-identical kill-and-resume through Checkpoint/Restore.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/ingest.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/online_updater.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

constexpr int64_t kUsers = 10;
constexpr int64_t kItems = 30;
constexpr int64_t kDim = 4;
constexpr int64_t kIps = 8;  // Shards [0,8) [8,16) [16,24) [24,30).
constexpr int64_t kShards = 4;
constexpr int64_t kBaseVersion = 1;

Tensor MakeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      values[static_cast<size_t>(r * cols + c)] =
          scale * static_cast<float>((r * 7 + c * 3) % 11 - 5);
    }
  }
  return Tensor(rows, cols, std::move(values));
}

Tensor UserTable() { return MakeTable(kUsers, kDim, 0.25f); }
Tensor ItemTable() { return MakeTable(kItems, kDim, -0.5f); }

std::string WriteBase(const char* name, int64_t version = kBaseVersion) {
  const std::string path = TestTempPath(name);
  ShardedSnapshotOptions options;
  options.items_per_shard = kIps;
  options.version = version;
  Status status =
      WriteShardedSnapshot(path, UserTable(), ItemTable(), options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

void FlipByteOnDisk(const std::string& path, int64_t offset,
                    unsigned char mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  ASSERT_TRUE(file.good());
  byte = static_cast<char>(byte ^ mask);
  file.seekp(offset);
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

double GaugeValue(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [gauge_name, value] : snapshot.gauges) {
    if (gauge_name == name) return value;
  }
  return 0.0;
}

/// Asserts the extended 10-outcome accounting identity with equality.
void ExpectAccountingIdentity(const MetricsSnapshot& ms) {
  EXPECT_EQ(ms.CounterValue("serve_requests_total"),
            ms.CounterValue("serve_requests_ok_total") +
                ms.CounterValue("serve_requests_degraded_total") +
                ms.CounterValue("serve_requests_partial_degraded_total") +
                ms.CounterValue("serve_requests_shed_total") +
                ms.CounterValue("serve_requests_shed_queue_delay_total") +
                ms.CounterValue("serve_requests_shed_predicted_late_total") +
                ms.CounterValue("serve_requests_deadline_exceeded_total") +
                ms.CounterValue("serve_requests_invalid_total") +
                ms.CounterValue("serve_requests_error_total") +
                ms.CounterValue("serve_requests_cancelled_total"));
}

RecServiceOptions DeltaServiceOptions(MetricsRegistry* metrics,
                                      RunJournal* journal) {
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.load_backoff.max_attempts = 1;
  options.sleep_ms = [](double) {};
  options.metrics = metrics;
  options.journal = journal;
  return options;
}

std::shared_ptr<const PopularityRanker> DeltaFallback() {
  // Item degree decays with id, so the popularity order is 0, 1, 2, ...
  EdgeList train;
  for (int64_t i = 0; i < kItems; ++i) {
    for (int64_t d = 0; d < kItems - i; ++d) {
      train.push_back({d % kUsers, i});
    }
  }
  return std::make_shared<PopularityRanker>(kItems, train);
}

RecRequest RangeReq(int64_t user, int64_t top_k, int64_t begin, int64_t end) {
  RecRequest request;
  request.user = user;
  request.top_k = top_k;
  request.deadline_ms = -1.0;
  request.item_begin = begin;
  request.item_end = end;
  return request;
}

/// Seeds an updater from `base_path` with an empty seen set: untouched
/// factor rows stay bit-identical to the base tables, which the stale /
/// containment tests compare against.
std::unique_ptr<OnlineUpdater> SeedUpdater(
    const std::string& base_path, const OnlineUpdaterOptions& options = {}) {
  auto updater = OnlineUpdater::FromSnapshot(base_path, {}, options);
  EXPECT_TRUE(updater.ok()) << updater.status().ToString();
  return std::move(updater).value();
}

class DeltaFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Delta format round trip + version chain

TEST_F(DeltaFaultTest, DeltaRoundTripCarriesOnlyChangedShards) {
  const std::string base = WriteBase("df_roundtrip_base.snap");
  auto updater = SeedUpdater(base);
  EXPECT_EQ(updater->published_version(), kBaseVersion);
  // Touch one item in shard 0 and one in shard 2.
  ASSERT_TRUE(updater->AddInteractions({{1, 2}, {3, 17}}).ok());
  EXPECT_EQ(updater->pending_edges(), 2);
  ASSERT_TRUE(updater->ApplyPending().ok());
  EXPECT_EQ(updater->pending_edges(), 0);
  EXPECT_EQ(updater->dirty_shard_count(), 2);

  const std::string delta = TestTempPath("df_roundtrip.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());
  EXPECT_EQ(updater->published_version(), kBaseVersion + 1);
  EXPECT_EQ(updater->dirty_shard_count(), 0);
  EXPECT_TRUE(IsDeltaSnapshotFile(delta));
  EXPECT_FALSE(IsShardedSnapshotFile(delta));
  EXPECT_FALSE(IsDeltaSnapshotFile(base));

  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const DeltaManifest& m = manifest.value();
  EXPECT_EQ(m.base_version, kBaseVersion);
  EXPECT_EQ(m.version, kBaseVersion + 1);
  EXPECT_EQ(m.num_users, kUsers);
  EXPECT_EQ(m.num_items, kItems);
  EXPECT_EQ(m.dim, kDim);
  EXPECT_EQ(m.items_per_shard, kIps);
  ASSERT_EQ(m.num_changed_shards(), 2);
  EXPECT_EQ(m.changed_shards[0].shard_index, 0);
  EXPECT_EQ(m.changed_shards[1].shard_index, 2);
  EXPECT_EQ(m.changed_shards[0].shard.begin, 0);
  EXPECT_EQ(m.changed_shards[0].shard.end, 8);
  EXPECT_EQ(m.changed_shards[1].shard.begin, 16);
  EXPECT_EQ(m.changed_shards[1].shard.end, 24);

  auto loaded = LoadDeltaSnapshot(delta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().corrupt_count, 0);
  ASSERT_EQ(loaded.value().shard_ok.size(), 2u);
  EXPECT_EQ(loaded.value().shard_ok[0], 1);
  EXPECT_EQ(loaded.value().shard_ok[1], 1);

  // Applying the delta yields a complete snapshot: changed rows updated,
  // untouched shards bit-identical to the base, full lineage recorded.
  auto base_snap = EmbeddingSnapshot::Load(base);
  ASSERT_TRUE(base_snap.ok());
  // A bare Load leaves the publish-side version at 0; anchor it to the
  // manifest lineage the way RecService does before chaining deltas.
  base_snap.value()->set_version(base_snap.value()->parent_version());
  auto applied = EmbeddingSnapshot::ApplyDelta(base_snap.value(), delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const EmbeddingSnapshot& next = *applied.value();
  EXPECT_EQ(next.version(), kBaseVersion + 1);
  EXPECT_EQ(next.base_version(), kBaseVersion);
  EXPECT_EQ(next.parent_version(), kBaseVersion + 1);
  EXPECT_EQ(next.quarantined_count(), 0);
  EXPECT_EQ(next.stale_count(), 0);
  const Tensor base_items = ItemTable();
  bool touched_changed = false;
  for (int64_t d = 0; d < kDim; ++d) {
    // Item 5 (shard 0, untouched) rides along in its changed shard but
    // keeps its base factors; items in never-shipped shards 1 and 3 are
    // bit-identical to the base; item 17's solved row differs.
    EXPECT_EQ(next.item(5)[d], base_items.data()[5 * kDim + d]);
    EXPECT_EQ(next.item(9)[d], base_items.data()[9 * kDim + d]);
    EXPECT_EQ(next.item(29)[d], base_items.data()[29 * kDim + d]);
    if (next.item(17)[d] != base_items.data()[17 * kDim + d]) {
      touched_changed = true;
    }
  }
  EXPECT_TRUE(touched_changed);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST_F(DeltaFaultTest, PublishDeltaRefusesWhenNothingChanged) {
  const std::string base = WriteBase("df_nothing_base.snap");
  auto updater = SeedUpdater(base);
  Status status = updater->PublishDelta(TestTempPath("df_nothing.delta"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(base.c_str());
}

// ---------------------------------------------------------------------------
// Base-version mismatch: stale / out-of-order / duplicate deltas

TEST_F(DeltaFaultTest, StaleAndOutOfOrderDeltasAreRefusedNeverHalfApplied) {
  const std::string journal_path = TestTempPath("df_order.journal");
  RunJournal journal(journal_path);
  MetricsRegistry metrics;
  RecService service(DeltaFallback(),
                     DeltaServiceOptions(&metrics, &journal));
  const std::string base = WriteBase("df_order_base.snap");
  ASSERT_TRUE(service.LoadSnapshot(base).ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion);

  auto updater = SeedUpdater(base);
  const std::string delta1 = TestTempPath("df_order_1.delta");
  const std::string delta2 = TestTempPath("df_order_2.delta");
  ASSERT_TRUE(updater->AddInteractions({{1, 2}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  ASSERT_TRUE(updater->PublishDelta(delta1).ok());  // Chains 1 -> 2.
  ASSERT_TRUE(updater->AddInteractions({{4, 11}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  ASSERT_TRUE(updater->PublishDelta(delta2).ok());  // Chains 2 -> 3.

  // Out of order: delta2 arrives first. Refused, live snapshot untouched.
  Status out_of_order = service.LoadDelta(delta2);
  EXPECT_EQ(out_of_order.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion);

  // In order applies; the duplicate replay of delta1 is then stale.
  ASSERT_TRUE(service.LoadDelta(delta1).ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion + 1);
  Status duplicate = service.LoadDelta(delta1);
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion + 1);
  ASSERT_TRUE(service.LoadDelta(delta2).ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion + 2);

  EXPECT_EQ(service.stats().rejected_deltas, 2);
  EXPECT_EQ(service.stats().delta_publishes, 2);
  // Rejections feed no failure into the breaker: never degraded.
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
  MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(ms.CounterValue("serve_delta_rejected_total"), 2);
  EXPECT_EQ(ms.CounterValue("serve_delta_publishes_total"), 2);

  ASSERT_TRUE(journal.Flush().ok());
  const std::string contents = ReadFileBytes(journal_path);
  EXPECT_NE(contents.find("\"event\":\"delta_rejected\""), std::string::npos);
  EXPECT_NE(contents.find("\"base_version\":2"), std::string::npos);
  EXPECT_NE(contents.find("\"event\":\"delta_publish\""), std::string::npos);

  for (const auto& p : {base, delta1, delta2}) std::remove(p.c_str());
  std::remove(journal_path.c_str());
}

TEST_F(DeltaFaultTest, DeltaWithoutLiveSnapshotIsRefused) {
  MetricsRegistry metrics;
  RecService service(DeltaFallback(), DeltaServiceOptions(&metrics, nullptr));
  const std::string delta = TestTempPath("df_nolive.delta");
  ASSERT_TRUE(WriteDeltaSnapshot(delta, UserTable(), ItemTable(), {1},
                                 {kIps, kBaseVersion, kBaseVersion + 1})
                  .ok());
  Status status = service.LoadDelta(delta);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.stats().rejected_deltas, 1);
  std::remove(delta.c_str());
}

// ---------------------------------------------------------------------------
// Per-shard delta corruption: stale containment on covered ranges

TEST_F(DeltaFaultTest, CorruptDeltaShardKeepsOldRowsAndServesStale) {
  const std::string journal_path = TestTempPath("df_stale.journal");
  RunJournal journal(journal_path);
  const std::string base = WriteBase("df_stale_base.snap");
  auto updater = SeedUpdater(base);
  ASSERT_TRUE(updater->AddInteractions({{1, 2}, {3, 17}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta = TestTempPath("df_stale.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());

  // Corrupt the payload of changed shard 2 ([16, 24)); shard 0 stays good.
  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest.value().num_changed_shards(), 2);
  ASSERT_EQ(manifest.value().changed_shards[1].shard_index, 2);
  FlipByteOnDisk(delta,
                 manifest.value().changed_shards[1].shard.byte_offset + 3,
                 0x20);

  MetricsRegistry metrics;
  RecService service(DeltaFallback(),
                     DeltaServiceOptions(&metrics, &journal));
  ASSERT_TRUE(service.LoadSnapshot(base).ok());
  ASSERT_TRUE(service.LoadDelta(delta).ok());
  const std::shared_ptr<const EmbeddingSnapshot> snapshot =
      service.snapshot();
  EXPECT_EQ(snapshot->version(), kBaseVersion + 1);
  EXPECT_EQ(snapshot->quarantined_count(), 0);
  EXPECT_EQ(snapshot->stale_count(), 1);
  EXPECT_TRUE(snapshot->shard_stale(2));
  ASSERT_EQ(snapshot->StaleRanges().size(), 1u);
  EXPECT_EQ(snapshot->StaleRanges()[0].first, 16);
  EXPECT_EQ(snapshot->StaleRanges()[0].second, 24);

  // The stale shard serves the base's *old* rows bit-identically — real
  // data one publish behind, not zeros, not backfill.
  const Tensor base_items = ItemTable();
  for (int64_t i = 16; i < 24; ++i) {
    EXPECT_TRUE(snapshot->item_available(i));
    for (int64_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(snapshot->item(i)[d], base_items.data()[i * kDim + d]);
    }
  }

  // A request confined to fresh shards: served normally. Requests touching
  // the stale range: real scores, honestly flagged partial_degraded.
  RecResponse fresh = service.Recommend(RangeReq(1, 5, 0, 16));
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.partial_degraded);
  RecResponse stale = service.Recommend(RangeReq(1, 5, 16, 24));
  ASSERT_TRUE(stale.status.ok());
  EXPECT_TRUE(stale.partial_degraded);
  for (const ScoredItem& item : stale.items) {
    EXPECT_EQ(item.score, snapshot->Score(1, item.item));
  }
  RecResponse full = service.Recommend(RangeReq(2, 10, 0, 0));
  ASSERT_TRUE(full.status.ok());
  EXPECT_TRUE(full.partial_degraded);

  MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(ms.CounterValue("serve_requests_total"), 3);
  EXPECT_EQ(ms.CounterValue("serve_requests_ok_total"), 1);
  EXPECT_EQ(ms.CounterValue("serve_requests_partial_degraded_total"), 2);
  ExpectAccountingIdentity(ms);
  EXPECT_EQ(GaugeValue(ms, "serve_snapshot_stale_shards"), 1.0);

  ASSERT_TRUE(journal.Flush().ok());
  const std::string contents = ReadFileBytes(journal_path);
  EXPECT_NE(contents.find("\"event\":\"delta_publish\""), std::string::npos);
  EXPECT_NE(contents.find("\"stale_shards\":1"), std::string::npos);

  // Self-heal: the next delta that ships shard 2 intact replaces the stale
  // rows and the partial flag clears.
  ASSERT_TRUE(updater->AddInteractions({{4, 17}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string heal = TestTempPath("df_stale_heal.delta");
  ASSERT_TRUE(updater->PublishDelta(heal).ok());
  ASSERT_TRUE(service.LoadDelta(heal).ok());
  EXPECT_EQ(service.snapshot()->stale_count(), 0);
  RecResponse healed = service.Recommend(RangeReq(1, 5, 16, 24));
  ASSERT_TRUE(healed.status.ok());
  EXPECT_FALSE(healed.partial_degraded);
  EXPECT_EQ(GaugeValue(metrics.Snapshot(), "serve_snapshot_stale_shards"),
            0.0);

  for (const auto& p : {base, delta, heal}) std::remove(p.c_str());
  std::remove(journal_path.c_str());
}

TEST_F(DeltaFaultTest, CorruptBrandNewShardQuarantinesExactlyThatShard) {
  const std::string base = WriteBase("df_newshard_base.snap");
  auto updater = SeedUpdater(base);
  // Cold-start item 32 grows the catalogue to 33 items: the grown tail
  // shard 3 ([24, 32)) and the brand-new shard 4 ([32, 33)) both ship.
  ASSERT_TRUE(updater->AddInteractions({{0, 32}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  EXPECT_EQ(updater->num_items(), 33);
  const std::string delta = TestTempPath("df_newshard.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());

  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest.value().num_changed_shards(), 2);
  ASSERT_EQ(manifest.value().changed_shards[0].shard_index, 3);
  ASSERT_EQ(manifest.value().changed_shards[1].shard_index, 4);
  // Corrupt the brand-new shard: the base has no rows to fall back on, so
  // it quarantines (zeroed rows) instead of going stale.
  FlipByteOnDisk(delta,
                 manifest.value().changed_shards[1].shard.byte_offset, 0x01);

  auto base_snap = EmbeddingSnapshot::Load(base);
  ASSERT_TRUE(base_snap.ok());
  // A bare Load leaves the publish-side version at 0; anchor it to the
  // manifest lineage the way RecService does before chaining deltas.
  base_snap.value()->set_version(base_snap.value()->parent_version());
  auto applied = EmbeddingSnapshot::ApplyDelta(base_snap.value(), delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const EmbeddingSnapshot& next = *applied.value();
  EXPECT_EQ(next.num_items(), 33);
  EXPECT_EQ(next.quarantined_count(), 1);
  EXPECT_EQ(next.stale_count(), 0);
  EXPECT_TRUE(next.shard_quarantined(4));
  EXPECT_FALSE(next.shard_quarantined(3));
  EXPECT_FALSE(next.item_available(32));
  for (int64_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(next.item(32)[d], 0.0f);
  }
  // The grown tail shard applied intact: base rows [24, 30) preserved.
  const Tensor base_items = ItemTable();
  for (int64_t i = 24; i < kItems; ++i) {
    EXPECT_TRUE(next.item_available(i));
    for (int64_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(next.item(i)[d], base_items.data()[i * kDim + d]);
    }
  }

  // Serving over the quarantined range is partial_degraded, never an error.
  MetricsRegistry metrics;
  RecService service(DeltaFallback(), DeltaServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(base).ok());
  ASSERT_TRUE(service.LoadDelta(delta).ok());
  RecResponse full = service.Recommend(RangeReq(0, 5, 0, 0));
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_TRUE(full.partial_degraded);
  EXPECT_EQ(full.quarantined_shards, 1);
  ExpectAccountingIdentity(metrics.Snapshot());

  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST_F(DeltaFaultTest, EveryChangedShardCorruptRefusesTheDelta) {
  const std::string base = WriteBase("df_allbad_base.snap");
  auto updater = SeedUpdater(base);
  ASSERT_TRUE(updater->AddInteractions({{1, 2}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta = TestTempPath("df_allbad.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());
  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok());
  for (const DeltaShardEntry& entry : manifest.value().changed_shards) {
    FlipByteOnDisk(delta, entry.shard.byte_offset + 1, 0x10);
  }

  MetricsRegistry metrics;
  RecService service(DeltaFallback(), DeltaServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(base).ok());
  Status status = service.LoadDelta(delta);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  // The base stays live and keeps serving.
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion);
  EXPECT_EQ(service.stats().snapshot_load_failures, 1);
  RecResponse response = service.Recommend(RangeReq(1, 5, 0, 0));
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.partial_degraded);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST_F(DeltaFaultTest, CorruptUserTableRefusesTheDelta) {
  const std::string base = WriteBase("df_usertab_base.snap");
  auto updater = SeedUpdater(base);
  ASSERT_TRUE(updater->AddInteractions({{1, 2}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta = TestTempPath("df_usertab.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());
  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok());
  FlipByteOnDisk(delta, manifest.value().user_table.byte_offset + 2, 0x40);

  auto base_snap = EmbeddingSnapshot::Load(base);
  ASSERT_TRUE(base_snap.ok());
  // A bare Load leaves the publish-side version at 0; anchor it to the
  // manifest lineage the way RecService does before chaining deltas.
  base_snap.value()->set_version(base_snap.value()->parent_version());
  auto applied = EmbeddingSnapshot::ApplyDelta(base_snap.value(), delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kDataLoss);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

// ---------------------------------------------------------------------------
// Mid-publish crash: truncation leaves the base serving; retry recovers

TEST_F(DeltaFaultTest, TruncatedDeltaLeavesBaseServingAndRetryRecovers) {
  const std::string base = WriteBase("df_trunc_base.snap");
  auto updater = SeedUpdater(base);
  ASSERT_TRUE(updater->AddInteractions({{1, 2}, {3, 17}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta = TestTempPath("df_trunc.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());
  const std::string intact = ReadFileBytes(delta);
  auto manifest = ReadDeltaSnapshotManifest(delta);
  ASSERT_TRUE(manifest.ok());

  MetricsRegistry metrics;
  RecService service(DeltaFallback(), DeltaServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(base).ok());

  // Cut inside the user-table payload (the copy died mid-stream): the
  // delta cannot be applied, the base stays live.
  std::filesystem::resize_file(
      delta,
      static_cast<uintmax_t>(manifest.value().user_table.byte_offset + 7));
  Status torn = service.LoadDelta(delta);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion);
  RecResponse during = service.Recommend(RangeReq(1, 5, 0, 0));
  ASSERT_TRUE(during.status.ok());
  EXPECT_FALSE(during.degraded);

  // Cut inside the manifest: same containment.
  WriteFileBytes(delta, intact.substr(0, 40));
  Status headless = service.LoadDelta(delta);
  ASSERT_FALSE(headless.ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion);

  // The publisher retries the copy; the intact delta applies cleanly.
  WriteFileBytes(delta, intact);
  ASSERT_TRUE(service.LoadDelta(delta).ok());
  EXPECT_EQ(service.snapshot()->version(), kBaseVersion + 1);
  EXPECT_EQ(service.snapshot()->stale_count(), 0);
  EXPECT_EQ(service.stats().delta_publishes, 1);
  EXPECT_EQ(service.stats().snapshot_load_failures, 2);
  ExpectAccountingIdentity(metrics.Snapshot());
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

// ---------------------------------------------------------------------------
// Delta lag: the staleness watchdog covers stalled delta chains

TEST_F(DeltaFaultTest, DeltaLagPastBudgetTripsStalenessWatchdog) {
  const std::string base = WriteBase("df_lag_base.snap");
  auto updater = SeedUpdater(base);
  auto clock_ms = std::make_shared<std::atomic<double>>(0.0);
  MetricsRegistry metrics;
  RecServiceOptions options = DeltaServiceOptions(&metrics, nullptr);
  options.now_ms = [clock_ms] { return clock_ms->load(); };
  options.max_snapshot_staleness_ms = 100.0;
  RecService service(DeltaFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(base).ok());

  ASSERT_TRUE(updater->AddInteractions({{1, 2}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta = TestTempPath("df_lag.delta");
  clock_ms->store(50.0);
  ASSERT_TRUE(updater->PublishDelta(delta).ok());
  ASSERT_TRUE(service.LoadDelta(delta).ok());
  EXPECT_EQ(GaugeValue(metrics.Snapshot(), "serve_snapshot_delta_lag_ms"),
            0.0);

  // Within budget: real serving; the lag gauge tracks time since the last
  // delta publish on every request.
  clock_ms->store(90.0);
  RecResponse fresh = service.Recommend(RangeReq(1, 5, 0, 0));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(GaugeValue(metrics.Snapshot(), "serve_snapshot_delta_lag_ms"),
            40.0);

  // The delta chain stalls past the staleness budget: the existing
  // watchdog trips the degraded path.
  clock_ms->store(200.0);
  RecResponse lagged = service.Recommend(RangeReq(1, 5, 0, 0));
  ASSERT_TRUE(lagged.status.ok());
  EXPECT_TRUE(lagged.degraded);
  EXPECT_EQ(service.stats().staleness_trips, 1);
  EXPECT_EQ(GaugeValue(metrics.Snapshot(), "serve_snapshot_delta_lag_ms"),
            150.0);

  // The next delta publish restores real serving and resets the lag.
  ASSERT_TRUE(updater->AddInteractions({{2, 3}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const std::string delta2 = TestTempPath("df_lag_2.delta");
  ASSERT_TRUE(updater->PublishDelta(delta2).ok());
  ASSERT_TRUE(service.LoadDelta(delta2).ok());
  RecResponse recovered = service.Recommend(RangeReq(1, 5, 0, 0));
  ASSERT_TRUE(recovered.status.ok());
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(GaugeValue(metrics.Snapshot(), "serve_snapshot_delta_lag_ms"),
            0.0);
  ExpectAccountingIdentity(metrics.Snapshot());
  for (const auto& p : {base, delta, delta2}) std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// Cold-start fold-in: new ids get real recommendations after one delta

TEST_F(DeltaFaultTest, ColdStartUserGetsNonPopularityRecommendations) {
  const std::string base = WriteBase("df_cold_base.snap");
  auto updater = SeedUpdater(base);
  // Brand-new user kUsers observed with existing (trained) items; a
  // brand-new item kItems observed with existing users.
  ASSERT_TRUE(updater
                  ->AddInteractions({{kUsers, 1},
                                     {kUsers, 5},
                                     {kUsers, 9},
                                     {2, kItems},
                                     {6, kItems}})
                  .ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  EXPECT_EQ(updater->num_users(), kUsers + 1);
  EXPECT_EQ(updater->num_items(), kItems + 1);
  const std::string delta = TestTempPath("df_cold.delta");
  ASSERT_TRUE(updater->PublishDelta(delta).ok());

  MetricsRegistry metrics;
  RecService service(DeltaFallback(), DeltaServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(base).ok());
  // Before the delta the new user does not exist: invalid request.
  RecResponse unknown = service.Recommend(RangeReq(kUsers, 5, 0, 0));
  EXPECT_EQ(unknown.status.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(service.LoadDelta(delta).ok());
  const std::shared_ptr<const EmbeddingSnapshot> snapshot =
      service.snapshot();
  ASSERT_EQ(snapshot->num_users(), kUsers + 1);
  ASSERT_EQ(snapshot->num_items(), kItems + 1);
  // The fold-in gave the new user a real (non-zero) factor row.
  bool nonzero = false;
  for (int64_t d = 0; d < kDim; ++d) {
    if (snapshot->user(kUsers)[d] != 0.0f) nonzero = true;
  }
  EXPECT_TRUE(nonzero);

  // The new user's recommendations are model-scored (not the popularity
  // ranking 0, 1, 2, ...): every returned score is the snapshot's inner
  // product, and the top item is the true argmax.
  RecResponse response = service.Recommend(RangeReq(kUsers, 5, 0, 0));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.partial_degraded);
  ASSERT_EQ(response.items.size(), 5u);
  for (const ScoredItem& item : response.items) {
    EXPECT_EQ(item.score, snapshot->Score(kUsers, item.item));
  }
  int64_t argmax = 0;
  for (int64_t i = 1; i < snapshot->num_items(); ++i) {
    if (snapshot->Score(kUsers, i) > snapshot->Score(kUsers, argmax)) {
      argmax = i;
    }
  }
  EXPECT_EQ(response.items[0].item, argmax);

  // The cold-start item is immediately servable too.
  RecResponse new_item = service.Recommend(RangeReq(2, 1, kItems, kItems + 1));
  ASSERT_TRUE(new_item.status.ok()) << new_item.status.ToString();
  ASSERT_EQ(new_item.items.size(), 1u);
  EXPECT_EQ(new_item.items[0].item, kItems);
  EXPECT_EQ(new_item.items[0].score, snapshot->Score(2, kItems));
  ExpectAccountingIdentity(metrics.Snapshot());
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

// ---------------------------------------------------------------------------
// Updater ingest accounting, growth guards and checkpoint/restore

TEST_F(DeltaFaultTest, IngestFileAccountingInvariantHoldsAcrossBatches) {
  const std::string base = WriteBase("df_ingest_base.snap");
  const std::string batch1 = TestTempPath("df_ingest_1.tsv");
  const std::string batch2 = TestTempPath("df_ingest_2.tsv");
  {
    std::ofstream out(batch1);
    out << "1\t2\n"
        << "3\t17\n"
        << "bad line here\n"   // kBadColumnCount -> quarantined.
        << "1\t2\n"            // In-file duplicate -> quarantined.
        << "-1\t4\n";          // kNegativeId -> quarantined.
  }
  {
    std::ofstream out(batch2);
    out << "3\t17\n"  // Cross-batch duplicate: kept by ingest, skipped
        << "5\t6\n";  // by the updater's dedup.
  }
  auto updater = SeedUpdater(base);
  ASSERT_TRUE(updater->IngestFile(batch1).ok());
  EXPECT_EQ(updater->pending_edges(), 2);
  ASSERT_TRUE(updater->IngestFile(batch2).ok());
  EXPECT_EQ(updater->pending_edges(), 3);
  EXPECT_EQ(updater->duplicates_skipped(), 1);

  const IngestFileReport& report = updater->ingest_report();
  EXPECT_EQ(report.total_records, 7);
  EXPECT_EQ(report.kept, 4);
  EXPECT_EQ(report.quarantined, 3);
  EXPECT_EQ(report.kept + report.quarantined, report.total_records);
  EXPECT_EQ(report.error_counts[static_cast<int>(
                IngestError::kBadColumnCount)],
            1);
  EXPECT_EQ(report.error_counts[static_cast<int>(IngestError::kNegativeId)],
            1);
  EXPECT_EQ(
      report.error_counts[static_cast<int>(IngestError::kDuplicateEdge)], 1);

  ASSERT_TRUE(updater->ApplyPending().ok());
  EXPECT_EQ(updater->applied_edges_total(), 3);
  for (const auto& p : {base, batch1, batch2}) std::remove(p.c_str());
}

TEST_F(DeltaFaultTest, GrowthGuardRejectsRunawayIdsAndCounts) {
  const std::string base = WriteBase("df_guard_base.snap");
  OnlineUpdaterOptions options;
  options.max_new_users = 2;
  options.max_new_items = 2;
  auto updater = SeedUpdater(base, options);
  // Within the guard (ids < seed + 2): accepted. Past it: rejected.
  ASSERT_TRUE(updater
                  ->AddInteractions({{kUsers + 1, 0},
                                     {kUsers + 2, 0},
                                     {0, kItems + 2},
                                     {1000000, 3}})
                  .ok());
  EXPECT_EQ(updater->pending_edges(), 1);
  EXPECT_EQ(updater->growth_rejected(), 3);
  Status negative = updater->AddInteractions({{-1, 3}});
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  std::remove(base.c_str());
}

TEST_F(DeltaFaultTest, UpdaterRefusesQuarantinedSeedAndGarbageCheckpoints) {
  // Seeding from a snapshot with quarantined shards would fold in on top
  // of zeroed rows.
  const std::string base = WriteBase("df_refuse_base.snap");
  auto manifest = ReadShardedSnapshotManifest(base);
  ASSERT_TRUE(manifest.ok());
  FlipByteOnDisk(base, manifest.value().item_shards[1].byte_offset, 0x08);
  auto quarantined = OnlineUpdater::FromSnapshot(base, {}, {});
  ASSERT_FALSE(quarantined.ok());
  EXPECT_EQ(quarantined.status().code(), StatusCode::kFailedPrecondition);

  // A checkpoint that is not an updater checkpoint fails cleanly.
  const std::string ckpt = TestTempPath("df_refuse.ckpt");
  std::vector<Tensor> tensors = {UserTable(), ItemTable()};
  ASSERT_TRUE(SaveCheckpoint(ckpt, tensors).ok());
  auto restored = OnlineUpdater::FromCheckpoint(ckpt, {});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range seen interactions are refused at seed time.
  const std::string clean = WriteBase("df_refuse_clean.snap");
  auto bad_seen = OnlineUpdater::FromSnapshot(clean, {{kUsers + 5, 0}}, {});
  ASSERT_FALSE(bad_seen.ok());
  EXPECT_EQ(bad_seen.status().code(), StatusCode::kInvalidArgument);
  for (const auto& p : {base, ckpt, clean}) std::remove(p.c_str());
}

TEST_F(DeltaFaultTest, KillAndResumePublishesBitIdenticalDeltas) {
  const std::string base = WriteBase("df_resume_base.snap");
  // Updater A: apply one batch, queue a second, checkpoint mid-stream
  // (the kill point), then finish and publish.
  auto a = SeedUpdater(base);
  ASSERT_TRUE(a->AddInteractions({{1, 2}, {3, 17}, {kUsers, 5}}).ok());
  ASSERT_TRUE(a->ApplyPending().ok());
  ASSERT_TRUE(a->AddInteractions({{4, 11}, {2, kItems}}).ok());
  const std::string ckpt = TestTempPath("df_resume.ckpt");
  ASSERT_TRUE(a->Checkpoint(ckpt).ok());
  ASSERT_TRUE(a->ApplyPending().ok());
  const std::string delta_a = TestTempPath("df_resume_a.delta");
  ASSERT_TRUE(a->PublishDelta(delta_a).ok());

  // Updater B resumes from the checkpoint and repeats the tail of the
  // stream: the published delta must be byte-identical.
  auto restored = OnlineUpdater::FromCheckpoint(ckpt, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::unique_ptr<OnlineUpdater> b = std::move(restored).value();
  EXPECT_EQ(b->pending_edges(), 2);
  EXPECT_EQ(b->published_version(), kBaseVersion);
  EXPECT_EQ(b->num_users(), a->num_users());
  ASSERT_TRUE(b->ApplyPending().ok());
  const std::string delta_b = TestTempPath("df_resume_b.delta");
  ASSERT_TRUE(b->PublishDelta(delta_b).ok());
  EXPECT_EQ(ReadFileBytes(delta_a), ReadFileBytes(delta_b));

  // Post-publish checkpoints agree too — the full state converged, not
  // just the published bytes.
  const std::string ckpt_a = TestTempPath("df_resume_a.ckpt");
  const std::string ckpt_b = TestTempPath("df_resume_b.ckpt");
  ASSERT_TRUE(a->Checkpoint(ckpt_a).ok());
  ASSERT_TRUE(b->Checkpoint(ckpt_b).ok());
  EXPECT_EQ(ReadFileBytes(ckpt_a), ReadFileBytes(ckpt_b));

  // And the delta both published actually applies.
  auto base_snap = EmbeddingSnapshot::Load(base);
  ASSERT_TRUE(base_snap.ok());
  // A bare Load leaves the publish-side version at 0; anchor it to the
  // manifest lineage the way RecService does before chaining deltas.
  base_snap.value()->set_version(base_snap.value()->parent_version());
  auto applied = EmbeddingSnapshot::ApplyDelta(base_snap.value(), delta_a);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value()->num_users(), kUsers + 1);
  EXPECT_EQ(applied.value()->num_items(), kItems + 1);
  for (const auto& p : {base, ckpt, delta_a, delta_b, ckpt_a, ckpt_b}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace imcat
