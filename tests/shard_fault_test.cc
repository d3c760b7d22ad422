// Fault suite for the sharded serving-snapshot format (v3) and the
// partial-degraded serving path built on it:
//
//  - format round trip, manifest geometry, refusal of v2 checkpoints;
//  - per-shard corruption sweep: an on-disk bit flip in shard payload s
//    quarantines exactly shard s — every other item range still serves the
//    bit-identical scores of a clean load;
//  - containment boundaries: manifest or user-table corruption (and every
//    shard corrupt) fail the whole load; strict mode fails on any shard;
//  - transient read faults (injected bit flip / short read) self-heal via
//    the loader's re-read without quarantining anything;
//  - RecService: healthy ranges serve normally next to a quarantined
//    shard, requests touching the quarantined range come back
//    partial_degraded with popularity backfill, the extended accounting
//    identity holds exactly, and the next clean publish self-heals;
//  - snapshot version monotonicity and the bounded-staleness watchdog.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

constexpr int64_t kUsers = 10;
constexpr int64_t kItems = 30;
constexpr int64_t kDim = 4;
constexpr int64_t kIps = 8;  // Items per shard -> shards [0,8) [8,16)
                             // [16,24) [24,30).
constexpr int64_t kShards = 4;

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

// Ground-truth inner product straight from the generator tables.
float ExpectedScore(int64_t u, int64_t i) {
  Tensor users = UserTable();
  Tensor items = ItemTable();
  float s = 0.0f;
  for (int64_t d = 0; d < kDim; ++d) {
    s += users.data()[u * kDim + d] * items.data()[i * kDim + d];
  }
  return s;
}

std::string WriteSharded(const char* name, int64_t version = 0,
                         int64_t items_per_shard = kIps) {
  const std::string path = TestTempPath(name);
  ShardedSnapshotOptions options;
  options.items_per_shard = items_per_shard;
  options.version = version;
  Status status = WriteShardedSnapshot(path, UserTable(), ItemTable(),
                                       options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

// XORs one byte of the file in place (corruption at rest, unlike the
// FaultInjector read flips which corrupt in flight).
void FlipByteOnDisk(const std::string& path, int64_t offset,
                    unsigned char mask) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
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

class ShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Format round trip + geometry

TEST_F(ShardFaultTest, ShardedRoundTripPreservesEveryScore) {
  const std::string path = WriteSharded("sf_roundtrip.snap");
  EXPECT_TRUE(IsShardedSnapshotFile(path));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_users(), kUsers);
  EXPECT_EQ(snapshot.num_items(), kItems);
  EXPECT_EQ(snapshot.dim(), kDim);
  EXPECT_EQ(snapshot.num_shards(), kShards);
  EXPECT_EQ(snapshot.items_per_shard(), kIps);
  EXPECT_EQ(snapshot.quarantined_count(), 0);
  EXPECT_TRUE(snapshot.QuarantinedRanges().empty());
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(snapshot.Score(u, i), ExpectedScore(u, i))
          << "u=" << u << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, ManifestRecordsContiguousShardGeometry) {
  const std::string path = WriteSharded("sf_manifest.snap", /*version=*/7);
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const ShardManifest& m = manifest.value();
  EXPECT_EQ(m.num_users, kUsers);
  EXPECT_EQ(m.num_items, kItems);
  EXPECT_EQ(m.dim, kDim);
  EXPECT_EQ(m.parent_version, 7);
  EXPECT_EQ(m.items_per_shard, kIps);
  ASSERT_EQ(m.num_item_shards(), kShards);
  EXPECT_EQ(m.user_table.byte_size, kUsers * kDim * 4);
  int64_t offset = m.user_table.byte_offset + m.user_table.byte_size;
  for (int64_t s = 0; s < kShards; ++s) {
    const ShardEntry& entry = m.item_shards[static_cast<size_t>(s)];
    EXPECT_EQ(entry.begin, s * kIps);
    EXPECT_EQ(entry.end, std::min((s + 1) * kIps, kItems));
    EXPECT_EQ(entry.byte_offset, offset);
    EXPECT_EQ(entry.byte_size, (entry.end - entry.begin) * kDim * 4);
    offset += entry.byte_size;
  }
  // The manifest's version flows through to the loaded snapshot.
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->parent_version(), 7);
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, MonolithicCheckpointIsRefusedWithInvalidArgument) {
  // The monolithic v2 checkpoint is no longer a serving format: it is
  // refused by name, never loaded as a one-shard snapshot.
  const std::string path = TestTempPath("sf_monolithic.ckpt");
  std::vector<Tensor> tensors = {UserTable(), ItemTable()};
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  EXPECT_FALSE(IsShardedSnapshotFile(path));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("monolithic IMCAT checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-shard corruption sweep

TEST_F(ShardFaultTest, BitFlipSweepQuarantinesExactlyTheFlippedShard) {
  for (int64_t corrupt = 0; corrupt < kShards; ++corrupt) {
    SCOPED_TRACE("corrupt shard " + std::to_string(corrupt));
    const std::string path = WriteSharded("sf_sweep.snap");
    auto manifest = ReadShardedSnapshotManifest(path);
    ASSERT_TRUE(manifest.ok());
    const ShardEntry& entry =
        manifest.value().item_shards[static_cast<size_t>(corrupt)];
    FlipByteOnDisk(path, entry.byte_offset + 5, 0x40);

    auto loaded = EmbeddingSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const EmbeddingSnapshot& snapshot = *loaded.value();
    EXPECT_EQ(snapshot.quarantined_count(), 1);
    ASSERT_EQ(snapshot.QuarantinedRanges().size(), 1u);
    EXPECT_EQ(snapshot.QuarantinedRanges()[0].first, entry.begin);
    EXPECT_EQ(snapshot.QuarantinedRanges()[0].second, entry.end);
    for (int64_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(snapshot.shard_quarantined(s), s == corrupt);
    }
    for (int64_t i = 0; i < kItems; ++i) {
      const bool in_corrupt = i >= entry.begin && i < entry.end;
      EXPECT_EQ(snapshot.item_available(i), !in_corrupt) << "item " << i;
      if (in_corrupt) {
        // Quarantined rows are zero-filled placeholders, and checked
        // scoring refuses them instead of returning a silent 0.
        for (int64_t d = 0; d < kDim; ++d) {
          EXPECT_EQ(snapshot.item_value(i, d), 0.0f);
        }
        auto score = snapshot.ScoreChecked(2, i);
        ASSERT_FALSE(score.ok());
        EXPECT_EQ(score.status().code(), StatusCode::kUnavailable);
      } else {
        // Every healthy shard is bit-identical to a clean load.
        EXPECT_EQ(snapshot.Score(2, i), ExpectedScore(2, i)) << "item " << i;
      }
    }
    std::remove(path.c_str());
  }
}

TEST_F(ShardFaultTest, StrictLoadFailsOnAnyShardCorruption) {
  const std::string path = WriteSharded("sf_strict.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  FlipByteOnDisk(path, manifest.value().item_shards[1].byte_offset, 0x01);
  SnapshotLoadOptions strict;
  strict.allow_partial = false;
  auto loaded = EmbeddingSnapshot::Load(path, strict);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Containment boundaries: manifest, user table, everything

TEST_F(ShardFaultTest, ManifestCorruptionFailsTheWholeLoad) {
  // A flip in the fixed header (num_items field) and one in a shard entry:
  // both must fail the load outright — without a trustworthy manifest no
  // payload byte can be attributed to a shard.
  for (const int64_t offset : {int64_t{12}, int64_t{56 + 24 + 8}}) {
    SCOPED_TRACE("manifest offset " + std::to_string(offset));
    const std::string path = WriteSharded("sf_manifest_corrupt.snap");
    FlipByteOnDisk(path, offset, 0x04);
    auto loaded = EmbeddingSnapshot::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    std::remove(path.c_str());
  }
}

TEST_F(ShardFaultTest, UserTableCorruptionFailsTheWholeLoad) {
  const std::string path = WriteSharded("sf_user_corrupt.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  FlipByteOnDisk(path, manifest.value().user_table.byte_offset + 1, 0x80);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("user table"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, EveryShardCorruptFailsTheWholeLoad) {
  const std::string path = WriteSharded("sf_all_corrupt.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  for (const ShardEntry& entry : manifest.value().item_shards) {
    FlipByteOnDisk(path, entry.byte_offset + 2, 0x20);
  }
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, TruncationQuarantinesOnlyTheCutTailShard) {
  const std::string path = WriteSharded("sf_truncate.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  const ShardEntry& last =
      manifest.value().item_shards[static_cast<size_t>(kShards - 1)];
  // Cut into the last shard's payload: it quarantines, the rest serves.
  std::filesystem::resize_file(
      path, static_cast<uintmax_t>(last.byte_offset + 3));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->quarantined_count(), 1);
  EXPECT_TRUE(loaded.value()->shard_quarantined(kShards - 1));
  EXPECT_EQ(loaded.value()->Score(1, 0), ExpectedScore(1, 0));

  // Cut inside the manifest: nothing can be trusted, the load fails.
  std::filesystem::resize_file(path, 40);
  auto headless = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(headless.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Injected (in-flight) read faults: transient faults self-heal via re-read

TEST_F(ShardFaultTest, TransientReadBitFlipSelfHealsViaReRead) {
  const std::string path = WriteSharded("sf_transient.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  // One in-flight flip: the first read of shard 1 sees a corrupt byte and
  // fails its checksum; the loader's re-read sees the intact file.
  FaultInjector::Instance().ArmReadBitFlip(
      manifest.value().item_shards[1].byte_offset + 2, 0x08, /*count=*/1);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->quarantined_count(), 0);
  EXPECT_GE(FaultInjector::Instance().faults_fired(), 1);
  for (int64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(loaded.value()->Score(3, i), ExpectedScore(3, i));
  }
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, TransientShortReadSelfHealsViaReRead) {
  const std::string path = WriteSharded("sf_short_read.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  // The stream appears to end inside shard 2 once; the re-read succeeds.
  FaultInjector::Instance().ArmShortRead(
      manifest.value().item_shards[2].byte_offset + 4);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->quarantined_count(), 0);
  EXPECT_GE(FaultInjector::Instance().faults_fired(), 1);
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, PersistentReadBitFlipQuarantinesThenHealsOnReload) {
  const std::string path = WriteSharded("sf_persistent.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  // Enough armed flips to defeat every re-read attempt: shard 0 ends up
  // quarantined even though the file at rest is intact.
  FaultInjector::Instance().ArmReadBitFlip(
      manifest.value().item_shards[0].byte_offset + 7, 0x02, /*count=*/16);
  auto corrupt = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();
  EXPECT_EQ(corrupt.value()->quarantined_count(), 1);
  EXPECT_TRUE(corrupt.value()->shard_quarantined(0));

  // The fault clears; the next load (the service's next publish) heals.
  FaultInjector::Instance().Reset();
  auto healed = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value()->quarantined_count(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RecService: partial-degraded serving, accounting, self-heal

RecServiceOptions ShardServiceOptions(MetricsRegistry* metrics,
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

std::shared_ptr<const PopularityRanker> ShardFallback() {
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

TEST_F(ShardFaultTest, ServicePartialDegradedServingAndSelfHeal) {
  // The issue's acceptance scenario. Shard 2 ([16, 24)) is corrupt on
  // disk; the service must (a) serve healthy ranges normally, (b) answer
  // requests touching the quarantined range as kPartialDegraded with
  // popularity backfill, (c) keep the accounting identity exact, and
  // (d) self-heal after the next clean publish.
  const std::string path = WriteSharded("sf_service.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  const ShardEntry corrupt_shard = manifest.value().item_shards[2];
  FlipByteOnDisk(path, corrupt_shard.byte_offset + 9, 0x10);

  MetricsRegistry metrics;
  RecService service(ShardFallback(), ShardServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.snapshot()->quarantined_count(), 1);

  // (a) A request confined to a healthy range: served normally, with real
  // scores, not even flagged partial.
  RecResponse healthy = service.Recommend(RangeReq(1, 5, 0, 16));
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_FALSE(healthy.degraded);
  EXPECT_FALSE(healthy.partial_degraded);
  ASSERT_EQ(healthy.items.size(), 5u);
  for (const ScoredItem& item : healthy.items) {
    EXPECT_GE(item.item, 0);
    EXPECT_LT(item.item, 16);
    EXPECT_EQ(item.score, ExpectedScore(1, item.item));
  }

  // (b) Full-catalogue request bigger than the healthy item count: the 22
  // healthy items carry real scores; the remaining 3 slots are backfilled
  // from the popularity ranking restricted to the quarantined range
  // (16, 17, 18 — its most popular items).
  RecResponse full = service.Recommend(RangeReq(1, 25, 0, 0));
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.degraded);
  EXPECT_TRUE(full.partial_degraded);
  EXPECT_EQ(full.quarantined_shards, 1);
  ASSERT_EQ(full.items.size(), 25u);
  for (size_t i = 0; i < 22; ++i) {
    const int64_t item = full.items[i].item;
    EXPECT_TRUE(item < 16 || item >= 24) << "model-scored item " << item;
    EXPECT_EQ(full.items[i].score, ExpectedScore(1, item));
  }
  EXPECT_EQ(full.items[22].item, 16);
  EXPECT_EQ(full.items[23].item, 17);
  EXPECT_EQ(full.items[24].item, 18);

  // A request wholly inside the quarantined range: pure popularity
  // backfill, still honestly flagged partial (real scores exist elsewhere).
  RecResponse inside = service.Recommend(RangeReq(4, 3, 16, 24));
  ASSERT_TRUE(inside.status.ok()) << inside.status.ToString();
  EXPECT_TRUE(inside.partial_degraded);
  ASSERT_EQ(inside.items.size(), 3u);
  EXPECT_EQ(inside.items[0].item, 16);
  EXPECT_EQ(inside.items[1].item, 17);
  EXPECT_EQ(inside.items[2].item, 18);

  // (c) The extended accounting identity, with equality.
  MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(ms.CounterValue("serve_requests_total"), 3);
  EXPECT_EQ(ms.CounterValue("serve_requests_ok_total"), 1);
  EXPECT_EQ(ms.CounterValue("serve_requests_partial_degraded_total"), 2);
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
  EXPECT_EQ(ms.CounterValue("serve_snapshot_shards_quarantined_total"), 1);
  EXPECT_EQ(service.stats().served_real, 1);
  EXPECT_EQ(service.stats().served_partial_degraded, 2);

  // (d) Self-heal: the publisher writes a clean snapshot; the next reload
  // replaces the quarantined one wholesale and full-catalogue requests are
  // bit-identical to a never-corrupted run.
  ASSERT_TRUE(
      WriteShardedSnapshot(path, UserTable(), ItemTable(), {kIps, 0}).ok());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  EXPECT_EQ(service.snapshot()->quarantined_count(), 0);
  RecResponse healed = service.Recommend(RangeReq(1, 25, 0, 0));
  ASSERT_TRUE(healed.status.ok());
  EXPECT_FALSE(healed.partial_degraded);
  EXPECT_EQ(healed.quarantined_shards, 0);
  ASSERT_EQ(healed.items.size(), 25u);
  for (const ScoredItem& item : healed.items) {
    EXPECT_EQ(item.score, ExpectedScore(1, item.item));
  }
  std::remove(path.c_str());
}

TEST_F(ShardFaultTest, ServiceRefusesNonMonotonicSnapshotVersions) {
  const std::string journal_path = TestTempPath("sf_monotonic.journal");
  RunJournal journal(journal_path);
  MetricsRegistry metrics;
  RecService service(ShardFallback(),
                     ShardServiceOptions(&metrics, &journal));

  const std::string v5 = WriteSharded("sf_v5.snap", /*version=*/5);
  ASSERT_TRUE(service.LoadSnapshot(v5).ok());
  EXPECT_EQ(service.snapshot()->version(), 5);

  // Same version and an older version: both refused, the live snapshot
  // untouched, the refusal journalled.
  const std::string v5b = WriteSharded("sf_v5b.snap", /*version=*/5);
  Status same = service.LoadSnapshot(v5b);
  EXPECT_EQ(same.code(), StatusCode::kFailedPrecondition);
  const std::string v3 = WriteSharded("sf_v3.snap", /*version=*/3);
  Status older = service.LoadSnapshot(v3);
  EXPECT_EQ(older.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.snapshot()->version(), 5);
  EXPECT_EQ(service.stats().rejected_publishes, 2);
  EXPECT_EQ(
      metrics.Snapshot().CounterValue("serve_snapshot_rejected_publishes_total"),
      2);
  ASSERT_TRUE(journal.Flush().ok());
  std::ifstream in(journal_path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"event\":\"snapshot_rejected\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"live_version\":5"), std::string::npos);

  // A strictly newer version publishes; a rejected publish feeds no
  // failure into the breaker, so the service never degraded in between.
  const std::string v6 = WriteSharded("sf_v6.snap", /*version=*/6);
  ASSERT_TRUE(service.LoadSnapshot(v6).ok());
  EXPECT_EQ(service.snapshot()->version(), 6);

  // An unversioned (counter-assigned) snapshot continues above the
  // manifest-assigned versions instead of colliding with them.
  const std::string v0 = WriteSharded("sf_v0.snap", /*version=*/0);
  ASSERT_TRUE(service.LoadSnapshot(v0).ok());
  EXPECT_GT(service.snapshot()->version(), 6);

  for (const auto& p : {v5, v5b, v3, v6, v0}) std::remove(p.c_str());
  std::remove(journal_path.c_str());
}

TEST_F(ShardFaultTest, StalenessWatchdogTripsDegradedAndRecovers) {
  const std::string journal_path = TestTempPath("sf_stale.journal");
  RunJournal journal(journal_path);
  MetricsRegistry metrics;
  auto clock_ms = std::make_shared<std::atomic<double>>(0.0);
  RecServiceOptions options = ShardServiceOptions(&metrics, &journal);
  options.now_ms = [clock_ms] { return clock_ms->load(); };
  options.max_snapshot_staleness_ms = 100.0;
  RecService service(ShardFallback(), options);

  const std::string path = WriteSharded("sf_stale.snap");
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Within budget: the real path serves.
  clock_ms->store(50.0);
  RecResponse fresh = service.Recommend(RangeReq(2, 5, 0, 0));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.degraded);

  // Past the budget (reloads kept failing): the watchdog trips the
  // degraded path, once per episode in the journal.
  clock_ms->store(250.0);
  for (int i = 0; i < 3; ++i) {
    RecResponse stale = service.Recommend(RangeReq(2, 5, 0, 0));
    ASSERT_TRUE(stale.status.ok());
    EXPECT_TRUE(stale.degraded);
  }
  EXPECT_EQ(service.stats().staleness_trips, 1);
  EXPECT_EQ(metrics.Snapshot().CounterValue("serve_staleness_trips_total"),
            1);
  ASSERT_TRUE(journal.Flush().ok());
  std::ifstream in(journal_path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"event\":\"staleness\""), std::string::npos);

  // A fresh publish restarts the budget and re-arms the watchdog edge.
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  RecResponse recovered = service.Recommend(RangeReq(2, 5, 0, 0));
  ASSERT_TRUE(recovered.status.ok());
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(service.stats().staleness_trips, 1);
  std::remove(path.c_str());
  std::remove(journal_path.c_str());
}

TEST_F(ShardFaultTest, ChaosConcurrentClientsAgainstQuarantinedShard) {
  // Concurrency acceptance: client threads hammer healthy-range, full and
  // quarantined-range requests while a publisher rereloads the corrupt
  // file; every response is definite and correctly flagged, and the
  // extended identity holds exactly once all futures resolve.
  const std::string path = WriteSharded("sf_chaos.snap");
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  FlipByteOnDisk(path, manifest.value().item_shards[2].byte_offset + 1, 0x08);

  MetricsRegistry metrics;
  RecService service(ShardFallback(), ShardServiceOptions(&metrics, nullptr));
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 50;
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &violations, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        RecRequest request;
        switch ((t + r) % 3) {
          case 0:  // Healthy range.
            request = RangeReq(r % kUsers, 4, 0, 16);
            break;
          case 1:  // Full catalogue (touches the quarantined shard).
            request = RangeReq(r % kUsers, 25, 0, 0);
            break;
          default:  // Wholly quarantined range.
            request = RangeReq(r % kUsers, 3, 16, 24);
            break;
        }
        RecResponse response = service.Recommend(request);
        if (!response.status.ok()) ++violations;
        if (response.degraded) ++violations;
        // Healthy-range requests must never be flagged partial; requests
        // overlapping the quarantined shard always must.
        const bool expect_partial = (t + r) % 3 != 0;
        if (response.partial_degraded != expect_partial) ++violations;
      }
    });
  }
  // Publisher churn: re-publishing the same corrupt file keeps serving
  // (fresh counter version each time, shard still quarantined).
  std::thread publisher([&service, &path] {
    for (int i = 0; i < 5; ++i) {
      Status status = service.LoadSnapshot(path);
      if (!status.ok()) std::abort();
    }
  });
  for (std::thread& client : clients) client.join();
  publisher.join();

  EXPECT_EQ(violations.load(), 0);
  MetricsSnapshot ms = metrics.Snapshot();
  const int64_t total = ms.CounterValue("serve_requests_total");
  EXPECT_EQ(total, kThreads * kRequestsPerThread);
  EXPECT_EQ(total,
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

  // Clean publish self-heals; real serving resumes bit-identically.
  ASSERT_TRUE(
      WriteShardedSnapshot(path, UserTable(), ItemTable(), {kIps, 0}).ok());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  RecResponse healed = service.Recommend(RangeReq(1, 25, 0, 0));
  ASSERT_TRUE(healed.status.ok());
  EXPECT_FALSE(healed.partial_degraded);
  for (const ScoredItem& item : healed.items) {
    EXPECT_EQ(item.score, ExpectedScore(1, item.item));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imcat
