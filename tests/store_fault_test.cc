// Fault suite for the crash-safe snapshot store (ctest labels `chaos` +
// `store_fault`):
//
//  - publish: versioned artifact naming, manifest-last registration,
//    duplicate / missing / torn / mis-labeled commits refused (torn and
//    mis-labeled files quarantined to `.corrupt`);
//  - startup recovery: unregistered-but-valid artifacts readmitted
//    (crashed publishes), `*.tmp` debris removed, torn artifacts and
//    orphaned delta chains quarantined, a corrupt STORE_MANIFEST rebuilt
//    from the directory scan, missing files counted;
//  - retention GC: chains rooted at expired fulls die with them, the
//    live-loaded lineage is untouchable, a GC killed mid-deletion is
//    resumed by the next recovery;
//  - the kill-at-every-step sweep: a crash armed at every durable step
//    boundary of the publish→manifest→GC pipeline leaves a store that
//    reopens, serves a lineage, and accepts the next publish;
//  - disk faults: an ENOSPC'd publish leaves the OnlineUpdater's chain
//    state unchanged (the retry succeeds) and no half-written files; an
//    injected fsync failure fails the commit with errno detail and rolls
//    the registration back;
//  - handoff: LoadInto drives RecService to the newest chained version;
//    the store-routed ExportServingCheckpoint assigns store versions;
//  - `store_*` metrics and `store_recovery` / `store_commit` / `store_gc`
//    / `store_quarantine` journal events throughout.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/online_updater.h"
#include "train/trainer.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kUsers = 10;
constexpr int64_t kItems = 30;
constexpr int64_t kDim = 4;
constexpr int64_t kIps = 8;  // Shards [0,8) [8,16) [16,24) [24,30).

/// A per-test store directory, wiped so reruns start from nothing.
std::string FreshDir(const char* name) {
  const std::string dir = TestTempPath(name);
  fs::remove_all(dir);
  return dir;
}

/// The store's on-disk naming contract, asserted against FullPath /
/// DeltaPath below; recovery tests use it to plant files before any store
/// object exists.
std::string FullFileName(int64_t version) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "full-%012lld.ims3",
                static_cast<long long>(version));
  return buffer;
}

std::string DeltaFileName(int64_t base_version, int64_t version) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "delta-%012lld-%012lld.imd3",
                static_cast<long long>(base_version),
                static_cast<long long>(version));
  return buffer;
}

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

Status WriteFullFile(const std::string& path, int64_t version) {
  ShardedSnapshotOptions options;
  options.items_per_shard = kIps;
  options.version = version;
  return WriteShardedSnapshot(path, UserTable(), ItemTable(), options);
}

Status WriteDeltaFile(const std::string& path, int64_t base_version,
                      int64_t version,
                      const std::vector<int64_t>& changed_shards) {
  DeltaSnapshotOptions options;
  options.items_per_shard = kIps;
  options.base_version = base_version;
  options.version = version;
  return WriteDeltaSnapshot(path, UserTable(), ItemTable(), changed_shards,
                            options);
}

std::unique_ptr<SnapshotStore> MustOpen(
    const std::string& dir, const SnapshotStoreOptions& options = {}) {
  auto store = SnapshotStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
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

/// Tears an artifact inside its *internal manifest* region: validation
/// (which reads only the manifest) must see the damage.
void TruncateFile(const std::string& path, size_t keep) {
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), keep) << path;
  WriteFileBytes(path, bytes.substr(0, keep));
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

int64_t CountWithSuffix(const std::string& dir, const std::string& suffix) {
  int64_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++count;
    }
  }
  return count;
}

double GaugeValue(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [gauge_name, value] : snapshot.gauges) {
    if (gauge_name == name) return value;
  }
  return 0.0;
}

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Publish path

TEST_F(StoreFaultTest, PublishRegistersVersionedArtifacts) {
  const std::string dir = FreshDir("sf_publish");
  const std::string journal_path = TestTempPath("sf_publish.journal");
  MetricsRegistry metrics;
  RunJournal journal(journal_path);
  SnapshotStoreOptions options;
  options.retain_full = 2;
  options.metrics = &metrics;
  options.journal = &journal;
  auto store = MustOpen(dir, options);

  // A fresh directory has no manifest: recovery reports a rebuild from an
  // (empty) scan and nothing else.
  EXPECT_TRUE(store->recovery_report().manifest_rebuilt);
  EXPECT_EQ(store->recovery_report().recovered, 0);
  EXPECT_EQ(store->NextVersion(), 1);

  // The versioned-naming contract the recovery tests rely on.
  EXPECT_EQ(store->FullPath(1), dir + "/" + FullFileName(1));
  EXPECT_EQ(store->DeltaPath(1, 2), dir + "/" + DeltaFileName(1, 2));

  Status wrote = WriteFullFile(store->FullPath(1), 1);
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  Status committed = store->CommitFull(1);
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  wrote = WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0, 2});
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  committed = store->CommitDelta(1, 2);
  ASSERT_TRUE(committed.ok()) << committed.ToString();

  const std::vector<StoreArtifact> artifacts = store->Artifacts();
  ASSERT_EQ(artifacts.size(), 2u);
  EXPECT_EQ(artifacts[0].filename, FullFileName(1));
  EXPECT_EQ(artifacts[0].kind, StoreArtifact::Kind::kFull);
  EXPECT_GT(artifacts[0].bytes, 0);
  EXPECT_EQ(artifacts[1].filename, DeltaFileName(1, 2));
  EXPECT_EQ(artifacts[1].kind, StoreArtifact::Kind::kDelta);
  EXPECT_EQ(artifacts[1].base_version, 1);
  EXPECT_EQ(artifacts[1].version, 2);

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.artifacts, 2);
  EXPECT_EQ(stats.committed_total, 2);
  EXPECT_EQ(stats.bytes, artifacts[0].bytes + artifacts[1].bytes);
  EXPECT_EQ(stats.gc_deleted_total, 0);
  EXPECT_EQ(store->NextVersion(), 3);

  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok()) << lineage.status().ToString();
  EXPECT_EQ(lineage.value().version, 2);
  EXPECT_EQ(lineage.value().full_path, store->FullPath(1));
  ASSERT_EQ(lineage.value().delta_paths.size(), 1u);
  EXPECT_EQ(lineage.value().delta_paths[0], store->DeltaPath(1, 2));

  EXPECT_TRUE(fs::exists(dir + "/STORE_MANIFEST"));
  const MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(GaugeValue(ms, "store_artifacts_total"), 2.0);
  EXPECT_EQ(GaugeValue(ms, "store_bytes"), static_cast<double>(stats.bytes));

  ASSERT_TRUE(journal.Flush().ok());
  const std::string events = ReadFileBytes(journal_path);
  EXPECT_NE(events.find("\"event\":\"store_recovery\""), std::string::npos)
      << events;
  EXPECT_NE(events.find("\"event\":\"store_commit\""), std::string::npos);
  std::remove(journal_path.c_str());
}

TEST_F(StoreFaultTest, CommitRefusesDuplicateMissingAndQuarantinesTorn) {
  const std::string dir = FreshDir("sf_commit_refuse");
  MetricsRegistry metrics;
  SnapshotStoreOptions options;
  options.metrics = &metrics;
  auto store = MustOpen(dir, options);

  // Nothing at FullPath(9): the commit fails and registers nothing.
  EXPECT_FALSE(store->CommitFull(9).ok());
  EXPECT_EQ(store->Artifacts().size(), 0u);

  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
  ASSERT_TRUE(store->CommitFull(1).ok());
  Status duplicate = store->CommitFull(1);
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition)
      << duplicate.ToString();

  // A torn artifact (manifest region truncated) is quarantined on commit.
  ASSERT_TRUE(WriteFullFile(store->FullPath(2), 2).ok());
  TruncateFile(store->FullPath(2), 64);
  Status torn = store->CommitFull(2);
  EXPECT_EQ(torn.code(), StatusCode::kDataLoss) << torn.ToString();
  EXPECT_FALSE(fs::exists(store->FullPath(2)));
  EXPECT_TRUE(fs::exists(store->FullPath(2) + ".corrupt"));

  // A mis-labeled artifact (internal manifest says version 7, filename
  // says 3) must not enter a chain under the wrong identity.
  ASSERT_TRUE(WriteFullFile(store->FullPath(3), 7).ok());
  Status mislabeled = store->CommitFull(3);
  EXPECT_EQ(mislabeled.code(), StatusCode::kDataLoss)
      << mislabeled.ToString();
  EXPECT_TRUE(fs::exists(store->FullPath(3) + ".corrupt"));

  EXPECT_EQ(store->stats().quarantined_total, 2);
  EXPECT_EQ(metrics.Snapshot().CounterValue("store_quarantined_total"), 2);

  // The store still serves what survived.
  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 1);
}

// ---------------------------------------------------------------------------
// Startup recovery

TEST_F(StoreFaultTest, RecoveryReadmitsUnregisteredArtifactsAndRemovesDebris) {
  const std::string dir = FreshDir("sf_recover_readmit");
  fs::create_directories(dir);
  // A crashed pipeline's directory: three valid chained artifacts nobody
  // registered, one orphan delta (base never existed), torn atomic-write
  // debris, and an unrelated file the store must leave alone.
  ASSERT_TRUE(WriteFullFile(dir + "/" + FullFileName(1), 1).ok());
  ASSERT_TRUE(WriteDeltaFile(dir + "/" + DeltaFileName(1, 2), 1, 2, {0}).ok());
  ASSERT_TRUE(WriteDeltaFile(dir + "/" + DeltaFileName(2, 3), 2, 3, {1}).ok());
  const std::string orphan = dir + "/" + DeltaFileName(5, 6);
  ASSERT_TRUE(WriteDeltaFile(orphan, 5, 6, {2}).ok());
  WriteFileBytes(dir + "/" + FullFileName(4) + ".tmp", "torn atomic write");
  WriteFileBytes(dir + "/notes.txt", "operator scratch file");

  MetricsRegistry metrics;
  const std::string journal_path = TestTempPath("sf_recover_readmit.journal");
  RunJournal journal(journal_path);
  SnapshotStoreOptions options;
  options.metrics = &metrics;
  options.journal = &journal;
  auto store = MustOpen(dir, options);

  const StoreRecoveryReport& report = store->recovery_report();
  EXPECT_TRUE(report.manifest_rebuilt);
  EXPECT_EQ(report.recovered, 3);
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_EQ(report.tmp_removed, 1);
  EXPECT_EQ(report.missing, 0);
  EXPECT_EQ(report.gc_resumed, 0);

  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(orphan + ".corrupt"));
  EXPECT_FALSE(fs::exists(dir + "/" + FullFileName(4) + ".tmp"));
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));

  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok()) << lineage.status().ToString();
  EXPECT_EQ(lineage.value().version, 3);
  ASSERT_EQ(lineage.value().delta_paths.size(), 2u);
  EXPECT_EQ(lineage.value().delta_paths[0], store->DeltaPath(1, 2));
  EXPECT_EQ(lineage.value().delta_paths[1], store->DeltaPath(2, 3));

  const MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(ms.CounterValue("store_recovered_total"), 3);
  EXPECT_EQ(ms.CounterValue("store_quarantined_total"), 1);

  ASSERT_TRUE(journal.Flush().ok());
  const std::string events = ReadFileBytes(journal_path);
  EXPECT_NE(events.find("\"event\":\"store_recovery\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"store_quarantine\""), std::string::npos);
  std::remove(journal_path.c_str());
}

TEST_F(StoreFaultTest, RecoveryQuarantinesTornAndOrphanedArtifacts) {
  const std::string dir = FreshDir("sf_recover_torn");
  fs::create_directories(dir);
  ASSERT_TRUE(WriteFullFile(dir + "/" + FullFileName(1), 1).ok());
  const std::string torn = dir + "/" + DeltaFileName(1, 2);
  ASSERT_TRUE(WriteDeltaFile(torn, 1, 2, {0}).ok());
  TruncateFile(torn, 64);
  // Valid in isolation, but its base (version 2) died with the torn delta:
  // the chain to a full snapshot is broken, so it can never be applied.
  ASSERT_TRUE(WriteDeltaFile(dir + "/" + DeltaFileName(2, 3), 2, 3, {1}).ok());

  auto store = MustOpen(dir);
  EXPECT_EQ(store->recovery_report().recovered, 1);
  EXPECT_EQ(store->recovery_report().quarantined, 2);
  EXPECT_TRUE(fs::exists(torn + ".corrupt"));
  EXPECT_TRUE(fs::exists(dir + "/" + DeltaFileName(2, 3) + ".corrupt"));

  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 1);
  EXPECT_TRUE(lineage.value().delta_paths.empty());
}

TEST_F(StoreFaultTest, RecoveryRebuildsCorruptStoreManifest) {
  const std::string dir = FreshDir("sf_recover_manifest");
  {
    auto store = MustOpen(dir);
    ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
    ASSERT_TRUE(store->CommitFull(1).ok());
    ASSERT_TRUE(WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0}).ok());
    ASSERT_TRUE(store->CommitDelta(1, 2).ok());
  }
  FlipByteOnDisk(dir + "/STORE_MANIFEST", 20, 0x01);

  auto store = MustOpen(dir);
  EXPECT_TRUE(store->recovery_report().manifest_rebuilt);
  EXPECT_EQ(store->recovery_report().quarantined, 1);  // The manifest.
  EXPECT_EQ(store->recovery_report().recovered, 2);
  EXPECT_TRUE(fs::exists(dir + "/STORE_MANIFEST.corrupt"));
  EXPECT_TRUE(fs::exists(dir + "/STORE_MANIFEST"));  // Rewritten.

  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 2);
}

TEST_F(StoreFaultTest, RecoveryCountsMissingActiveFiles) {
  const std::string dir = FreshDir("sf_recover_missing");
  {
    auto store = MustOpen(dir);
    ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
    ASSERT_TRUE(store->CommitFull(1).ok());
    ASSERT_TRUE(WriteFullFile(store->FullPath(2), 2).ok());
    ASSERT_TRUE(store->CommitFull(2).ok());
  }
  // Operator rm (or a lost directory entry after an unsynced rename).
  fs::remove(dir + "/" + FullFileName(1));

  auto store = MustOpen(dir);
  EXPECT_EQ(store->recovery_report().missing, 1);
  EXPECT_EQ(store->recovery_report().recovered, 0);
  EXPECT_EQ(store->recovery_report().quarantined, 0);
  ASSERT_EQ(store->Artifacts().size(), 1u);
  EXPECT_EQ(store->Artifacts()[0].version, 2);
}

// ---------------------------------------------------------------------------
// Retention GC

TEST_F(StoreFaultTest, RetentionGCDropsChainsRootedAtExpiredFulls) {
  const std::string dir = FreshDir("sf_gc_retention");
  MetricsRegistry metrics;
  const std::string journal_path = TestTempPath("sf_gc_retention.journal");
  RunJournal journal(journal_path);
  SnapshotStoreOptions options;
  options.retain_full = 2;
  options.gc_on_commit = true;
  options.metrics = &metrics;
  options.journal = &journal;
  auto store = MustOpen(dir, options);

  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
  ASSERT_TRUE(store->CommitFull(1).ok());
  ASSERT_TRUE(WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0}).ok());
  ASSERT_TRUE(store->CommitDelta(1, 2).ok());
  ASSERT_TRUE(WriteFullFile(store->FullPath(3), 3).ok());
  ASSERT_TRUE(store->CommitFull(3).ok());
  ASSERT_TRUE(WriteDeltaFile(store->DeltaPath(3, 4), 3, 4, {1}).ok());
  ASSERT_TRUE(store->CommitDelta(3, 4).ok());
  // Two fulls retained: nothing collected yet.
  EXPECT_EQ(store->stats().gc_deleted_total, 0);

  // Full 5 expires full 1; the 1->2 delta chain dies with its base.
  ASSERT_TRUE(WriteFullFile(store->FullPath(5), 5).ok());
  ASSERT_TRUE(store->CommitFull(5).ok());

  EXPECT_FALSE(fs::exists(store->FullPath(1)));
  EXPECT_FALSE(fs::exists(store->DeltaPath(1, 2)));
  EXPECT_TRUE(fs::exists(store->FullPath(3)));
  EXPECT_TRUE(fs::exists(store->DeltaPath(3, 4)));
  EXPECT_TRUE(fs::exists(store->FullPath(5)));

  EXPECT_EQ(store->stats().gc_deleted_total, 2);
  EXPECT_EQ(store->stats().artifacts, 3);
  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 5);

  const MetricsSnapshot ms = metrics.Snapshot();
  EXPECT_EQ(ms.CounterValue("store_gc_deleted_total"), 2);
  EXPECT_EQ(GaugeValue(ms, "store_artifacts_total"), 3.0);

  ASSERT_TRUE(journal.Flush().ok());
  EXPECT_NE(ReadFileBytes(journal_path).find("\"event\":\"store_gc\""),
            std::string::npos);
  std::remove(journal_path.c_str());
}

TEST_F(StoreFaultTest, GCNeverTouchesLiveLineage) {
  const std::string dir = FreshDir("sf_gc_live");
  SnapshotStoreOptions options;
  options.retain_full = 1;
  options.gc_on_commit = false;
  auto store = MustOpen(dir, options);

  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
  ASSERT_TRUE(store->CommitFull(1).ok());
  ASSERT_TRUE(WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0}).ok());
  ASSERT_TRUE(store->CommitDelta(1, 2).ok());
  store->set_live_version(2);
  ASSERT_TRUE(WriteFullFile(store->FullPath(3), 3).ok());
  ASSERT_TRUE(store->CommitFull(3).ok());

  // Retention (keep 1 full) wants full 1 and its delta gone, but version 2
  // is live: its whole lineage is untouchable.
  ASSERT_TRUE(store->RunGC().ok());
  EXPECT_TRUE(fs::exists(store->FullPath(1)));
  EXPECT_TRUE(fs::exists(store->DeltaPath(1, 2)));
  EXPECT_EQ(store->stats().gc_deleted_total, 0);

  // Serving moved on: the old lineage is collectable now.
  store->set_live_version(3);
  ASSERT_TRUE(store->RunGC().ok());
  EXPECT_FALSE(fs::exists(store->FullPath(1)));
  EXPECT_FALSE(fs::exists(store->DeltaPath(1, 2)));
  EXPECT_EQ(store->stats().gc_deleted_total, 2);
  ASSERT_EQ(store->Artifacts().size(), 1u);
  EXPECT_EQ(store->Artifacts()[0].version, 3);
}

TEST_F(StoreFaultTest, RecoveryResumesCrashedGC) {
  // Crash between the condemn manifest write and the unlink: the file is
  // still on disk but condemned — recovery must finish the deletion.
  {
    const std::string dir = FreshDir("sf_gc_crash_unlink");
    SnapshotStoreOptions options;
    options.retain_full = 1;
    options.gc_on_commit = false;
    auto store = MustOpen(dir, options);
    ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
    ASSERT_TRUE(store->CommitFull(1).ok());
    ASSERT_TRUE(WriteFullFile(store->FullPath(2), 2).ok());
    ASSERT_TRUE(store->CommitFull(2).ok());

    FaultInjector::Instance().ArmCrashPoint(1);
    Status crashed = store->RunGC();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.message().find("injected crash before gc unlink"),
              std::string::npos)
        << crashed.ToString();
    EXPECT_TRUE(fs::exists(store->FullPath(1)));
    FaultInjector::Instance().Reset();
    store.reset();

    auto reopened = MustOpen(dir, options);
    EXPECT_EQ(reopened->recovery_report().gc_resumed, 1);
    EXPECT_FALSE(fs::exists(reopened->FullPath(1)));
    EXPECT_EQ(reopened->stats().gc_deleted_total, 1);
    ASSERT_EQ(reopened->Artifacts().size(), 1u);
    EXPECT_EQ(reopened->Artifacts()[0].version, 2);
  }

  // Crash between the unlink and the final manifest write: the file is
  // already gone but still listed condemned — recovery just retires the
  // entry (nothing left to delete).
  {
    const std::string dir = FreshDir("sf_gc_crash_final");
    SnapshotStoreOptions options;
    options.retain_full = 1;
    options.gc_on_commit = false;
    auto store = MustOpen(dir, options);
    ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
    ASSERT_TRUE(store->CommitFull(1).ok());
    ASSERT_TRUE(WriteFullFile(store->FullPath(2), 2).ok());
    ASSERT_TRUE(store->CommitFull(2).ok());

    FaultInjector::Instance().ArmCrashPoint(2);
    Status crashed = store->RunGC();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(
        crashed.message().find("injected crash before gc final manifest"),
        std::string::npos)
        << crashed.ToString();
    EXPECT_FALSE(fs::exists(store->FullPath(1)));
    FaultInjector::Instance().Reset();
    store.reset();

    auto reopened = MustOpen(dir, options);
    EXPECT_EQ(reopened->recovery_report().gc_resumed, 1);
    EXPECT_EQ(reopened->stats().gc_deleted_total, 0);  // Nothing to unlink.
    ASSERT_EQ(reopened->Artifacts().size(), 1u);
    EXPECT_EQ(reopened->Artifacts()[0].version, 2);
  }
}

// ---------------------------------------------------------------------------
// Kill-at-every-step sweep

/// One publish pipeline: two chained deltas, then a full that (with
/// retain_full = 1) triggers a GC collecting the whole old chain. Stops at
/// the first error, exactly like a killed process.
Status PublishPipeline(SnapshotStore* store) {
  Status status = WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0});
  if (!status.ok()) return status;
  status = store->CommitDelta(1, 2);
  if (!status.ok()) return status;
  status = WriteDeltaFile(store->DeltaPath(2, 3), 2, 3, {1});
  if (!status.ok()) return status;
  status = store->CommitDelta(2, 3);
  if (!status.ok()) return status;
  status = WriteFullFile(store->FullPath(4), 4);
  if (!status.ok()) return status;
  return store->CommitFull(4);
}

TEST_F(StoreFaultTest, KillAtEveryStepLeavesStoreLoadable) {
  SnapshotStoreOptions options;
  options.retain_full = 1;
  options.gc_on_commit = true;
  bool swept_past_last_step = false;
  for (int64_t step = 0; step < 32; ++step) {
    const std::string dir = FreshDir("sf_sweep");
    auto store = MustOpen(dir, options);
    ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
    ASSERT_TRUE(store->CommitFull(1).ok());

    FaultInjector::Instance().ArmCrashPoint(step);
    const Status outcome = PublishPipeline(store.get());
    const bool fired = FaultInjector::Instance().faults_fired() > 0;
    FaultInjector::Instance().Reset();
    if (fired) {
      ASSERT_FALSE(outcome.ok()) << "step " << step;
      EXPECT_NE(outcome.message().find("injected crash"), std::string::npos)
          << outcome.ToString();
    } else {
      ASSERT_TRUE(outcome.ok())
          << "step " << step << ": " << outcome.ToString();
    }
    store.reset();

    // Whatever the interleaving left behind, the store must reopen
    // cleanly (nothing torn — every artifact write is atomic)...
    auto reopened = MustOpen(dir, options);
    EXPECT_EQ(reopened->recovery_report().quarantined, 0) << "step " << step;
    EXPECT_EQ(reopened->recovery_report().missing, 0) << "step " << step;
    auto lineage = reopened->NewestLineage();
    ASSERT_TRUE(lineage.ok())
        << "step " << step << ": " << lineage.status().ToString();
    EXPECT_GE(lineage.value().version, 1) << "step " << step;

    // ...and the next publish must go through.
    const int64_t next = reopened->NextVersion();
    ASSERT_TRUE(WriteFullFile(reopened->FullPath(next), next).ok());
    Status committed = reopened->CommitFull(next);
    ASSERT_TRUE(committed.ok())
        << "step " << step << ": " << committed.ToString();
    auto after = reopened->NewestLineage();
    ASSERT_TRUE(after.ok()) << "step " << step;
    EXPECT_EQ(after.value().version, next) << "step " << step;

    if (!fired) {
      swept_past_last_step = true;  // Every crash point has been exercised.
      break;
    }
  }
  EXPECT_TRUE(swept_past_last_step)
      << "sweep never reached a crash-free run; pipeline has more crash "
         "points than the sweep bound";
}

// ---------------------------------------------------------------------------
// Disk faults in the publish path

TEST_F(StoreFaultTest, EnospcPublishLeavesUpdaterAndStoreConsistent) {
  const std::string dir = FreshDir("sf_enospc");
  auto store = MustOpen(dir);
  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
  ASSERT_TRUE(store->CommitFull(1).ok());

  auto seeded = OnlineUpdater::FromSnapshot(store->FullPath(1), {}, {});
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  std::unique_ptr<OnlineUpdater> updater = std::move(seeded).value();
  EXPECT_EQ(updater->published_version(), 1);
  ASSERT_TRUE(updater->AddInteractions({{1, 2}, {3, 17}}).ok());
  ASSERT_TRUE(updater->ApplyPending().ok());
  const int64_t dirty_before = updater->dirty_shard_count();
  ASSERT_GT(dirty_before, 0);

  FaultInjector::Instance().ArmEnospc(1);
  Status publish = updater->PublishDelta(store.get());
  EXPECT_EQ(publish.code(), StatusCode::kResourceExhausted)
      << publish.ToString();

  // The failed publish changed nothing: version chain and dirty set are
  // intact, no delta file, no half-written temp files, store unchanged.
  EXPECT_EQ(updater->published_version(), 1);
  EXPECT_EQ(updater->dirty_shard_count(), dirty_before);
  EXPECT_FALSE(fs::exists(store->DeltaPath(1, 2)));
  EXPECT_EQ(CountWithSuffix(dir, ".tmp"), 0);
  EXPECT_EQ(store->stats().committed_total, 1);

  // The disk came back: the very next publish succeeds on the same chain
  // step.
  FaultInjector::Instance().Reset();
  Status retried = updater->PublishDelta(store.get());
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(updater->published_version(), 2);
  EXPECT_EQ(updater->dirty_shard_count(), 0);
  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 2);
}

TEST_F(StoreFaultTest, FsyncFailureRollsBackCommitWithErrnoDetail) {
  const std::string dir = FreshDir("sf_fsync");
  auto store = MustOpen(dir);
  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());

  FaultInjector::Instance().ArmFsyncFailures(1);
  Status committed = store->CommitFull(1);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.code(), StatusCode::kIoError) << committed.ToString();
  EXPECT_NE(committed.message().find("fsync failed"), std::string::npos)
      << committed.ToString();
  EXPECT_NE(committed.message().find("errno"), std::string::npos)
      << committed.ToString();

  // The manifest write never became durable, so the registration rolled
  // back; the artifact file itself is intact and commits cleanly once the
  // fault clears.
  EXPECT_EQ(store->Artifacts().size(), 0u);
  FaultInjector::Instance().Reset();
  Status retried = store->CommitFull(1);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(store->stats().artifacts, 1);
}

// ---------------------------------------------------------------------------
// Handoff to serving and training-side export

RecServiceOptions StoreServiceOptions() {
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.load_backoff.max_attempts = 1;
  options.sleep_ms = [](double) {};
  return options;
}

std::shared_ptr<const PopularityRanker> StoreFallback() {
  EdgeList train;
  for (int64_t i = 0; i < kItems; ++i) train.push_back({i % kUsers, i});
  return std::make_shared<PopularityRanker>(kItems, train);
}

TEST_F(StoreFaultTest, LoadIntoHandsNewestLineageToRecService) {
  const std::string dir = FreshDir("sf_loadinto");
  auto store = MustOpen(dir);

  // An empty store has nothing to hand over.
  RecService empty_service(StoreFallback(), StoreServiceOptions());
  EXPECT_EQ(store->LoadInto(&empty_service).code(), StatusCode::kNotFound);

  ASSERT_TRUE(WriteFullFile(store->FullPath(1), 1).ok());
  ASSERT_TRUE(store->CommitFull(1).ok());
  ASSERT_TRUE(WriteDeltaFile(store->DeltaPath(1, 2), 1, 2, {0}).ok());
  ASSERT_TRUE(store->CommitDelta(1, 2).ok());

  RecService service(StoreFallback(), StoreServiceOptions());
  Status loaded = store->LoadInto(&service);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 2);
}

/// Minimal factor model: exactly two parameter tensors (users then items)
/// over one embedding dimension — the layout the store-routed export
/// manages.
class StoreFactorModel : public TrainableModel {
 public:
  StoreFactorModel(Tensor users, Tensor items)
      : users_(std::move(users)), items_(std::move(items)) {}

  double TrainStep(Rng* rng) override {
    (void)rng;
    return 0.0;
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {users_, items_}; }
  std::string name() const override { return "store-factor"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(static_cast<size_t>(items_.rows()), 0.0f);
  }

 private:
  Tensor users_;
  Tensor items_;
};

/// A single-tensor model: not a factor layout, so the store-routed export
/// must refuse it (the path-based export would fall back to v2).
class StoreScalarModel : public TrainableModel {
 public:
  StoreScalarModel() : parameter_(1, 1, std::vector<float>{1.0f}) {}
  double TrainStep(Rng* rng) override {
    (void)rng;
    return 0.0;
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {parameter_}; }
  std::string name() const override { return "store-scalar"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(1, 0.0f);
  }

 private:
  Tensor parameter_;
};

TEST_F(StoreFaultTest, StoreRoutedExportAssignsVersionsAndRegisters) {
  const std::string dir = FreshDir("sf_export");
  SnapshotStoreOptions store_options;
  store_options.retain_full = 2;
  auto store = MustOpen(dir, store_options);

  StoreFactorModel model(UserTable(), ItemTable());
  ServingExportOptions export_options;
  export_options.items_per_shard = kIps;

  // Unversioned exports take the store's next version: 1, then 2.
  Status exported = ExportServingCheckpoint(&model, store.get(),
                                            export_options);
  ASSERT_TRUE(exported.ok()) << exported.ToString();
  exported = ExportServingCheckpoint(&model, store.get(), export_options);
  ASSERT_TRUE(exported.ok()) << exported.ToString();
  ASSERT_EQ(store->Artifacts().size(), 2u);
  EXPECT_EQ(store->Artifacts()[0].version, 1);
  EXPECT_EQ(store->Artifacts()[1].version, 2);
  EXPECT_TRUE(fs::exists(store->FullPath(2)));

  // An explicitly versioned export lands under that version and retention
  // (keep 2 fulls) expires the oldest.
  export_options.version = 7;
  exported = ExportServingCheckpoint(&model, store.get(), export_options);
  ASSERT_TRUE(exported.ok()) << exported.ToString();
  EXPECT_FALSE(fs::exists(store->FullPath(1)));
  ASSERT_EQ(store->Artifacts().size(), 2u);
  EXPECT_EQ(store->Artifacts()[1].version, 7);
  auto lineage = store->NewestLineage();
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(lineage.value().version, 7);

  // The exported artifact round-trips through the serving loader.
  auto loaded = EmbeddingSnapshot::Load(store->FullPath(7));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->parent_version(), 7);

  // Only the two-tensor factor layout is store-managed.
  StoreScalarModel scalar;
  EXPECT_EQ(ExportServingCheckpoint(&scalar, store.get()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace imcat
