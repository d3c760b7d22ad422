#ifndef IMCAT_SERVE_SNAPSHOT_STORE_H_
#define IMCAT_SERVE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/status.h"

/// \file snapshot_store.h
/// Crash-safe lifecycle management for the snapshot directory the
/// train->serve loop publishes into. The publishers (OnlineUpdater,
/// ExportServingCheckpoint) write durable artifacts — full sharded
/// snapshots ("IMS3") and delta snapshots ("IMD3") — but a directory of
/// artifacts is not a system: a crash mid-publish strands a valid file
/// nobody knows about, a disk-full or an operator `rm` breaks the delta
/// chain RecService needs, and nothing ever deletes anything. The store
/// owns the directory end-to-end:
///
///  - **publish**: versioned file naming (`full-<version>.ims3`,
///    `delta-<base>-<version>.imd3`), every artifact written atomically by
///    its format writer, and a checksummed `STORE_MANIFEST` rewritten
///    (atomically) *last* — so a publish is one atomic transition:
///    either the manifest lists the artifact or the next startup recovery
///    finds-and-readmits it;
///  - **startup recovery** (`Open`): scan the directory, drop `*.tmp`
///    debris, validate every artifact's internal manifest, quarantine
///    anything torn or mis-labeled (rename to `<name>.corrupt`, journal
///    event), readmit valid artifacts the store manifest missed
///    (crashed publishes), finish deletions a crashed GC left behind
///    (condemned entries), quarantine deltas whose chain to a full
///    snapshot is broken, and rewrite the manifest to match reality;
///  - **retention GC** (`RunGC`): keep the newest `retain_full` full
///    snapshots plus every delta still chained to a retained base,
///    never touching the live-loaded lineage, and delete the rest
///    crash-safely — manifest first (victims marked *condemned*), then
///    files (deltas before their base, chain tip first), then the
///    manifest again (condemned entries dropped). A crash at any point
///    leaves either extra-but-consistent files (recovery resumes the
///    deletion) or a shorter-but-loadable chain, never an unloadable
///    store.
///
/// The recovery state machine, spelled out (DESIGN.md durability
/// section): a file can be *unregistered* (valid on disk, not in the
/// manifest -> readmitted, `store_recovered_total`), *active* (listed and
/// valid), *condemned* (listed, deletion decided but possibly unfinished
/// -> deletion resumed), *torn* (fails validation -> `.corrupt`,
/// `store_quarantined_total`), or *debris* (`*.tmp` -> removed). The
/// manifest-last publish order and the condemn-first GC order make every
/// crash interleaving land in exactly one of those states.
///
/// Metrics (in `options.metrics`, or a private registry when it is null;
/// one registry serves one store): `store_artifacts_total` /
/// `store_bytes` gauges of the current registered store,
/// `store_committed_total`, `store_gc_deleted_total`,
/// `store_recovered_total`, `store_quarantined_total` counters. Journal events: `store_recovery`
/// (one per Open), `store_gc` (one per collecting run), `store_commit`
/// (one per registered publish), `store_quarantine` (one per renamed
/// file).
///
/// Thread-safe: one mutex over all store state. The store is a
/// control-plane object (publishes and GCs are rare); serving reads go
/// through RecService's own snapshot pointer, never through the store.

namespace imcat {

class RecService;

/// One artifact registered in the store manifest.
struct StoreArtifact {
  enum class Kind { kFull, kDelta };
  Kind kind = Kind::kFull;
  /// Version this artifact produces when loaded/applied.
  int64_t version = 0;
  /// For deltas, the version the delta chains onto; 0 for full snapshots.
  int64_t base_version = 0;
  /// File name inside the store directory.
  std::string filename;
  int64_t bytes = 0;
  /// GC tombstone: deletion decided (manifest committed) but possibly not
  /// finished. Recovery completes it; the artifact is never loadable.
  bool condemned = false;
};

/// Store configuration.
struct SnapshotStoreOptions {
  /// Full snapshots to retain (>= 1). Deltas survive exactly as long as
  /// the full snapshot their chain is rooted at.
  int64_t retain_full = 2;
  /// Run retention GC automatically after every successful commit.
  bool gc_on_commit = true;
  /// Instrumentation (metrics + journal names above); null metrics gives
  /// the store a private registry, null journal keeps no journal.
  MetricsRegistry* metrics = nullptr;
  RunJournal* journal = nullptr;
};

/// What startup recovery found and fixed (one per Open).
struct StoreRecoveryReport {
  /// STORE_MANIFEST was missing or failed its checksum and was rebuilt
  /// from the directory scan (the corrupt file, if any, is quarantined).
  bool manifest_rebuilt = false;
  /// Valid artifacts readmitted that the durable manifest did not list
  /// (publishes that crashed between artifact write and manifest commit,
  /// or everything when the manifest itself was rebuilt).
  int64_t recovered = 0;
  /// Files renamed to `.corrupt`: torn artifacts, mis-labeled artifacts,
  /// orphaned deltas (chain to a full snapshot broken), corrupt manifest.
  int64_t quarantined = 0;
  /// Manifest entries whose file vanished (operator rm, lost directory
  /// entry after an unsynced rename).
  int64_t missing = 0;
  /// Condemned entries whose deletion a crashed GC left unfinished and
  /// recovery completed.
  int64_t gc_resumed = 0;
  /// `*.tmp` files (torn atomic writes) removed.
  int64_t tmp_removed = 0;
};

/// Store counters, read from the `store_*` metrics under the store lock
/// (one consistent read).
struct StoreStats {
  int64_t artifacts = 0;  ///< Currently registered (non-condemned).
  int64_t bytes = 0;      ///< Their total on-disk size.
  int64_t committed_total = 0;
  int64_t gc_deleted_total = 0;
  int64_t recovered_total = 0;
  int64_t quarantined_total = 0;
};

/// The newest loadable base+delta chain: load `full_path`, then apply
/// `delta_paths` in order to reach `version`.
struct StoreLineage {
  int64_t version = 0;
  std::string full_path;
  std::vector<std::string> delta_paths;
};

/// Owns one snapshot directory: publish registration, startup recovery,
/// chain-aware retention GC.
class SnapshotStore {
 public:
  /// Opens (creating if needed) the store directory and runs startup
  /// recovery (see file comment). Fails with kIoError when the directory
  /// cannot be created or the recovered manifest cannot be written.
  static StatusOr<std::unique_ptr<SnapshotStore>> Open(
      const std::string& dir, const SnapshotStoreOptions& options = {});

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Path an artifact of the given version must be written to (inside the
  /// store directory, versioned name). The writer (WriteShardedSnapshot /
  /// WriteDeltaSnapshot) is atomic, so the file appears fully-formed.
  std::string FullPath(int64_t version) const;
  std::string DeltaPath(int64_t base_version, int64_t version) const;

  /// Registers an artifact previously written to FullPath/DeltaPath: the
  /// file is validated (its internal manifest must parse, checksum and
  /// agree with the versions in its name — a torn file is quarantined and
  /// kDataLoss returned), then the store manifest is rewritten atomically.
  /// With `gc_on_commit`, a successful commit triggers RunGC; a GC error
  /// is returned but the commit itself is already durable.
  Status CommitFull(int64_t version);
  Status CommitDelta(int64_t base_version, int64_t version);

  /// The newest version reachable through registered artifacts, with the
  /// full snapshot and delta chain that loads it. kNotFound when the
  /// store has no loadable chain.
  StatusOr<StoreLineage> NewestLineage() const;

  /// Hands the newest valid lineage to a RecService: LoadSnapshot on the
  /// chain's full snapshot, then LoadDelta for each chained delta.
  Status LoadInto(RecService* service) const;

  /// Retention GC (see file comment). No-op when nothing is deletable.
  Status RunGC();

  /// The version RecService currently serves. GC never condemns any
  /// artifact in this version's lineage, even when retention would drop
  /// it. Negative (the default) protects only by retention.
  void set_live_version(int64_t version);

  /// One past the newest version the store knows (>= 1); the version a
  /// store-assigned full publish should use.
  int64_t NextVersion() const;

  const std::string& dir() const { return dir_; }
  const StoreRecoveryReport& recovery_report() const { return recovery_; }
  StoreStats stats() const;
  /// Registered artifacts, ascending by version (condemned ones last).
  std::vector<StoreArtifact> Artifacts() const;

 private:
  SnapshotStore(std::string dir, const SnapshotStoreOptions& options);

  /// Startup recovery; only called from Open.
  Status Recover();

  Status CommitArtifact(StoreArtifact artifact);
  Status RunGCLocked();
  Status WriteManifestLocked();
  StatusOr<StoreLineage> NewestLineageLocked() const;
  /// Renames `filename` to `filename.corrupt` and journals it.
  void QuarantineLocked(const std::string& filename,
                        const std::string& reason);
  void UpdateGaugesLocked();
  std::string PathFor(const std::string& filename) const;

  const std::string dir_;
  const SnapshotStoreOptions options_;

  mutable std::mutex mu_;
  std::vector<StoreArtifact> artifacts_;
  int64_t live_version_ = -1;
  StoreRecoveryReport recovery_;
  /// Private registry when options.metrics is null.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  Counter* committed_total_ = nullptr;
  Counter* gc_deleted_total_ = nullptr;
  Counter* recovered_total_ = nullptr;
  Counter* quarantined_total_ = nullptr;
  Gauge* artifacts_gauge_ = nullptr;
  Gauge* bytes_gauge_ = nullptr;
};

}  // namespace imcat

#endif  // IMCAT_SERVE_SNAPSHOT_STORE_H_
