#ifndef IMCAT_TRAIN_ONLINE_UPDATER_H_
#define IMCAT_TRAIN_ONLINE_UPDATER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/ingest.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/status.h"

/// \file online_updater.h
/// Online fold-in updates for two-tensor factor models, closing the
/// ingestion -> serving loop (DESIGN.md §10). The updater seeds from a
/// published serving snapshot, streams new interactions in through the
/// hardened ingest path (ingest.h: same 9-class taxonomy, same
/// kept + quarantined == total invariant), applies closed-form
/// least-squares fold-in solves to the touched user/item factor rows —
/// including rows for brand-new ids (cold-start fold-in) — and publishes
/// the result as a *delta* snapshot carrying only the user rows and item
/// shards that changed, chained to the base version the serving layer has
/// live. Item rows are held per shard (the unit a delta ships), so
/// cold-start growth extends only the tail shard and publishes write
/// straight from the updater's own buffers.
///
/// Fold-in (the iALS-style per-row solve): with item factors V fixed, the
/// least-squares user row for user u with observed item set I_u is
///
///   p_u = (λI + w Σ_{i∈I_u} v_i v_iᵀ)⁻¹ (w Σ_{i∈I_u} v_i),
///
/// a d×d ridge system solved by Cholesky; item rows are symmetric with
/// the *updated* user factors. One ApplyPending pass solves all touched
/// users in ascending id order, then all touched items in ascending id
/// order — a fixed order with double-precision accumulation, so a run is
/// bit-identical regardless of how the same edges were batched, and
/// kill-and-resume through Checkpoint/Restore is bit-identical too.
///
/// Cold start: an id at or past the current table size grows the table
/// (zero rows; items grow the tail shard, then new shards) and the fold-in solve gives it real factors from its
/// observed neighbours. The one unreachable case is a new user observed
/// only with new items (and vice versa): both rows start zero, so the
/// solve is zero — those rows stay cold until an edge touching trained
/// factors arrives.
///
/// Determinism contract: every structure that influences published bytes
/// (factor tables, adjacency, pending edges, dirty user and shard sets) is
/// either
/// checkpointed exactly (floats round-trip bit-identically through
/// checkpoint v2) or rebuilt deterministically on Restore.

namespace imcat {

class SnapshotStore;

/// Updater configuration.
struct OnlineUpdaterOptions {
  /// Ridge regulariser λ of the fold-in solve (> 0 keeps the system SPD).
  double l2 = 0.1;
  /// Confidence weight w on observed interactions (target rating 1).
  double implicit_weight = 1.0;
  /// Growth guards: ceilings on ids beyond the seeded tables, so one
  /// corrupt id in a stream cannot balloon the factor tables. Edges past
  /// a guard are rejected-and-counted, never applied.
  int64_t max_new_users = int64_t{1} << 20;
  int64_t max_new_items = int64_t{1} << 20;
  /// Ingest policy for IngestFile. Defaults to permissive: a streaming
  /// consumer quarantines bad records and keeps going; strict mode is for
  /// pipelines that would rather halt the stream.
  IngestOptions ingest = [] {
    IngestOptions o;
    o.policy = ParsePolicy::kPermissive;
    return o;
  }();
  /// Instrumentation: the `updater_*` metric family (ingested / duplicate
  /// / rejected / applied edge counters, solve counter, pending gauge,
  /// apply-latency histogram) in `metrics`, or in a private registry when
  /// it is null, and "updater_*" journal events when `journal` is set.
  MetricsRegistry* metrics = nullptr;
  RunJournal* journal = nullptr;
};

/// Streaming fold-in updater over one (user table, item table) factor
/// pair. Not thread-safe: one updater is one logical stream consumer;
/// concurrent serving reads its *published* snapshot files, never its
/// in-memory state.
class OnlineUpdater {
 public:
  /// Seeds the updater from a published sharded (v3) serving snapshot,
  /// read as row-major tables, plus the interactions the model was trained
  /// on
  /// (`seen` drives the fold-in solves for returning users/items). Fails
  /// with kFailedPrecondition when the snapshot has quarantined shards
  /// (folding in on top of zeroed rows would publish garbage) and
  /// kInvalidArgument when `seen` references ids outside the snapshot.
  ///
  /// The version chain starts at the snapshot's manifest version
  /// (parent_version). Exports published through a versioned pipeline
  /// line up with RecService automatically; for unversioned exports call
  /// set_published_version with the version the service reports live.
  static StatusOr<std::unique_ptr<OnlineUpdater>> FromSnapshot(
      const std::string& snapshot_path, const EdgeList& seen,
      const OnlineUpdaterOptions& options);

  /// Resumes an updater from a Checkpoint() file — the kill-and-resume
  /// path: the restored updater continues bit-identically to one that was
  /// never interrupted.
  static StatusOr<std::unique_ptr<OnlineUpdater>> FromCheckpoint(
      const std::string& checkpoint_path, const OnlineUpdaterOptions& options);

  /// Streams one micro-batch edge file through the hardened ingest path
  /// and queues its new unique edges. Duplicates of already-applied or
  /// already-pending interactions are counted and skipped; ids past a
  /// growth guard are rejected-and-counted. The per-file report folds
  /// into the cumulative `ingest_report()`.
  Status IngestFile(const std::string& path);

  /// Queues interactions arriving programmatically (same dedup and
  /// growth-guard rules as IngestFile, minus the file parsing).
  Status AddInteractions(const EdgeList& edges);

  /// Applies every pending edge: grows the tables for new ids, inserts
  /// the edges into the adjacency, then re-solves touched users
  /// (ascending id) and touched items (ascending id, against the updated
  /// user factors). Re-solved and grown user rows join the dirty user set;
  /// shards whose item rows changed — plus any shard whose item range
  /// grew — join the dirty shard set, both for the next delta publish.
  Status ApplyPending();

  /// Writes the accumulated changes as a delta snapshot: only the dirty
  /// user rows and the dirty item shards, chained
  /// published_version() -> published_version() + 1. Refuses with
  /// kFailedPrecondition when nothing changed since the last publish. On
  /// success the dirty set clears and the version chain advances.
  Status PublishDelta(const std::string& path);

  /// Writes a full sharded (v3) snapshot at version
  /// published_version() + 1 — the resync path when serving lost the
  /// delta chain (e.g. after repeated delta_rejected, or a refused
  /// format-version-1 delta). Also clears the dirty sets and advances the
  /// chain.
  Status PublishFull(const std::string& path);

  /// Store-routed publishes (snapshot_store.h): the artifact is written
  /// to the store's versioned path for the chain
  /// published_version() -> published_version() + 1 and then registered
  /// in the store manifest. A crash between the two steps leaves a valid
  /// unregistered file the store's startup recovery readmits; a failed
  /// artifact write leaves the updater state unchanged (the next publish
  /// retries the same chain step) and no half-written file behind.
  Status PublishDelta(SnapshotStore* store);
  Status PublishFull(SnapshotStore* store);

  /// Saves the complete updater state (factor tables, adjacency, pending
  /// edges, dirty users and shards, version chain) atomically in
  /// checkpoint v2 layout. Restore on a fresh updater continues
  /// bit-identically. Restore also reads an updater checkpoint written
  /// before the dirty-user list existed; it then marks every user dirty
  /// if any was, so the next delta re-ships the whole user table once.
  Status Checkpoint(const std::string& path) const;
  Status Restore(const std::string& path);

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return dim_; }
  int64_t items_per_shard() const { return items_per_shard_; }
  int64_t pending_edges() const {
    return static_cast<int64_t>(pending_.size());
  }
  int64_t dirty_shard_count() const {
    return static_cast<int64_t>(dirty_shards_.size());
  }
  int64_t duplicates_skipped() const { return duplicates_skipped_; }
  int64_t growth_rejected() const { return growth_rejected_; }
  int64_t applied_edges_total() const { return applied_edges_total_; }

  /// The base version the next PublishDelta chains onto.
  int64_t published_version() const { return published_version_; }
  /// Re-anchors the version chain to what the serving layer reports live
  /// (needed when the seed snapshot was unversioned).
  void set_published_version(int64_t version) {
    published_version_ = version;
  }

  /// Cumulative ingest accounting across every IngestFile call
  /// (kept + quarantined == total_records holds for the sum).
  const IngestFileReport& ingest_report() const { return ingest_report_; }

 private:
  OnlineUpdater() = default;

  void ResolveMetrics();
  /// Ridge fold-in solve for one user/item row (see file comment).
  void SolveUser(int64_t u);
  void SolveItem(int64_t i);
  /// Item `i`'s row-major factor row inside its shard.
  float* ItemRow(int64_t i) {
    return item_shards_[static_cast<size_t>(i / items_per_shard_)].data() +
           (i % items_per_shard_) * dim_;
  }
  /// Sizes item_shards_ for num_items_ (zero rows for new items).
  void GrowItemShards();

  OnlineUpdaterOptions options_;
  int64_t dim_ = 0;
  int64_t items_per_shard_ = 0;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  /// Table sizes at seed time; the growth guards cap ids relative to
  /// these, not to the current (already grown) sizes.
  int64_t initial_users_ = 0;
  int64_t initial_items_ = 0;
  int64_t published_version_ = 0;
  std::vector<float> users_;
  /// Row-major item rows, one buffer per shard of items_per_shard_ items.
  std::vector<std::vector<float>> item_shards_;
  /// Adjacency, both directions sorted by id. user_items_ is the
  /// checkpointed source of truth; item_users_ is rebuilt from it.
  std::vector<std::vector<int64_t>> user_items_;
  std::vector<std::vector<int64_t>> item_users_;
  /// Unique new edges awaiting ApplyPending, in arrival order, with a
  /// sorted index for O(log n) duplicate checks (rebuilt on Restore).
  EdgeList pending_;
  std::set<std::pair<int64_t, int64_t>> pending_set_;
  /// Item shards to include in the next delta (ordered — the delta
  /// writer requires ascending indices).
  std::set<int64_t> dirty_shards_;
  /// User rows to include in the next delta (re-solved or grown).
  std::set<int64_t> dirty_users_;
  int64_t duplicates_skipped_ = 0;
  int64_t growth_rejected_ = 0;
  int64_t applied_edges_total_ = 0;
  IngestFileReport ingest_report_;

  /// Private registry when options_.metrics is null.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  Counter* edges_ingested_total_ = nullptr;
  Counter* edges_duplicate_total_ = nullptr;
  Counter* edges_rejected_total_ = nullptr;
  Counter* edges_applied_total_ = nullptr;
  Counter* solves_total_ = nullptr;
  Counter* publishes_total_ = nullptr;
  Gauge* pending_gauge_ = nullptr;
  Histogram* apply_ms_ = nullptr;
};

}  // namespace imcat

#endif  // IMCAT_TRAIN_ONLINE_UPDATER_H_
