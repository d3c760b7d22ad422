#ifndef IMCAT_SERVE_SNAPSHOT_H_
#define IMCAT_SERVE_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/shard_format.h"
#include "tensor/score_kernel.h"
#include "util/status.h"

/// \file snapshot.h
/// Immutable factor-matrix snapshots for serving, loaded from the sharded
/// v3 format (shard_format.h): the item table is split into fixed
/// item-range shards, each with its own checksum, so a corrupt shard is
/// quarantined — its item range drops out of scoring while the rest of the
/// catalogue serves normally. (Monolithic v1/v2 checkpoints are refused.)
///
/// In memory, user rows stay row-major and each item shard is its own
/// immutable ItemShard: the shard's rows as 16-item dimension-major panels
/// local to the shard (tensor/score_kernel.h), the layout the scoring
/// kernel reads, plus the shard's state (fresh / stale / quarantined). A
/// snapshot holds one shared_ptr<const ItemShard> per shard, so a delta
/// builds only the shards it changes and every other shard is the base's
/// own object. A quarantined shard's panels are zeros (the quarantined
/// shards of one snapshot share one zero buffer): its items' lanes read 0.
///
/// Snapshots are shared immutably (shared_ptr<const>): the service
/// hot-swaps them atomically and mid-flight requests keep scoring against
/// the snapshot they started with, including its quarantine map.

namespace imcat {

/// One item shard of a snapshot: its rows as packed panels local to the
/// shard (item `begin + j` is lane `j % kPanelItems` of panel
/// `j / kPanelItems`, `NumPanels(end - begin)` panels, zero-padded tail)
/// and its state. Immutable once built; shared between every snapshot the
/// shard is unchanged in.
struct ItemShard {
  enum class State : uint8_t {
    kFresh,        ///< Validated rows of this publish.
    kStale,        ///< The previous publish's rows: a delta failed to
                   ///< replace them (see EmbeddingSnapshot::ApplyDelta).
    kQuarantined,  ///< No trustworthy rows; panels are zeros.
  };
  State state = State::kFresh;
  /// The packed panels; a stale shard shares its predecessor's buffer and
  /// quarantined shards share a zero buffer.
  std::shared_ptr<const std::vector<float>> panels;
};

/// Immutable user/item embedding matrices loaded from a sharded snapshot.
class EmbeddingSnapshot {
 public:
  /// Loads a snapshot from a sharded v3 snapshot file (the layout
  /// `WriteShardedSnapshot` and `ExportServingCheckpoint` write). Fails
  /// with kDataLoss on corruption the format cannot contain, kIoError on
  /// missing/unreadable files and kInvalidArgument on anything that is not
  /// a v3 snapshot — a monolithic v1/v2 checkpoint included. With
  /// `options.allow_partial` (the default), a corrupt item shard
  /// quarantines that shard instead of failing the load.
  static StatusOr<std::shared_ptr<EmbeddingSnapshot>> Load(
      const std::string& path, const SnapshotLoadOptions& options);

  /// Load with default options (partial loads allowed, one re-read).
  static StatusOr<std::shared_ptr<EmbeddingSnapshot>> Load(
      const std::string& path) {
    return Load(path, SnapshotLoadOptions{});
  }

  /// Applies a delta snapshot file (shard_format.h, "IMD3") on top of
  /// `base`, producing a complete new snapshot — the base is never mutated
  /// and a delta is never half-applied: any failure returns an error and
  /// leaves the caller serving the base unchanged.
  ///
  /// Refusals:
  ///  - kFailedPrecondition when the delta's `base_version` does not match
  ///    `base->version()` (stale or out-of-order delta);
  ///  - kInvalidArgument when the delta's geometry cannot chain onto the
  ///    base (dim / items_per_shard mismatch, or shrinking tables);
  ///  - kDataLoss when the delta's manifest, user rows, or every changed
  ///    shard fails validation;
  ///  - kInvalidArgument naming the version for a format-version-1 delta.
  ///
  /// Cost is O(changed): the user table is copied once and the shipped
  /// rows written over it; a shard the delta leaves alone is the base's
  /// own ItemShard (pointer-equal), and only changed or grown shards are
  /// built.
  ///
  /// Per-shard containment (with `options.allow_partial`): a corrupt
  /// changed shard whose item range is fully covered by healthy base data
  /// keeps the base's old rows and is marked **stale** — real scores, one
  /// publish behind — while a corrupt shard that is brand-new (past the
  /// base's catalogue) or was already quarantined in the base is
  /// **quarantined** (rows read 0). A shard whose range grew past the
  /// base's catalogue is quarantined until a delta ships it. A shard the
  /// delta replaces with valid data always comes out fresh, healing base
  /// quarantine/staleness.
  static StatusOr<std::shared_ptr<EmbeddingSnapshot>> ApplyDelta(
      const std::shared_ptr<const EmbeddingSnapshot>& base,
      const std::string& delta_path,
      const SnapshotLoadOptions& options = {});

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return dim_; }

  /// User factor row (row-major, `dim()` floats). Unchecked: callers must
  /// validate ids first (see ValidateUser).
  const float* user(int64_t u) const { return users_.data() + u * dim_; }

  /// Item `i`'s factor `c`. Unchecked; quarantined items read 0.
  float item_value(int64_t i, int64_t c) const {
    return shard_panels(i / items_per_shard_)[PanelOffset(
        i % items_per_shard_, c, dim_)];
  }

  /// Shard `s`'s items as packed panels local to the shard (see
  /// ItemShard): the form ScorePanels reads, `first_panel` counted from
  /// the shard's first item.
  const float* shard_panels(int64_t s) const {
    return shards_[static_cast<size_t>(s)]->panels->data();
  }

  /// Shard `s` itself, for checking what a delta shared with its base.
  const std::shared_ptr<const ItemShard>& shard(int64_t s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// A row-major copy of the item table (`num_items() x dim()`).
  std::vector<float> CopyItemRows() const;

  /// Row pointer into a row-major copy of the item table, built on the
  /// first call and kept for the snapshot's lifetime (`item(0)` is the
  /// whole `num_items() x dim()` table). For verification tools that
  /// brute-force rankings outside the library; it doubles the snapshot's
  /// item memory, so nothing on the serving path calls it.
  const float* item(int64_t i) const;

  /// Inner-product relevance score for one (user, item) pair. Unchecked.
  float Score(int64_t u, int64_t i) const {
    const float* a = user(u);
    const float* b = shard_panels(i / items_per_shard_) +
                     PanelOffset(i % items_per_shard_, 0, dim_);
    float s = 0.0f;
    for (int64_t d = 0; d < dim_; ++d) s += a[d] * b[d * kPanelItems];
    return s;
  }

  /// Bounds-checked id validation: kInvalidArgument for ids outside
  /// [0, num_users) / [0, num_items). The serving entry points call these
  /// so an out-of-range id from a request can never become an out-of-bounds
  /// read of the factor matrices.
  Status ValidateUser(int64_t u) const;
  Status ValidateItem(int64_t i) const;

  /// Checked scoring: kInvalidArgument for out-of-range ids, kUnavailable
  /// when the item's shard is quarantined (its row is zeroed — a silent 0.0
  /// score would be wrong, not missing).
  StatusOr<float> ScoreChecked(int64_t u, int64_t i) const;

  /// --- Shard topology. ---

  int64_t num_shards() const { return static_cast<int64_t>(shards_.size()); }
  int64_t items_per_shard() const { return items_per_shard_; }
  int64_t shard_of_item(int64_t i) const { return i / items_per_shard_; }

  /// Item-id range [begin, end) covered by shard `s`.
  std::pair<int64_t, int64_t> shard_range(int64_t s) const {
    const int64_t begin = s * items_per_shard_;
    return {begin, std::min(begin + items_per_shard_, num_items_)};
  }

  bool shard_quarantined(int64_t s) const {
    return shard_state(s) == ItemShard::State::kQuarantined;
  }

  /// True when shard `s` kept the previous publish's rows because a delta
  /// failed to replace them (see ApplyDelta): the data is real but one
  /// publish behind. Stale shards still score — responses touching them
  /// are flagged partial_degraded, not backfilled.
  bool shard_stale(int64_t s) const {
    return shard_state(s) == ItemShard::State::kStale;
  }

  /// True when item `i`'s embedding is trustworthy (its shard validated).
  /// Hot path: one branch when nothing is quarantined. Stale shards count
  /// as available — their rows are real, just old.
  bool item_available(int64_t i) const {
    return quarantined_count_ == 0 ||
           !shard_quarantined(i / items_per_shard_);
  }

  int64_t quarantined_count() const { return quarantined_count_; }
  int64_t stale_count() const { return stale_count_; }

  /// True when any shard overlapping item range [begin, end) is stale.
  /// Hot path: one branch when nothing is stale.
  bool RangeTouchesStale(int64_t begin, int64_t end) const {
    if (stale_count_ == 0) return false;
    const int64_t first = begin / items_per_shard_;
    const int64_t last = (end - 1) / items_per_shard_;
    for (int64_t s = first; s <= last && s < num_shards(); ++s) {
      if (shard_stale(s)) return true;
    }
    return false;
  }

  /// Item-id ranges currently quarantined (adjacent quarantined shards are
  /// coalesced). Empty when the snapshot is fully healthy.
  std::vector<std::pair<int64_t, int64_t>> QuarantinedRanges() const;

  /// Item-id ranges currently stale (adjacent stale shards coalesced).
  std::vector<std::pair<int64_t, int64_t>> StaleRanges() const;

  /// Version recorded in the file's manifest by the exporter (0 for
  /// unversioned exports). For a delta-applied snapshot, the
  /// delta manifest's `version`.
  int64_t parent_version() const { return parent_version_; }

  /// For a snapshot produced by ApplyDelta: the version of the base it was
  /// chained onto (0 for snapshots loaded whole from disk). Gives logs the
  /// full lineage: base_version -> version.
  int64_t base_version() const { return base_version_; }

  /// Monotonically increasing id assigned by the service on publish
  /// (0 = never published).
  int64_t version() const { return version_; }
  void set_version(int64_t version) { version_ = version; }

 private:
  EmbeddingSnapshot() = default;

  ItemShard::State shard_state(int64_t s) const {
    return shards_[static_cast<size_t>(s)]->state;
  }
  /// Recounts quarantined_count_ / stale_count_ from shards_.
  void CountShardStates();

  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  int64_t version_ = 0;
  int64_t parent_version_ = 0;
  int64_t base_version_ = 0;
  int64_t items_per_shard_ = 0;
  int64_t quarantined_count_ = 0;
  int64_t stale_count_ = 0;
  std::vector<float> users_;
  std::vector<std::shared_ptr<const ItemShard>> shards_;
  mutable std::once_flag item_rows_once_;
  mutable std::vector<float> item_rows_;  ///< Built by item().
};

}  // namespace imcat

#endif  // IMCAT_SERVE_SNAPSHOT_H_
