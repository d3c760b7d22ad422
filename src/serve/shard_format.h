#ifndef IMCAT_SERVE_SHARD_FORMAT_H_
#define IMCAT_SERVE_SHARD_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

/// \file shard_format.h
/// The sharded serving-snapshot format (v3). The item table is
/// range-partitioned into fixed item-range shards, each with its own FNV-1a
/// checksum, under a checksummed manifest — so corruption is contained to
/// one shard, loads stream shard-by-shard into per-shard buffers, and the
/// serving layer can keep answering for the healthy item ranges while a
/// corrupt shard is quarantined. (The monolithic v2 checkpoint, one blob
/// under one trailing checksum, is no longer a serving format.)
///
/// Layout (little-endian; every integer is fixed-width):
///
///   magic "IMS3" | u32 format version (3) |
///   u64 num_users | u64 num_items | u64 dim |
///   i64 parent_version  (publisher-assigned version; 0 = unassigned) |
///   u64 items_per_shard | u64 num_item_shards |
///   user-table entry:  u64 byte_offset | u64 byte_size | u64 checksum |
///   per item shard:    u64 begin_item | u64 end_item |
///                      u64 byte_offset | u64 byte_size | u64 checksum |
///   u64 manifest checksum  (FNV-1a over every preceding byte)
///   --- payload ---
///   user table floats (row-major num_users x dim)
///   item shard payloads, in shard order ((end-begin) x dim floats each)
///
/// Integrity rules, enforced by the loader before any data is served:
///  - the manifest (everything before the payload) must validate in full:
///    magic, version, shapes, shard geometry, offsets and its own checksum.
///    A corrupt manifest fails the whole load — without it no byte of
///    payload can be trusted.
///  - the user table must validate: every request needs the user row, so a
///    corrupt user table also fails the whole load.
///  - each item shard validates independently. A corrupt/truncated shard is
///    re-read (transient faults self-heal) and, if still bad, quarantined:
///    it loads no rows, its range is reported, and the rest of the
///    catalogue loads normally. Only when every shard is bad does the load
///    fail outright.
///
/// All reads are routed through the FaultInjector read hooks (bit flips,
/// short reads), and the writer uses AtomicFileWriter, so the whole chaos
/// harness applies to this format too.

namespace imcat {

/// One integrity unit recorded in the manifest. For the user table,
/// begin/end span rows of the user matrix; for item shards, item ids.
struct ShardEntry {
  int64_t begin = 0;        ///< First row/item id covered (inclusive).
  int64_t end = 0;          ///< One past the last row/item id covered.
  int64_t byte_offset = 0;  ///< Absolute payload offset in the file.
  int64_t byte_size = 0;    ///< Payload bytes ((end-begin) * dim * 4).
  uint64_t checksum = 0;    ///< FNV-1a over the payload bytes.
};

/// The validated manifest of a sharded snapshot file.
struct ShardManifest {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t dim = 0;
  /// Publisher-assigned snapshot version (0 = unassigned; the service
  /// falls back to its own monotonic counter). RecService refuses to
  /// publish a snapshot whose version is not strictly greater than the
  /// live one.
  int64_t parent_version = 0;
  int64_t items_per_shard = 0;
  ShardEntry user_table;
  std::vector<ShardEntry> item_shards;

  int64_t num_item_shards() const {
    return static_cast<int64_t>(item_shards.size());
  }
};

/// Writer configuration for `WriteShardedSnapshot`.
struct ShardedSnapshotOptions {
  /// Items per shard (the last shard may be smaller). Smaller shards give
  /// finer failure containment at the cost of more manifest entries.
  int64_t items_per_shard = 4096;
  /// Recorded as the manifest's parent_version (see ShardManifest).
  int64_t version = 0;
};

/// Loader configuration (shared with `EmbeddingSnapshot::Load`).
struct SnapshotLoadOptions {
  /// When true (the serving default), a corrupt item shard is quarantined
  /// and the rest of the catalogue still loads; when false any corruption
  /// fails the load with kDataLoss (strict mode for offline validation).
  bool allow_partial = true;
  /// Total read attempts per shard (>= 1). A checksum mismatch triggers a
  /// re-read, so transient faults (a flipped bit in transit, not at rest)
  /// self-heal without quarantining anything.
  int64_t shard_read_attempts = 2;
};

/// How a loader hands back each item shard's rows.
enum class ItemLayout {
  /// Row-major, `(end - begin) x dim` floats (what the fold-in updater
  /// solves against).
  kRows,
  /// Packed 16-item panels local to the shard (item `begin + j` is lane
  /// `j % kPanelItems` of panel `j / kPanelItems`, tensor/score_kernel.h),
  /// `NumPanels(end - begin)` panels with a zero-padded tail: what the
  /// scoring kernel reads.
  kPanels,
};

/// The result of loading a sharded snapshot: the manifest, the user table,
/// one buffer per item shard and the quarantine map.
struct ShardedLoadResult {
  ShardManifest manifest;
  std::vector<float> users;
  /// `item_shards[s]` holds shard s's rows in the requested ItemLayout;
  /// empty for a quarantined shard.
  std::vector<std::vector<float>> item_shards;
  /// Per-item-shard quarantine flags (1 = corrupt, no rows loaded).
  std::vector<uint8_t> quarantined;
  int64_t quarantined_count = 0;
};

/// --- Delta snapshots ---------------------------------------------------
///
/// A delta snapshot ("IMD3") publishes an incremental update on top of an
/// already-live sharded snapshot instead of rewriting the whole catalogue:
/// only the user rows and the item shards that changed since the base was
/// published. Every delta is chained to an explicit `base_version`;
/// applying it to any other live version is a precondition failure, never
/// a half-applied snapshot.
///
/// Layout, format version 2 (little-endian):
///
///   magic "IMD3" | u32 delta format version (2) |
///   i64 base_version | i64 version  (version > base_version) |
///   u64 num_users | u64 num_items | u64 dim | u64 items_per_shard |
///   u64 num_changed_users | u64 num_changed_shards |
///   user-row entry:      u64 byte_offset | u64 byte_size | u64 checksum |
///   per changed shard:   i64 shard_index | u64 begin_item | u64 end_item |
///                        u64 byte_offset | u64 byte_size | u64 checksum |
///   u64 manifest checksum  (FNV-1a over every preceding byte)
///   --- payload ---
///   user-row section: num_changed_users i64 user ids (strictly
///                     ascending), then their rows (dim floats each)
///   changed shard payloads, in manifest order
///
/// `num_users`/`num_items` are the totals of the snapshot the delta
/// produces; they may exceed the base's (cold-start fold-in grows the
/// tables), never shrink them. The applied user table is the base's, grown
/// with zero rows to `num_users`, with the shipped rows written over it.
/// `items_per_shard` must match the base, so a shard index addresses the
/// same item range in both. Changed shards are listed in strictly
/// increasing shard order and may include brand-new shards past the base's
/// last one.
///
/// Format version 1 shipped the whole user table on every publish; a
/// version-1 delta is refused with kInvalidArgument naming the version
/// (deltas are transient: resync with a full publish).
///
/// Integrity rules mirror the full format: a corrupt manifest or user-row
/// section refuses the whole delta (the base stays live); each changed
/// shard validates independently (re-read, then reported corrupt); when
/// *every* changed shard is corrupt the delta is refused outright rather
/// than publishing an update that updates nothing.

/// One changed item shard recorded in a delta manifest.
struct DeltaShardEntry {
  int64_t shard_index = 0;  ///< Shard slot in the base's shard topology.
  ShardEntry shard;         ///< Range, payload location and checksum.
};

/// The validated manifest of a delta snapshot file.
struct DeltaManifest {
  /// Version of the live snapshot this delta applies on top of.
  int64_t base_version = 0;
  /// Version the applied snapshot becomes (always > base_version).
  int64_t version = 0;
  int64_t num_users = 0;   ///< Post-apply totals (>= the base's).
  int64_t num_items = 0;
  int64_t dim = 0;
  int64_t items_per_shard = 0;
  /// The user-row section (ids then rows) as one integrity unit; its
  /// begin/end span [0, num_changed_users).
  ShardEntry user_rows;
  std::vector<DeltaShardEntry> changed_shards;

  int64_t num_changed_users() const { return user_rows.end; }
  int64_t num_changed_shards() const {
    return static_cast<int64_t>(changed_shards.size());
  }
};

/// Writer configuration for `WriteDeltaSnapshot`.
struct DeltaSnapshotOptions {
  int64_t items_per_shard = 4096;
  /// Version of the snapshot this delta chains to (>= 0).
  int64_t base_version = 0;
  /// Version the applied snapshot becomes; must be > base_version.
  int64_t version = 0;
};

/// What one delta ships, as views into the writer's own buffers (nothing
/// is copied before the bytes reach the file).
struct DeltaContents {
  int64_t num_users = 0;  ///< Post-apply totals.
  int64_t num_items = 0;
  int64_t dim = 0;
  /// Changed user ids, strictly ascending and < num_users; `user_rows[k]`
  /// points at user `user_ids[k]`'s `dim` floats.
  std::vector<int64_t> user_ids;
  std::vector<const float*> user_rows;
  /// Changed shard indices, strictly ascending; `shard_rows[k]` points at
  /// shard `shard_indices[k]`'s rows, row-major.
  std::vector<int64_t> shard_indices;
  std::vector<const float*> shard_rows;
};

/// The result of reading a delta snapshot file: the manifest, the changed
/// user rows, and each changed shard's payload (packed panels, as
/// ItemLayout::kPanels) with its validation outcome (`shard_ok[i]` == 0
/// means corrupt after re-reads; its `shard_data[i]` is empty).
struct DeltaLoadResult {
  DeltaManifest manifest;
  std::vector<int64_t> user_ids;  ///< Strictly ascending, < num_users.
  std::vector<float> user_rows;   ///< user_ids.size() x dim, row-major.
  std::vector<uint8_t> shard_ok;
  std::vector<std::vector<float>> shard_data;
  int64_t corrupt_count = 0;
};

/// True when the file starts with the delta-snapshot magic ("IMD3").
bool IsDeltaSnapshotFile(const std::string& path);

/// Writes `contents` as a delta snapshot chained to
/// `options.base_version` (atomic write). Ids and shard indices must be
/// strictly ascending and in range for the post-apply totals.
Status WriteDeltaSnapshot(const std::string& path,
                          const DeltaContents& contents,
                          const DeltaSnapshotOptions& options);

/// Convenience form: every row of `users` and the listed item shards of
/// `items` (the tensors must share one embedding dimension).
Status WriteDeltaSnapshot(const std::string& path, const Tensor& users,
                          const Tensor& items,
                          const std::vector<int64_t>& changed_shards,
                          const DeltaSnapshotOptions& options);

/// Reads and fully validates only the delta manifest; payload untouched.
StatusOr<DeltaManifest> ReadDeltaSnapshotManifest(const std::string& path);

/// Reads a delta snapshot: manifest and user-row section must validate in
/// full (kDataLoss otherwise — without them the delta cannot be applied),
/// each changed shard validates independently with
/// `options.shard_read_attempts` total reads. With `options.allow_partial`
/// a corrupt shard is reported through `shard_ok` and loading continues;
/// without it any corruption fails the read. A delta whose every changed
/// shard is corrupt is refused with kDataLoss.
StatusOr<DeltaLoadResult> LoadDeltaSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

/// True when the file starts with the sharded-snapshot magic ("IMS3").
/// Missing/unreadable files return false (the caller's loader will then
/// produce the real error).
bool IsShardedSnapshotFile(const std::string& path);

/// Writes `users` (num_users x dim) and `items` (num_items x dim) as a
/// sharded snapshot at `path` (atomic write: tmp + fsync + rename).
Status WriteShardedSnapshot(const std::string& path, const Tensor& users,
                            const Tensor& items,
                            const ShardedSnapshotOptions& options = {});

/// Same, from row-major buffers (`users` num_users x dim, `items`
/// num_items x dim).
Status WriteShardedSnapshot(const std::string& path, const float* users,
                            int64_t num_users, const float* items,
                            int64_t num_items, int64_t dim,
                            const ShardedSnapshotOptions& options = {});

/// Same, with the item table held per shard: `item_shards[s]` points at
/// shard s's rows (row-major, items [s * items_per_shard,
/// min((s + 1) * items_per_shard, num_items))), one pointer per shard.
Status WriteShardedSnapshot(const std::string& path, const float* users,
                            int64_t num_users,
                            std::span<const float* const> item_shards,
                            int64_t num_items, int64_t dim,
                            const ShardedSnapshotOptions& options = {});

/// Reads and fully validates only the manifest (geometry + manifest
/// checksum); payload bytes are not touched. For inspection and tests.
StatusOr<ShardManifest> ReadShardedSnapshotManifest(const std::string& path);

/// Loads a sharded snapshot shard-by-shard, each validated shard straight
/// into its own buffer in `layout` (see file comment for the integrity
/// rules). Fails with kIoError on missing/unreadable files,
/// kInvalidArgument on a file that is not a v3 snapshot and kDataLoss on
/// corruption that cannot be contained (manifest, user table, or every
/// item shard).
StatusOr<ShardedLoadResult> LoadShardedSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {},
    ItemLayout layout = ItemLayout::kRows);

}  // namespace imcat

#endif  // IMCAT_SERVE_SHARD_FORMAT_H_
