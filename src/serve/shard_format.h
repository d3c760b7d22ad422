#ifndef IMCAT_SERVE_SHARD_FORMAT_H_
#define IMCAT_SERVE_SHARD_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

/// \file shard_format.h
/// The sharded serving-snapshot format (v3). The monolithic v2 snapshot is
/// one blob with one trailing checksum: a single flipped bit rejects the
/// entire catalogue, and reloading stages the whole thing twice. Format v3
/// range-partitions the item table into fixed item-range shards, each with
/// its own FNV-1a checksum, under a checksummed manifest — so corruption is
/// contained to one shard, loads stream shard-by-shard with one shard of
/// staging memory, and the serving layer can keep answering for the healthy
/// item ranges while a corrupt shard is quarantined.
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
///    its rows are zeroed, its range is reported, and the rest of the
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

/// The result of loading a sharded snapshot: the manifest, both tables and
/// the quarantine map. Rows of quarantined shards are zero-filled.
struct ShardedLoadResult {
  ShardManifest manifest;
  std::vector<float> users;
  std::vector<float> items;
  /// Per-item-shard quarantine flags (1 = corrupt, rows zeroed).
  std::vector<uint8_t> quarantined;
  int64_t quarantined_count = 0;
};

/// --- Delta snapshots ---------------------------------------------------
///
/// A delta snapshot ("IMD3") publishes an incremental update on top of an
/// already-live sharded snapshot instead of rewriting the whole catalogue:
/// the full (possibly grown) user table plus only the item shards whose
/// item ranges changed since the base was published. Every delta is chained
/// to an explicit `base_version`; applying it to any other live version is
/// a precondition failure, never a half-applied snapshot.
///
/// Layout (little-endian):
///
///   magic "IMD3" | u32 delta format version (1) |
///   i64 base_version | i64 version  (version > base_version) |
///   u64 num_users | u64 num_items | u64 dim | u64 items_per_shard |
///   u64 num_changed_shards |
///   user-table entry:    u64 byte_offset | u64 byte_size | u64 checksum |
///   per changed shard:   i64 shard_index | u64 begin_item | u64 end_item |
///                        u64 byte_offset | u64 byte_size | u64 checksum |
///   u64 manifest checksum  (FNV-1a over every preceding byte)
///   --- payload ---
///   user table floats (row-major num_users x dim)
///   changed shard payloads, in manifest order
///
/// `num_users`/`num_items` are the totals of the snapshot the delta
/// produces; they may exceed the base's (cold-start fold-in grows the
/// tables), never shrink them. `items_per_shard` must match the base, so a
/// shard index addresses the same item range in both. Changed shards are
/// listed in strictly increasing shard order and may include brand-new
/// shards past the base's last one.
///
/// Integrity rules mirror the full format: a corrupt manifest or user
/// table refuses the whole delta (the base stays live); each changed shard
/// validates independently (re-read, then reported corrupt); when *every*
/// changed shard is corrupt the delta is refused outright rather than
/// publishing an update that updates nothing.

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
  ShardEntry user_table;
  std::vector<DeltaShardEntry> changed_shards;

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

/// The result of reading a delta snapshot file: the manifest, the full new
/// user table, and each changed shard's payload with its validation
/// outcome (`shard_ok[i]` == 0 means corrupt after re-reads; its
/// `shard_data[i]` is empty).
struct DeltaLoadResult {
  DeltaManifest manifest;
  std::vector<float> users;
  std::vector<uint8_t> shard_ok;
  std::vector<std::vector<float>> shard_data;
  int64_t corrupt_count = 0;
};

/// True when the file starts with the delta-snapshot magic ("IMD3").
bool IsDeltaSnapshotFile(const std::string& path);

/// Writes the user table and the listed item shards of `items` as a delta
/// snapshot chained to `options.base_version` (atomic write). The shard
/// indices must be unique, in range for `items`' shard topology, and the
/// tensors must share one embedding dimension.
Status WriteDeltaSnapshot(const std::string& path, const Tensor& users,
                          const Tensor& items,
                          const std::vector<int64_t>& changed_shards,
                          const DeltaSnapshotOptions& options);

/// Reads and fully validates only the delta manifest; payload untouched.
StatusOr<DeltaManifest> ReadDeltaSnapshotManifest(const std::string& path);

/// Reads a delta snapshot: manifest and user table must validate in full
/// (kDataLoss otherwise — without them the delta cannot be applied), each
/// changed shard validates independently with `options.shard_read_attempts`
/// total reads. With `options.allow_partial` a corrupt shard is reported
/// through `shard_ok` and loading continues; without it any corruption
/// fails the read. A delta whose every changed shard is corrupt is refused
/// with kDataLoss.
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

/// Reads and fully validates only the manifest (geometry + manifest
/// checksum); payload bytes are not touched. For inspection and tests.
StatusOr<ShardManifest> ReadShardedSnapshotManifest(const std::string& path);

/// Loads a sharded snapshot shard-by-shard (see file comment for the
/// integrity rules). Fails with kIoError on missing/unreadable files,
/// kInvalidArgument on bad geometry and kDataLoss on corruption that
/// cannot be contained (manifest, user table, or every item shard).
StatusOr<ShardedLoadResult> LoadShardedSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

}  // namespace imcat

#endif  // IMCAT_SERVE_SHARD_FORMAT_H_
