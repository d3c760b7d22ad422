#include "serve/shard_format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "tensor/score_kernel.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/checksum.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

constexpr char kShardMagic[4] = {'I', 'M', 'S', '3'};
constexpr uint32_t kShardVersion = 3;
/// The monolithic checkpoint's magic (tensor/checkpoint.h), recognised
/// only to refuse it with a clear message.
constexpr char kCheckpointMagic[4] = {'I', 'M', 'C', 'T'};

/// Fixed manifest sizes (see the layout in shard_format.h).
constexpr int64_t kHeaderBytes = 4 + 4 + 6 * 8;   // magic..num_item_shards.
constexpr int64_t kUserEntryBytes = 3 * 8;        // offset, size, checksum.
constexpr int64_t kShardEntryBytes = 5 * 8;       // begin..checksum.
constexpr int64_t kChecksumBytes = 8;

/// Upper bound on any single dimension read from an untrusted manifest;
/// generous for real catalogues, small enough that products of two bounded
/// values cannot overflow int64 (2^40 * 2^40 >> int64, so products are
/// checked by division below).
constexpr int64_t kMaxDimension = int64_t{1} << 40;

int64_t ManifestBytes(int64_t num_item_shards) {
  return kHeaderBytes + kUserEntryBytes + num_item_shards * kShardEntryBytes +
         kChecksumBytes;
}

template <typename T>
void HashValue(Fnv1a* hash, T value) {
  hash->Update(&value, sizeof(value));
}

template <typename T>
Status WriteValue(AtomicFileWriter* out, Fnv1a* hash, T value) {
  hash->Update(&value, sizeof(value));
  return out->Write(&value, sizeof(value));
}

/// Positioned reads with the FaultInjector read hooks applied (read-side
/// bit flips, short reads), mirroring the checkpoint Reader but seekable so
/// shards can be re-read on checksum mismatch.
class ShardFileReader {
 public:
  Status Open(const std::string& path) {
    path_ = path;
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_.is_open()) return Status::IoError("cannot open " + path);
    file_size_ = static_cast<int64_t>(in_.tellg());
    return Status::OK();
  }

  const std::string& path() const { return path_; }
  int64_t file_size() const { return file_size_; }

  /// Reads exactly `size` bytes at absolute offset `offset`. Truncation —
  /// real (past EOF) or injected (short read) — is kDataLoss.
  Status ReadAt(int64_t offset, void* out, size_t size) {
    if (offset < 0 || offset + static_cast<int64_t>(size) > file_size_) {
      return Status::DataLoss(path_ + ": truncated sharded snapshot");
    }
    FaultInjector& injector = FaultInjector::Instance();
    if (injector.enabled() &&
        injector.FilterReadLength(offset, size) < size) {
      return Status::DataLoss(path_ + ": short read in sharded snapshot");
    }
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
    if (!in_.good()) {
      return Status::DataLoss(path_ + ": truncated sharded snapshot");
    }
    // Injected read-side corruption: the on-disk file stays intact; the
    // caller checksums what the reader actually saw.
    if (injector.enabled()) {
      injector.FilterRead(offset, static_cast<unsigned char*>(out), size);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::ifstream in_;
  int64_t file_size_ = 0;
};

/// Sequential manifest cursor over a ShardFileReader: tracks the position
/// and the running FNV-1a over every byte read.
class ManifestCursor {
 public:
  explicit ManifestCursor(ShardFileReader* reader) : reader_(reader) {}

  Status ReadBytes(void* out, size_t size) {
    IMCAT_RETURN_IF_ERROR(reader_->ReadAt(pos_, out, size));
    hash_.Update(out, size);
    pos_ += static_cast<int64_t>(size);
    return Status::OK();
  }

  template <typename T>
  Status Read(T* value) {
    return ReadBytes(value, sizeof(*value));
  }

  int64_t position() const { return pos_; }
  uint64_t checksum() const { return hash_.value(); }

 private:
  ShardFileReader* reader_;
  Fnv1a hash_;
  int64_t pos_ = 0;
};

Status ReadEntry(ManifestCursor* cursor, bool with_range, ShardEntry* entry) {
  if (with_range) {
    IMCAT_RETURN_IF_ERROR(cursor->Read(&entry->begin));
    IMCAT_RETURN_IF_ERROR(cursor->Read(&entry->end));
  }
  IMCAT_RETURN_IF_ERROR(cursor->Read(&entry->byte_offset));
  IMCAT_RETURN_IF_ERROR(cursor->Read(&entry->byte_size));
  return cursor->Read(&entry->checksum);
}

/// Reads and validates the manifest: magic, version, geometry, entry
/// layout and the manifest checksum. Nothing of the payload is trusted
/// (or touched) here.
Status ReadManifest(ShardFileReader* reader, ShardManifest* manifest) {
  ManifestCursor cursor(reader);
  char magic[4];
  Status magic_status = cursor.ReadBytes(magic, sizeof(magic));
  if (magic_status.ok() &&
      std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) == 0) {
    return Status::InvalidArgument(
        reader->path() +
        ": a monolithic IMCAT checkpoint (v1/v2) is not a serving snapshot; "
        "export a sharded v3 snapshot (WriteShardedSnapshot)");
  }
  if (!magic_status.ok() ||
      std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Status::InvalidArgument(reader->path() +
                                   ": not a sharded IMCAT snapshot");
  }
  uint32_t version = 0;
  IMCAT_RETURN_IF_ERROR(cursor.Read(&version));
  if (version != kShardVersion) {
    return Status::InvalidArgument(
        reader->path() + ": unsupported sharded snapshot version " +
        std::to_string(version));
  }
  int64_t num_item_shards = 0;
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->num_users));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->num_items));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->dim));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->parent_version));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->items_per_shard));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&num_item_shards));

  // Geometry sanity before any allocation: a bit-flipped count must fail
  // cleanly here (or at the checksum), never as bad_alloc.
  const auto bounded = [](int64_t v) { return v > 0 && v < kMaxDimension; };
  if (!bounded(manifest->num_users) || !bounded(manifest->num_items) ||
      !bounded(manifest->dim) || !bounded(manifest->items_per_shard) ||
      manifest->parent_version < 0 || num_item_shards <= 0) {
    return Status::DataLoss(reader->path() +
                            ": sharded snapshot manifest geometry corrupt");
  }
  const int64_t expected_shards =
      (manifest->num_items + manifest->items_per_shard - 1) /
      manifest->items_per_shard;
  if (num_item_shards != expected_shards ||
      ManifestBytes(num_item_shards) > reader->file_size()) {
    return Status::DataLoss(reader->path() +
                            ": sharded snapshot manifest geometry corrupt");
  }
  const int64_t row_bytes = manifest->dim * static_cast<int64_t>(sizeof(float));
  const int64_t payload_start = ManifestBytes(num_item_shards);

  IMCAT_RETURN_IF_ERROR(ReadEntry(&cursor, /*with_range=*/false,
                                  &manifest->user_table));
  manifest->user_table.begin = 0;
  manifest->user_table.end = manifest->num_users;
  if (manifest->user_table.byte_offset != payload_start ||
      manifest->user_table.byte_size != manifest->num_users * row_bytes) {
    return Status::DataLoss(reader->path() +
                            ": sharded snapshot user-table entry corrupt");
  }

  manifest->item_shards.resize(static_cast<size_t>(num_item_shards));
  int64_t expected_offset =
      manifest->user_table.byte_offset + manifest->user_table.byte_size;
  for (int64_t i = 0; i < num_item_shards; ++i) {
    ShardEntry& entry = manifest->item_shards[static_cast<size_t>(i)];
    IMCAT_RETURN_IF_ERROR(ReadEntry(&cursor, /*with_range=*/true, &entry));
    const int64_t begin = i * manifest->items_per_shard;
    const int64_t end =
        std::min(begin + manifest->items_per_shard, manifest->num_items);
    if (entry.begin != begin || entry.end != end ||
        entry.byte_offset != expected_offset ||
        entry.byte_size != (end - begin) * row_bytes) {
      return Status::DataLoss(reader->path() + ": sharded snapshot shard " +
                              std::to_string(i) + " entry corrupt");
    }
    expected_offset += entry.byte_size;
  }

  const uint64_t computed = cursor.checksum();
  uint64_t stored = 0;
  // The stored checksum is read outside the running hash by construction
  // (it is the last manifest field; the cursor hash already covers
  // everything before it).
  IMCAT_RETURN_IF_ERROR(reader->ReadAt(cursor.position(), &stored,
                                       sizeof(stored)));
  if (stored != computed) {
    return Status::DataLoss(reader->path() +
                            ": sharded snapshot manifest checksum mismatch");
  }
  return Status::OK();
}

constexpr char kDeltaMagic[4] = {'I', 'M', 'D', '3'};
constexpr uint32_t kDeltaVersion = 2;

/// Fixed delta-manifest sizes (see the delta layout in shard_format.h).
constexpr int64_t kDeltaHeaderBytes = 4 + 4 + 8 * 8;  // magic..num_changed.
constexpr int64_t kDeltaShardEntryBytes = 6 * 8;      // index..checksum.

int64_t DeltaManifestBytes(int64_t num_changed_shards) {
  return kDeltaHeaderBytes + kUserEntryBytes +
         num_changed_shards * kDeltaShardEntryBytes + kChecksumBytes;
}

/// Bytes of one shipped user row in the user-row section: its id and its
/// factors.
int64_t DeltaUserRowBytes(int64_t dim) {
  return static_cast<int64_t>(sizeof(int64_t)) +
         dim * static_cast<int64_t>(sizeof(float));
}

/// Reads and validates a delta manifest: magic, version chain, geometry,
/// section layout and the manifest checksum. Payload untouched.
Status ReadDeltaManifest(ShardFileReader* reader, DeltaManifest* manifest) {
  ManifestCursor cursor(reader);
  char magic[4];
  Status magic_status = cursor.ReadBytes(magic, sizeof(magic));
  if (!magic_status.ok() ||
      std::memcmp(magic, kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return Status::InvalidArgument(reader->path() +
                                   ": not an IMCAT delta snapshot");
  }
  uint32_t version = 0;
  IMCAT_RETURN_IF_ERROR(cursor.Read(&version));
  if (version == 1) {
    return Status::InvalidArgument(
        reader->path() +
        ": delta snapshot format version 1 (whole user table per delta) is "
        "no longer read; this build reads version " +
        std::to_string(kDeltaVersion) +
        " — resync the chain with a full publish");
  }
  if (version != kDeltaVersion) {
    return Status::InvalidArgument(
        reader->path() + ": unsupported delta snapshot version " +
        std::to_string(version));
  }
  int64_t num_changed_users = 0;
  int64_t num_changed = 0;
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->base_version));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->version));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->num_users));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->num_items));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->dim));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&manifest->items_per_shard));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&num_changed_users));
  IMCAT_RETURN_IF_ERROR(cursor.Read(&num_changed));

  // Geometry sanity before any allocation, mirroring the full format: a
  // bit-flipped count fails cleanly here or at the checksum, never as
  // bad_alloc or a half-applied delta.
  const auto bounded = [](int64_t v) { return v > 0 && v < kMaxDimension; };
  const int64_t total_shards =
      bounded(manifest->num_items) && bounded(manifest->items_per_shard)
          ? (manifest->num_items + manifest->items_per_shard - 1) /
                manifest->items_per_shard
          : 0;
  if (!bounded(manifest->num_users) || !bounded(manifest->num_items) ||
      !bounded(manifest->dim) || !bounded(manifest->items_per_shard) ||
      manifest->base_version < 0 ||
      manifest->version <= manifest->base_version || num_changed_users < 0 ||
      num_changed_users > manifest->num_users || num_changed < 0 ||
      num_changed > total_shards ||
      DeltaManifestBytes(num_changed) > reader->file_size()) {
    return Status::DataLoss(reader->path() +
                            ": delta snapshot manifest geometry corrupt");
  }
  const int64_t row_bytes =
      manifest->dim * static_cast<int64_t>(sizeof(float));
  const int64_t payload_start = DeltaManifestBytes(num_changed);

  IMCAT_RETURN_IF_ERROR(ReadEntry(&cursor, /*with_range=*/false,
                                  &manifest->user_rows));
  manifest->user_rows.begin = 0;
  manifest->user_rows.end = num_changed_users;
  if (manifest->user_rows.byte_offset != payload_start ||
      manifest->user_rows.byte_size !=
          num_changed_users * DeltaUserRowBytes(manifest->dim)) {
    return Status::DataLoss(reader->path() +
                            ": delta snapshot user-row entry corrupt");
  }

  manifest->changed_shards.resize(static_cast<size_t>(num_changed));
  int64_t expected_offset =
      manifest->user_rows.byte_offset + manifest->user_rows.byte_size;
  int64_t previous_index = -1;
  for (int64_t i = 0; i < num_changed; ++i) {
    DeltaShardEntry& entry = manifest->changed_shards[static_cast<size_t>(i)];
    IMCAT_RETURN_IF_ERROR(cursor.Read(&entry.shard_index));
    IMCAT_RETURN_IF_ERROR(ReadEntry(&cursor, /*with_range=*/true,
                                    &entry.shard));
    const int64_t begin = entry.shard_index * manifest->items_per_shard;
    const int64_t end =
        std::min(begin + manifest->items_per_shard, manifest->num_items);
    if (entry.shard_index <= previous_index ||
        entry.shard_index >= total_shards || entry.shard.begin != begin ||
        entry.shard.end != end ||
        entry.shard.byte_offset != expected_offset ||
        entry.shard.byte_size != (end - begin) * row_bytes) {
      return Status::DataLoss(reader->path() + ": delta snapshot shard " +
                              std::to_string(i) + " entry corrupt");
    }
    previous_index = entry.shard_index;
    expected_offset += entry.shard.byte_size;
  }

  const uint64_t computed = cursor.checksum();
  uint64_t stored = 0;
  IMCAT_RETURN_IF_ERROR(reader->ReadAt(cursor.position(), &stored,
                                       sizeof(stored)));
  if (stored != computed) {
    return Status::DataLoss(reader->path() +
                            ": delta snapshot manifest checksum mismatch");
  }
  return Status::OK();
}

/// Reads one integrity unit into `out` (already sized), re-reading up to
/// `attempts` times on corruption. OK means the checksum matched.
Status ReadValidated(ShardFileReader* reader, const ShardEntry& entry,
                     int64_t attempts, void* out) {
  Status last = Status::DataLoss(reader->path() + ": shard unreadable");
  for (int64_t attempt = 0; attempt < std::max<int64_t>(attempts, 1);
       ++attempt) {
    Status read = reader->ReadAt(entry.byte_offset, out,
                                 static_cast<size_t>(entry.byte_size));
    if (!read.ok()) {
      last = std::move(read);
      continue;
    }
    if (Fnv1aHash(out, static_cast<size_t>(entry.byte_size)) ==
        entry.checksum) {
      return Status::OK();
    }
    last = Status::DataLoss(reader->path() + ": shard checksum mismatch");
  }
  return last;
}

/// Reads item shard `entry` (`dim`-wide rows) into `out` in `layout`.
/// Packed shards stage through `scratch` (one shard of rows); row-major
/// shards are read in place. On failure `out` is left empty.
Status ReadItemShard(ShardFileReader* reader, const ShardEntry& entry,
                     int64_t attempts, int64_t dim, ItemLayout layout,
                     std::vector<float>* scratch, std::vector<float>* out) {
  const int64_t rows = entry.end - entry.begin;
  std::vector<float>* target = layout == ItemLayout::kRows ? out : scratch;
  target->resize(static_cast<size_t>(rows * dim));
  Status status = ReadValidated(reader, entry, attempts, target->data());
  if (!status.ok()) {
    out->clear();
    out->shrink_to_fit();
    return status;
  }
  if (layout == ItemLayout::kPanels) PackPanels(scratch->data(), rows, dim, out);
  return Status::OK();
}

}  // namespace

bool IsShardedSnapshotFile(const std::string& path) {
  // A raw peek, deliberately outside the FaultInjector hooks: the real
  // loader re-reads from offset 0 with the hooks applied, and the peek
  // must not consume armed read faults.
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, sizeof(magic));
  return in.good() && std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) == 0;
}

Status WriteShardedSnapshot(const std::string& path, const Tensor& users,
                            const Tensor& items,
                            const ShardedSnapshotOptions& options) {
  IMCAT_CHECK(users.defined() && items.defined());
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument(
        path + ": sharded snapshot needs factor matrices over one embedding "
               "dimension, got user table " +
        std::to_string(users.rows()) + "x" + std::to_string(users.cols()) +
        " and item table " + std::to_string(items.rows()) + "x" +
        std::to_string(items.cols()));
  }
  return WriteShardedSnapshot(path, users.data(), users.rows(), items.data(),
                              items.rows(), users.cols(), options);
}

Status WriteShardedSnapshot(const std::string& path, const float* users,
                            int64_t num_users, const float* items,
                            int64_t num_items, int64_t dim,
                            const ShardedSnapshotOptions& options) {
  std::vector<const float*> shards;
  if (options.items_per_shard > 0 && dim > 0) {
    for (int64_t begin = 0; begin < num_items;
         begin += options.items_per_shard) {
      shards.push_back(items + begin * dim);
    }
  }
  return WriteShardedSnapshot(path, users, num_users, shards, num_items, dim,
                              options);
}

Status WriteShardedSnapshot(const std::string& path, const float* users,
                            int64_t num_users,
                            std::span<const float* const> item_shards,
                            int64_t num_items, int64_t dim,
                            const ShardedSnapshotOptions& options) {
  if (num_users <= 0 || num_items <= 0 || dim <= 0) {
    return Status::InvalidArgument(
        path + ": sharded snapshot needs non-empty factor matrices, got " +
        std::to_string(num_users) + " users and " +
        std::to_string(num_items) + " items of dimension " +
        std::to_string(dim));
  }
  if (options.items_per_shard <= 0) {
    return Status::InvalidArgument(path + ": items_per_shard must be > 0");
  }
  if (options.version < 0) {
    return Status::InvalidArgument(path + ": snapshot version must be >= 0");
  }
  const int64_t items_per_shard = options.items_per_shard;
  const int64_t num_shards =
      (num_items + items_per_shard - 1) / items_per_shard;
  IMCAT_CHECK(static_cast<int64_t>(item_shards.size()) == num_shards);
  const int64_t row_bytes = dim * static_cast<int64_t>(sizeof(float));
  const int64_t payload_start = ManifestBytes(num_shards);
  const auto shard_bytes = [&](int64_t s) {
    return (std::min((s + 1) * items_per_shard, num_items) -
            s * items_per_shard) *
           row_bytes;
  };

  AtomicFileWriter out(path);
  IMCAT_RETURN_IF_ERROR(out.Open());
  Fnv1a hash;
  hash.Update(kShardMagic, sizeof(kShardMagic));
  IMCAT_RETURN_IF_ERROR(out.Write(kShardMagic, sizeof(kShardMagic)));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, kShardVersion));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_users));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_items));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, dim));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, options.version));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, items_per_shard));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_shards));

  // User-table entry.
  const int64_t user_bytes = num_users * row_bytes;
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, payload_start));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, user_bytes));
  IMCAT_RETURN_IF_ERROR(WriteValue(
      &out, &hash, Fnv1aHash(users, static_cast<size_t>(user_bytes))));

  // Item-shard entries, payload laid out contiguously after the user table.
  int64_t offset = payload_start + user_bytes;
  for (int64_t s = 0; s < num_shards; ++s) {
    const int64_t begin = s * items_per_shard;
    const int64_t bytes = shard_bytes(s);
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, begin));
    IMCAT_RETURN_IF_ERROR(
        WriteValue(&out, &hash, std::min(begin + items_per_shard, num_items)));
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, offset));
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, bytes));
    IMCAT_RETURN_IF_ERROR(WriteValue(
        &out, &hash,
        Fnv1aHash(item_shards[static_cast<size_t>(s)],
                  static_cast<size_t>(bytes))));
    offset += bytes;
  }
  const uint64_t manifest_checksum = hash.value();
  IMCAT_RETURN_IF_ERROR(
      out.Write(&manifest_checksum, sizeof(manifest_checksum)));

  // Payload: user table, then each shard in order.
  IMCAT_RETURN_IF_ERROR(
      out.Write(users, static_cast<size_t>(user_bytes)));
  for (int64_t s = 0; s < num_shards; ++s) {
    IMCAT_RETURN_IF_ERROR(out.Write(item_shards[static_cast<size_t>(s)],
                                    static_cast<size_t>(shard_bytes(s))));
  }
  return out.Commit();
}

StatusOr<ShardManifest> ReadShardedSnapshotManifest(const std::string& path) {
  ShardFileReader reader;
  IMCAT_RETURN_IF_ERROR(reader.Open(path));
  ShardManifest manifest;
  IMCAT_RETURN_IF_ERROR(ReadManifest(&reader, &manifest));
  return manifest;
}

StatusOr<ShardedLoadResult> LoadShardedSnapshot(
    const std::string& path, const SnapshotLoadOptions& options,
    ItemLayout layout) {
  ShardFileReader reader;
  IMCAT_RETURN_IF_ERROR(reader.Open(path));
  ShardedLoadResult result;
  IMCAT_RETURN_IF_ERROR(ReadManifest(&reader, &result.manifest));
  const ShardManifest& manifest = result.manifest;

  // The user table must validate: every request scores against a user row,
  // so there is no partial-degraded mode without it.
  result.users.resize(
      static_cast<size_t>(manifest.num_users * manifest.dim));
  Status user_status =
      ReadValidated(&reader, manifest.user_table,
                    options.shard_read_attempts, result.users.data());
  if (!user_status.ok()) {
    return Status(user_status.code(),
                  "user table failed validation: " + user_status.message());
  }

  // Each item shard is read, checksummed and kept in its own buffer (packed
  // shards stage through one shard of scratch), so a corrupt shard loads
  // nothing, never half-read garbage, and no whole-catalogue table exists.
  result.item_shards.resize(manifest.item_shards.size());
  result.quarantined.assign(manifest.item_shards.size(), 0);
  std::vector<float> scratch;
  for (size_t s = 0; s < manifest.item_shards.size(); ++s) {
    const ShardEntry& entry = manifest.item_shards[s];
    Status shard_status =
        ReadItemShard(&reader, entry, options.shard_read_attempts,
                      manifest.dim, layout, &scratch, &result.item_shards[s]);
    if (shard_status.ok()) continue;
    if (!options.allow_partial) {
      return Status(shard_status.code(),
                    "shard " + std::to_string(s) + " [" +
                        std::to_string(entry.begin) + ", " +
                        std::to_string(entry.end) + ") failed validation: " +
                        shard_status.message());
    }
    result.quarantined[s] = 1;
    ++result.quarantined_count;
  }
  if (result.quarantined_count == manifest.num_item_shards()) {
    return Status::DataLoss(path +
                            ": every item shard failed validation; nothing "
                            "left to serve");
  }
  return result;
}

bool IsDeltaSnapshotFile(const std::string& path) {
  // Same raw peek as IsShardedSnapshotFile: deliberately outside the
  // FaultInjector hooks so the peek never consumes an armed read fault.
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, sizeof(magic));
  return in.good() && std::memcmp(magic, kDeltaMagic, sizeof(kDeltaMagic)) == 0;
}

Status WriteDeltaSnapshot(const std::string& path, const Tensor& users,
                          const Tensor& items,
                          const std::vector<int64_t>& changed_shards,
                          const DeltaSnapshotOptions& options) {
  IMCAT_CHECK(users.defined() && items.defined());
  if (users.rows() <= 0 || items.rows() <= 0 || users.cols() <= 0 ||
      users.cols() != items.cols()) {
    return Status::InvalidArgument(
        path + ": delta snapshot needs factor matrices over one embedding "
               "dimension, got user table " +
        std::to_string(users.rows()) + "x" + std::to_string(users.cols()) +
        " and item table " + std::to_string(items.rows()) + "x" +
        std::to_string(items.cols()));
  }
  DeltaContents contents;
  contents.num_users = users.rows();
  contents.num_items = items.rows();
  contents.dim = users.cols();
  for (int64_t u = 0; u < users.rows(); ++u) {
    contents.user_ids.push_back(u);
    contents.user_rows.push_back(users.data() + u * contents.dim);
  }
  contents.shard_indices = changed_shards;
  for (int64_t index : changed_shards) {
    // Out-of-range indices are refused by the writer before any read.
    const int64_t begin = index * options.items_per_shard;
    contents.shard_rows.push_back(
        index >= 0 && begin < items.rows() ? items.data() + begin * contents.dim
                                           : nullptr);
  }
  return WriteDeltaSnapshot(path, contents, options);
}

Status WriteDeltaSnapshot(const std::string& path,
                          const DeltaContents& contents,
                          const DeltaSnapshotOptions& options) {
  const int64_t num_users = contents.num_users;
  const int64_t num_items = contents.num_items;
  const int64_t dim = contents.dim;
  if (num_users <= 0 || num_items <= 0 || dim <= 0) {
    return Status::InvalidArgument(
        path + ": delta snapshot needs non-empty factor matrices, got " +
        std::to_string(num_users) + " users and " +
        std::to_string(num_items) + " items of dimension " +
        std::to_string(dim));
  }
  if (options.items_per_shard <= 0) {
    return Status::InvalidArgument(path + ": items_per_shard must be > 0");
  }
  if (options.base_version < 0 || options.version <= options.base_version) {
    return Status::InvalidArgument(
        path + ": delta version chain must satisfy 0 <= base_version < "
               "version, got base " +
        std::to_string(options.base_version) + " -> " +
        std::to_string(options.version));
  }
  IMCAT_CHECK(contents.user_ids.size() == contents.user_rows.size());
  IMCAT_CHECK(contents.shard_indices.size() == contents.shard_rows.size());
  const int64_t items_per_shard = options.items_per_shard;
  const int64_t total_shards =
      (num_items + items_per_shard - 1) / items_per_shard;
  const auto ascending = [](const std::vector<int64_t>& ids, int64_t limit,
                            const char* what,
                            const std::string& file) -> Status {
    int64_t previous = -1;
    for (int64_t id : ids) {
      if (id <= previous || id >= limit) {
        return Status::InvalidArgument(
            file + ": changed " + what +
            " must be strictly increasing and < " + std::to_string(limit) +
            ", got " + std::to_string(id) + " after " +
            std::to_string(previous));
      }
      previous = id;
    }
    return Status::OK();
  };
  IMCAT_RETURN_IF_ERROR(
      ascending(contents.user_ids, num_users, "user ids", path));
  IMCAT_RETURN_IF_ERROR(
      ascending(contents.shard_indices, total_shards, "shard indices", path));
  const int64_t num_changed_users =
      static_cast<int64_t>(contents.user_ids.size());
  const int64_t num_changed =
      static_cast<int64_t>(contents.shard_indices.size());
  const int64_t row_bytes = dim * static_cast<int64_t>(sizeof(float));
  const int64_t payload_start = DeltaManifestBytes(num_changed);
  const auto shard_bytes = [&](int64_t index) {
    return (std::min((index + 1) * items_per_shard, num_items) -
            index * items_per_shard) *
           row_bytes;
  };

  AtomicFileWriter out(path);
  IMCAT_RETURN_IF_ERROR(out.Open());
  Fnv1a hash;
  hash.Update(kDeltaMagic, sizeof(kDeltaMagic));
  IMCAT_RETURN_IF_ERROR(out.Write(kDeltaMagic, sizeof(kDeltaMagic)));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, kDeltaVersion));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, options.base_version));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, options.version));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_users));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_items));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, dim));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, items_per_shard));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_changed_users));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, num_changed));

  // User-row entry: ids, then rows, under one checksum.
  Fnv1a user_hash;
  user_hash.Update(contents.user_ids.data(),
                   contents.user_ids.size() * sizeof(int64_t));
  for (const float* row : contents.user_rows) {
    user_hash.Update(row, static_cast<size_t>(row_bytes));
  }
  const int64_t user_bytes = num_changed_users * DeltaUserRowBytes(dim);
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, payload_start));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, user_bytes));
  IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, user_hash.value()));

  // Changed-shard entries, payload contiguous after the user rows.
  int64_t offset = payload_start + user_bytes;
  for (int64_t k = 0; k < num_changed; ++k) {
    const int64_t index = contents.shard_indices[static_cast<size_t>(k)];
    const int64_t begin = index * items_per_shard;
    const int64_t bytes = shard_bytes(index);
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, index));
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, begin));
    IMCAT_RETURN_IF_ERROR(
        WriteValue(&out, &hash, std::min(begin + items_per_shard, num_items)));
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, offset));
    IMCAT_RETURN_IF_ERROR(WriteValue(&out, &hash, bytes));
    IMCAT_RETURN_IF_ERROR(WriteValue(
        &out, &hash,
        Fnv1aHash(contents.shard_rows[static_cast<size_t>(k)],
                  static_cast<size_t>(bytes))));
    offset += bytes;
  }
  const uint64_t manifest_checksum = hash.value();
  IMCAT_RETURN_IF_ERROR(
      out.Write(&manifest_checksum, sizeof(manifest_checksum)));

  IMCAT_RETURN_IF_ERROR(
      out.Write(contents.user_ids.data(),
                contents.user_ids.size() * sizeof(int64_t)));
  for (const float* row : contents.user_rows) {
    IMCAT_RETURN_IF_ERROR(out.Write(row, static_cast<size_t>(row_bytes)));
  }
  for (int64_t k = 0; k < num_changed; ++k) {
    IMCAT_RETURN_IF_ERROR(out.Write(
        contents.shard_rows[static_cast<size_t>(k)],
        static_cast<size_t>(
            shard_bytes(contents.shard_indices[static_cast<size_t>(k)]))));
  }
  return out.Commit();
}

StatusOr<DeltaManifest> ReadDeltaSnapshotManifest(const std::string& path) {
  ShardFileReader reader;
  IMCAT_RETURN_IF_ERROR(reader.Open(path));
  DeltaManifest manifest;
  IMCAT_RETURN_IF_ERROR(ReadDeltaManifest(&reader, &manifest));
  return manifest;
}

StatusOr<DeltaLoadResult> LoadDeltaSnapshot(
    const std::string& path, const SnapshotLoadOptions& options) {
  ShardFileReader reader;
  IMCAT_RETURN_IF_ERROR(reader.Open(path));
  DeltaLoadResult result;
  IMCAT_RETURN_IF_ERROR(ReadDeltaManifest(&reader, &result.manifest));
  const DeltaManifest& manifest = result.manifest;

  // The user-row section must validate in full: without it the delta
  // cannot be applied at all.
  const int64_t num_changed_users = manifest.num_changed_users();
  std::vector<unsigned char> section(
      static_cast<size_t>(manifest.user_rows.byte_size));
  Status user_status =
      ReadValidated(&reader, manifest.user_rows, options.shard_read_attempts,
                    section.data());
  if (!user_status.ok()) {
    return Status(user_status.code(),
                  "delta user rows failed validation: " +
                      user_status.message());
  }
  result.user_ids.resize(static_cast<size_t>(num_changed_users));
  result.user_rows.resize(
      static_cast<size_t>(num_changed_users * manifest.dim));
  const size_t id_bytes = result.user_ids.size() * sizeof(int64_t);
  std::memcpy(result.user_ids.data(), section.data(), id_bytes);
  std::memcpy(result.user_rows.data(), section.data() + id_bytes,
              section.size() - id_bytes);
  int64_t previous = -1;
  for (int64_t id : result.user_ids) {
    // Checksummed but nonsensical: a writer bug, never applied.
    if (id <= previous || id >= manifest.num_users) {
      return Status::DataLoss(path + ": delta user id " + std::to_string(id) +
                              " out of order or past " +
                              std::to_string(manifest.num_users) + " users");
    }
    previous = id;
  }

  // Each changed shard validates independently. A corrupt shard's payload
  // stays empty and is reported through shard_ok — the *apply* layer then
  // decides whether the base's old rows can keep serving that range.
  const size_t num_changed = manifest.changed_shards.size();
  result.shard_ok.assign(num_changed, 1);
  result.shard_data.resize(num_changed);
  std::vector<float> scratch;
  for (size_t s = 0; s < num_changed; ++s) {
    const DeltaShardEntry& entry = manifest.changed_shards[s];
    Status shard_status =
        ReadItemShard(&reader, entry.shard, options.shard_read_attempts,
                      manifest.dim, ItemLayout::kPanels, &scratch,
                      &result.shard_data[s]);
    if (shard_status.ok()) continue;
    if (!options.allow_partial) {
      return Status(shard_status.code(),
                    "delta shard " + std::to_string(entry.shard_index) +
                        " [" + std::to_string(entry.shard.begin) + ", " +
                        std::to_string(entry.shard.end) +
                        ") failed validation: " + shard_status.message());
    }
    result.shard_ok[s] = 0;
    ++result.corrupt_count;
  }
  if (num_changed > 0 &&
      result.corrupt_count == static_cast<int64_t>(num_changed)) {
    return Status::DataLoss(path +
                            ": every changed shard failed validation; delta "
                            "refused");
  }
  return result;
}

}  // namespace imcat
