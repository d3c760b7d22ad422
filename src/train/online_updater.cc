#include "train/online_updater.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "serve/shard_format.h"
#include "serve/snapshot_store.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace imcat {

namespace {

/// Checkpoint v2 stores float32 tensors, whose 24-bit mantissa cannot hold
/// a large id exactly — so every int64 in the updater checkpoint is split
/// into three 21-bit chunks, one float each (floats represent integers
/// < 2^24 exactly). Covers the full non-negative id range the ingest layer
/// admits (< 2^40) with room to spare (63 bits).
constexpr int kChunkBits = 21;
constexpr int64_t kChunkMask = (int64_t{1} << kChunkBits) - 1;
constexpr int64_t kFloatsPerI64 = 3;

void AppendI64(std::vector<float>* out, int64_t value) {
  IMCAT_CHECK(value >= 0);
  out->push_back(static_cast<float>(value & kChunkMask));
  out->push_back(static_cast<float>((value >> kChunkBits) & kChunkMask));
  out->push_back(static_cast<float>((value >> (2 * kChunkBits)) & kChunkMask));
}

int64_t DecodeI64(const float* chunks) {
  return static_cast<int64_t>(chunks[0]) +
         (static_cast<int64_t>(chunks[1]) << kChunkBits) +
         (static_cast<int64_t>(chunks[2]) << (2 * kChunkBits));
}

/// Meta-tensor layout (each field one encoded int64). Bump kMetaTag when
/// the field list changes. Tag 1 (7 tensors, no dirty-user list) stored a
/// 0/1 "users dirty" flag where kMetaDirtyUserCount now sits; Restore
/// still reads it, marking every user dirty when the flag is set.
enum MetaField : int64_t {
  kMetaTagField = 0,
  kMetaPublishedVersion,
  kMetaNumUsers,
  kMetaNumItems,
  kMetaDim,
  kMetaItemsPerShard,
  kMetaInitialUsers,
  kMetaInitialItems,
  kMetaDirtyUserCount,
  kMetaDuplicates,
  kMetaGrowthRejected,
  kMetaAppliedTotal,
  kMetaPendingCount,
  kMetaDirtyCount,
  kMetaAdjacencyNnz,
  kNumMetaFields,
};
constexpr int64_t kMetaTag = 2;
constexpr int64_t kUpdaterTensorCount = 8;
constexpr int64_t kLegacyMetaTag = 1;
constexpr int64_t kLegacyUpdaterTensorCount = 7;

/// In-place Cholesky factor + solve of the SPD system A x = b, with only
/// the lower triangle of `a` populated. Returns false when a pivot is not
/// positive (cannot happen for λ > 0; the caller then leaves the row
/// unchanged rather than writing garbage).
bool CholeskySolve(std::vector<double>* a_in, int64_t d,
                   std::vector<double>* b_in) {
  std::vector<double>& a = *a_in;
  std::vector<double>& b = *b_in;
  for (int64_t j = 0; j < d; ++j) {
    double diag = a[j * d + j];
    for (int64_t k = 0; k < j; ++k) diag -= a[j * d + k] * a[j * d + k];
    if (diag <= 0.0) return false;
    diag = std::sqrt(diag);
    a[j * d + j] = diag;
    for (int64_t i = j + 1; i < d; ++i) {
      double v = a[i * d + j];
      for (int64_t k = 0; k < j; ++k) v -= a[i * d + k] * a[j * d + k];
      a[i * d + j] = v / diag;
    }
  }
  for (int64_t i = 0; i < d; ++i) {
    double v = b[i];
    for (int64_t k = 0; k < i; ++k) v -= a[i * d + k] * b[k];
    b[i] = v / a[i * d + i];
  }
  for (int64_t i = d - 1; i >= 0; --i) {
    double v = b[i];
    for (int64_t k = i + 1; k < d; ++k) v -= a[k * d + i] * b[k];
    b[i] = v / a[i * d + i];
  }
  return true;
}

/// Inserts `value` into a sorted vector, keeping it sorted and unique.
void InsertSorted(std::vector<int64_t>* vec, int64_t value) {
  auto it = std::lower_bound(vec->begin(), vec->end(), value);
  if (it == vec->end() || *it != value) vec->insert(it, value);
}

bool ContainsSorted(const std::vector<int64_t>& vec, int64_t value) {
  return std::binary_search(vec.begin(), vec.end(), value);
}

}  // namespace

void OnlineUpdater::ResolveMetrics() {
  if (options_.metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
  }
  MetricsRegistry* m =
      options_.metrics != nullptr ? options_.metrics : own_metrics_.get();
  edges_ingested_total_ = m->GetCounter("updater_edges_ingested_total");
  edges_duplicate_total_ = m->GetCounter("updater_edges_duplicate_total");
  edges_rejected_total_ = m->GetCounter("updater_edges_rejected_total");
  edges_applied_total_ = m->GetCounter("updater_edges_applied_total");
  solves_total_ = m->GetCounter("updater_solves_total");
  publishes_total_ = m->GetCounter("updater_publishes_total");
  pending_gauge_ = m->GetGauge("updater_pending_edges");
  apply_ms_ = m->GetHistogram("updater_apply_ms");
}

StatusOr<std::unique_ptr<OnlineUpdater>> OnlineUpdater::FromSnapshot(
    const std::string& snapshot_path, const EdgeList& seen,
    const OnlineUpdaterOptions& options) {
  if (options.l2 <= 0.0) {
    return Status::InvalidArgument(
        "fold-in requires l2 > 0 (the ridge term keeps the solve SPD), got " +
        std::to_string(options.l2));
  }
  // The file's row-major tables, one buffer per item shard: exactly the
  // layout the updater solves against and publishes from.
  auto loaded = LoadShardedSnapshot(snapshot_path, SnapshotLoadOptions{},
                                    ItemLayout::kRows);
  IMCAT_RETURN_IF_ERROR(loaded.status());
  ShardedLoadResult& snapshot = loaded.value();
  if (snapshot.quarantined_count > 0) {
    return Status::FailedPrecondition(
        snapshot_path + ": snapshot has " +
        std::to_string(snapshot.quarantined_count) +
        " quarantined shard(s); folding in on top of missing rows would "
        "publish garbage — seed from a clean snapshot");
  }
  const ShardManifest& manifest = snapshot.manifest;
  std::unique_ptr<OnlineUpdater> updater(new OnlineUpdater());
  updater->options_ = options;
  updater->ResolveMetrics();
  updater->dim_ = manifest.dim;
  updater->items_per_shard_ = manifest.items_per_shard;
  updater->num_users_ = manifest.num_users;
  updater->num_items_ = manifest.num_items;
  updater->initial_users_ = manifest.num_users;
  updater->initial_items_ = manifest.num_items;
  updater->published_version_ = manifest.parent_version;
  updater->users_ = std::move(snapshot.users);
  updater->item_shards_ = std::move(snapshot.item_shards);
  updater->user_items_.resize(static_cast<size_t>(updater->num_users_));
  updater->item_users_.resize(static_cast<size_t>(updater->num_items_));
  for (const auto& [u, i] : seen) {
    if (u < 0 || u >= updater->num_users_ || i < 0 ||
        i >= updater->num_items_) {
      return Status::InvalidArgument(
          snapshot_path + ": seen interaction (" + std::to_string(u) + ", " +
          std::to_string(i) + ") outside the snapshot's " +
          std::to_string(updater->num_users_) + " users x " +
          std::to_string(updater->num_items_) + " items");
    }
    updater->user_items_[static_cast<size_t>(u)].push_back(i);
    updater->item_users_[static_cast<size_t>(i)].push_back(u);
  }
  for (auto& items : updater->user_items_) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  }
  for (auto& users : updater->item_users_) {
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
  }
  return updater;
}

StatusOr<std::unique_ptr<OnlineUpdater>> OnlineUpdater::FromCheckpoint(
    const std::string& checkpoint_path, const OnlineUpdaterOptions& options) {
  std::unique_ptr<OnlineUpdater> updater(new OnlineUpdater());
  updater->options_ = options;
  updater->ResolveMetrics();
  IMCAT_RETURN_IF_ERROR(updater->Restore(checkpoint_path));
  return updater;
}

Status OnlineUpdater::IngestFile(const std::string& path) {
  EdgeList edges;
  IngestFileReport report;
  Status read = ReadEdgeFile(path, options_.ingest, &edges, &report);
  ingest_report_.MergeFrom(report);
  if (!read.ok()) return read;
  const int64_t duplicates_before = duplicates_skipped_;
  const int64_t rejected_before = growth_rejected_;
  const int64_t pending_before = pending_edges();
  IMCAT_RETURN_IF_ERROR(AddInteractions(edges));
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("updater_ingest")
            .Set("path", path)
            .Set("total", report.total_records)
            .Set("kept", report.kept)
            .Set("quarantined", report.quarantined)
            .Set("new_edges", pending_edges() - pending_before)
            .Set("duplicates", duplicates_skipped_ - duplicates_before)
            .Set("growth_rejected", growth_rejected_ - rejected_before));
  }
  return Status::OK();
}

Status OnlineUpdater::AddInteractions(const EdgeList& edges) {
  for (const auto& [u, i] : edges) {
    if (u < 0 || i < 0) {
      return Status::InvalidArgument("negative id in interaction (" +
                                     std::to_string(u) + ", " +
                                     std::to_string(i) + ")");
    }
    if (u >= initial_users_ + options_.max_new_users ||
        i >= initial_items_ + options_.max_new_items) {
      // Growth guard: one corrupt id must not balloon the factor tables.
      ++growth_rejected_;
      edges_rejected_total_->Increment();
      continue;
    }
    const bool already_applied =
        u < num_users_ &&
        ContainsSorted(user_items_[static_cast<size_t>(u)], i);
    if (already_applied || !pending_set_.emplace(u, i).second) {
      ++duplicates_skipped_;
      edges_duplicate_total_->Increment();
      continue;
    }
    pending_.emplace_back(u, i);
    edges_ingested_total_->Increment();
  }
  pending_gauge_->Set(static_cast<double>(pending_.size()));
  return Status::OK();
}

Status OnlineUpdater::ApplyPending() {
  if (pending_.empty()) return Status::OK();
  ScopedTimer timer(apply_ms_);

  // Growth: new ids extend the tables with zero rows; the fold-in solves
  // below give touched rows real factors. Shards whose item range grew
  // (the old tail shard and every new shard) must ship in the next delta
  // even when untouched — their range is new to the base.
  int64_t max_user = num_users_ - 1;
  int64_t max_item = num_items_ - 1;
  for (const auto& [u, i] : pending_) {
    max_user = std::max(max_user, u);
    max_item = std::max(max_item, i);
  }
  const int64_t old_users = num_users_;
  const int64_t old_items = num_items_;
  if (max_user + 1 > num_users_) {
    for (int64_t u = num_users_; u <= max_user; ++u) dirty_users_.insert(u);
    num_users_ = max_user + 1;
    users_.resize(static_cast<size_t>(num_users_ * dim_), 0.0f);
    user_items_.resize(static_cast<size_t>(num_users_));
  }
  if (max_item + 1 > num_items_) {
    num_items_ = max_item + 1;
    GrowItemShards();
    item_users_.resize(static_cast<size_t>(num_items_));
    const int64_t new_shards =
        (num_items_ + items_per_shard_ - 1) / items_per_shard_;
    for (int64_t s = old_items / items_per_shard_; s < new_shards; ++s) {
      dirty_shards_.insert(s);
    }
  }

  std::set<int64_t> touched_users;
  std::set<int64_t> touched_items;
  for (const auto& [u, i] : pending_) {
    InsertSorted(&user_items_[static_cast<size_t>(u)], i);
    InsertSorted(&item_users_[static_cast<size_t>(i)], u);
    touched_users.insert(u);
    touched_items.insert(i);
  }
  // Fixed solve order — users ascending, then items ascending against the
  // updated user factors — keeps the result independent of arrival order
  // within the batch and bit-identical across kill-and-resume.
  for (int64_t u : touched_users) SolveUser(u);
  for (int64_t i : touched_items) {
    SolveItem(i);
    dirty_shards_.insert(i / items_per_shard_);
  }
  dirty_users_.insert(touched_users.begin(), touched_users.end());
  const int64_t applied = static_cast<int64_t>(pending_.size());
  applied_edges_total_ += applied;
  edges_applied_total_->Add(applied);
  pending_.clear();
  pending_set_.clear();
  pending_gauge_->Set(0.0);
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("updater_apply")
            .Set("edges", applied)
            .Set("touched_users",
                 static_cast<int64_t>(touched_users.size()))
            .Set("touched_items",
                 static_cast<int64_t>(touched_items.size()))
            .Set("new_users", num_users_ - old_users)
            .Set("new_items", num_items_ - old_items)
            .Set("dirty_shards",
                 static_cast<int64_t>(dirty_shards_.size())));
  }
  return Status::OK();
}

void OnlineUpdater::GrowItemShards() {
  const int64_t num_shards =
      (num_items_ + items_per_shard_ - 1) / items_per_shard_;
  item_shards_.resize(static_cast<size_t>(num_shards));
  // Only the old tail shard and new shards can change size; each is given
  // a whole shard's capacity once, so later growth never reallocates it.
  const int64_t shard_floats = items_per_shard_ * dim_;
  for (int64_t s = num_shards - 1; s >= 0; --s) {
    std::vector<float>& rows = item_shards_[static_cast<size_t>(s)];
    const int64_t size =
        (std::min((s + 1) * items_per_shard_, num_items_) -
         s * items_per_shard_) *
        dim_;
    if (static_cast<int64_t>(rows.size()) == size) break;
    rows.reserve(static_cast<size_t>(shard_floats));
    rows.resize(static_cast<size_t>(size), 0.0f);
  }
}

void OnlineUpdater::SolveUser(int64_t u) {
  const std::vector<int64_t>& observed = user_items_[static_cast<size_t>(u)];
  if (observed.empty()) return;
  const int64_t d = dim_;
  const double w = options_.implicit_weight;
  std::vector<double> gram(static_cast<size_t>(d * d), 0.0);
  std::vector<double> rhs(static_cast<size_t>(d), 0.0);
  for (int64_t i : observed) {
    const float* v = ItemRow(i);
    for (int64_t r = 0; r < d; ++r) {
      const double vr = v[r];
      rhs[r] += w * vr;
      for (int64_t c = 0; c <= r; ++c) gram[r * d + c] += w * vr * v[c];
    }
  }
  for (int64_t r = 0; r < d; ++r) gram[r * d + r] += options_.l2;
  if (!CholeskySolve(&gram, d, &rhs)) return;
  float* row = users_.data() + u * d;
  for (int64_t r = 0; r < d; ++r) row[r] = static_cast<float>(rhs[r]);
  solves_total_->Increment();
}

void OnlineUpdater::SolveItem(int64_t i) {
  const std::vector<int64_t>& observed = item_users_[static_cast<size_t>(i)];
  if (observed.empty()) return;
  const int64_t d = dim_;
  const double w = options_.implicit_weight;
  std::vector<double> gram(static_cast<size_t>(d * d), 0.0);
  std::vector<double> rhs(static_cast<size_t>(d), 0.0);
  for (int64_t u : observed) {
    const float* p = users_.data() + u * d;
    for (int64_t r = 0; r < d; ++r) {
      const double pr = p[r];
      rhs[r] += w * pr;
      for (int64_t c = 0; c <= r; ++c) gram[r * d + c] += w * pr * p[c];
    }
  }
  for (int64_t r = 0; r < d; ++r) gram[r * d + r] += options_.l2;
  if (!CholeskySolve(&gram, d, &rhs)) return;
  float* row = ItemRow(i);
  for (int64_t r = 0; r < d; ++r) row[r] = static_cast<float>(rhs[r]);
  solves_total_->Increment();
}

Status OnlineUpdater::PublishDelta(const std::string& path) {
  if (dirty_users_.empty() && dirty_shards_.empty()) {
    return Status::FailedPrecondition(
        path + ": nothing to publish — no factor rows changed since the "
               "last publish (apply pending edges first)");
  }
  DeltaSnapshotOptions delta;
  delta.items_per_shard = items_per_shard_;
  delta.base_version = published_version_;
  delta.version = published_version_ + 1;
  // Views into the updater's own buffers: nothing is copied on the way to
  // the file.
  DeltaContents contents;
  contents.num_users = num_users_;
  contents.num_items = num_items_;
  contents.dim = dim_;
  for (int64_t u : dirty_users_) {
    contents.user_ids.push_back(u);
    contents.user_rows.push_back(users_.data() + u * dim_);
  }
  for (int64_t s : dirty_shards_) {
    contents.shard_indices.push_back(s);
    contents.shard_rows.push_back(item_shards_[static_cast<size_t>(s)].data());
  }
  Status written = WriteDeltaSnapshot(path, contents, delta);
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("updater_publish")
            .Set("kind", "delta")
            .Set("ok", written.ok())
            .Set("path", path)
            .Set("base_version", delta.base_version)
            .Set("version", delta.version)
            .Set("changed_users",
                 static_cast<int64_t>(contents.user_ids.size()))
            .Set("changed_shards",
                 static_cast<int64_t>(contents.shard_indices.size())));
  }
  IMCAT_RETURN_IF_ERROR(written);
  published_version_ = delta.version;
  dirty_shards_.clear();
  dirty_users_.clear();
  publishes_total_->Increment();
  return Status::OK();
}

Status OnlineUpdater::PublishFull(const std::string& path) {
  ShardedSnapshotOptions full;
  full.items_per_shard = items_per_shard_;
  full.version = published_version_ + 1;
  std::vector<const float*> shards;
  for (const std::vector<float>& rows : item_shards_) {
    shards.push_back(rows.data());
  }
  Status written = WriteShardedSnapshot(path, users_.data(), num_users_,
                                        shards, num_items_, dim_, full);
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("updater_publish")
            .Set("kind", "full")
            .Set("ok", written.ok())
            .Set("path", path)
            .Set("version", full.version));
  }
  IMCAT_RETURN_IF_ERROR(written);
  published_version_ = full.version;
  dirty_shards_.clear();
  dirty_users_.clear();
  publishes_total_->Increment();
  return Status::OK();
}

Status OnlineUpdater::PublishDelta(SnapshotStore* store) {
  const int64_t base = published_version_;
  const int64_t version = published_version_ + 1;
  IMCAT_RETURN_IF_ERROR(PublishDelta(store->DeltaPath(base, version)));
  return store->CommitDelta(base, version);
}

Status OnlineUpdater::PublishFull(SnapshotStore* store) {
  const int64_t version = published_version_ + 1;
  IMCAT_RETURN_IF_ERROR(PublishFull(store->FullPath(version)));
  return store->CommitFull(version);
}

Status OnlineUpdater::Checkpoint(const std::string& path) const {
  std::vector<Tensor> tensors;
  tensors.reserve(kUpdaterTensorCount);
  tensors.emplace_back(num_users_, dim_, users_);
  std::vector<float> items;
  items.reserve(static_cast<size_t>(num_items_ * dim_));
  for (const std::vector<float>& rows : item_shards_) {
    items.insert(items.end(), rows.begin(), rows.end());
  }
  tensors.emplace_back(num_items_, dim_, std::move(items));

  std::vector<float> meta;
  meta.reserve(static_cast<size_t>(kNumMetaFields * kFloatsPerI64));
  int64_t nnz = 0;
  for (const auto& items : user_items_) {
    nnz += static_cast<int64_t>(items.size());
  }
  AppendI64(&meta, kMetaTag);
  AppendI64(&meta, published_version_);
  AppendI64(&meta, num_users_);
  AppendI64(&meta, num_items_);
  AppendI64(&meta, dim_);
  AppendI64(&meta, items_per_shard_);
  AppendI64(&meta, initial_users_);
  AppendI64(&meta, initial_items_);
  AppendI64(&meta, static_cast<int64_t>(dirty_users_.size()));
  AppendI64(&meta, duplicates_skipped_);
  AppendI64(&meta, growth_rejected_);
  AppendI64(&meta, applied_edges_total_);
  AppendI64(&meta, static_cast<int64_t>(pending_.size()));
  AppendI64(&meta, static_cast<int64_t>(dirty_shards_.size()));
  AppendI64(&meta, nnz);
  tensors.emplace_back(1, static_cast<int64_t>(meta.size()), std::move(meta));

  // Adjacency as CSR over users (item_users_ is its transpose, rebuilt on
  // Restore). Empty payloads pad to one zero float: a (1, 0) tensor is not
  // representable, and the meta counts carry the true lengths.
  std::vector<float> offsets;
  offsets.reserve(static_cast<size_t>((num_users_ + 1) * kFloatsPerI64));
  std::vector<float> adjacency;
  adjacency.reserve(static_cast<size_t>(nnz * kFloatsPerI64));
  int64_t running = 0;
  AppendI64(&offsets, 0);
  for (const auto& items : user_items_) {
    running += static_cast<int64_t>(items.size());
    AppendI64(&offsets, running);
    for (int64_t i : items) AppendI64(&adjacency, i);
  }
  if (adjacency.empty()) adjacency.push_back(0.0f);
  tensors.emplace_back(1, static_cast<int64_t>(offsets.size()),
                       std::move(offsets));
  tensors.emplace_back(1, static_cast<int64_t>(adjacency.size()),
                       std::move(adjacency));

  std::vector<float> dirty;
  for (int64_t s : dirty_shards_) AppendI64(&dirty, s);
  if (dirty.empty()) dirty.push_back(0.0f);
  tensors.emplace_back(1, static_cast<int64_t>(dirty.size()),
                       std::move(dirty));

  std::vector<float> pending;
  pending.reserve(pending_.size() * 2 * kFloatsPerI64);
  for (const auto& [u, i] : pending_) {
    AppendI64(&pending, u);
    AppendI64(&pending, i);
  }
  if (pending.empty()) pending.push_back(0.0f);
  tensors.emplace_back(1, static_cast<int64_t>(pending.size()),
                       std::move(pending));

  std::vector<float> dirty_users;
  for (int64_t u : dirty_users_) AppendI64(&dirty_users, u);
  if (dirty_users.empty()) dirty_users.push_back(0.0f);
  tensors.emplace_back(1, static_cast<int64_t>(dirty_users.size()),
                       std::move(dirty_users));

  return SaveCheckpoint(path, tensors);
}

Status OnlineUpdater::Restore(const std::string& path) {
  auto shapes_or = ReadCheckpointShapes(path);
  IMCAT_RETURN_IF_ERROR(shapes_or.status());
  const auto& shapes = shapes_or.value();
  const int64_t tensor_count = static_cast<int64_t>(shapes.size());
  if (tensor_count != kUpdaterTensorCount &&
      tensor_count != kLegacyUpdaterTensorCount) {
    return Status::InvalidArgument(
        path + ": not an updater checkpoint (expected " +
        std::to_string(kUpdaterTensorCount) + " or " +
        std::to_string(kLegacyUpdaterTensorCount) + " tensors, found " +
        std::to_string(tensor_count) + ")");
  }
  const bool legacy = tensor_count == kLegacyUpdaterTensorCount;
  std::vector<Tensor> tensors;
  tensors.reserve(shapes.size());
  for (const auto& [rows, cols] : shapes) tensors.emplace_back(rows, cols);
  IMCAT_RETURN_IF_ERROR(LoadCheckpoint(path, &tensors));

  const Tensor& meta = tensors[2];
  if (meta.size() != kNumMetaFields * kFloatsPerI64 ||
      DecodeI64(meta.data() + kMetaTagField * kFloatsPerI64) !=
          (legacy ? kLegacyMetaTag : kMetaTag)) {
    return Status::InvalidArgument(path +
                                   ": not an updater checkpoint (meta "
                                   "tensor tag mismatch)");
  }
  const auto field = [&meta](MetaField f) {
    return DecodeI64(meta.data() + f * kFloatsPerI64);
  };
  const int64_t num_users = field(kMetaNumUsers);
  const int64_t num_items = field(kMetaNumItems);
  const int64_t dim = field(kMetaDim);
  const int64_t pending_count = field(kMetaPendingCount);
  const int64_t dirty_count = field(kMetaDirtyCount);
  // In a legacy checkpoint the field is the 0/1 "users dirty" flag.
  const int64_t dirty_user_count = legacy ? 0 : field(kMetaDirtyUserCount);
  const bool all_users_dirty = legacy && field(kMetaDirtyUserCount) != 0;
  const int64_t nnz = field(kMetaAdjacencyNnz);
  const auto padded = [](int64_t n) { return std::max<int64_t>(n, 1); };
  if (num_users <= 0 || num_items <= 0 || dim <= 0 ||
      field(kMetaItemsPerShard) <= 0 || pending_count < 0 ||
      dirty_count < 0 || dirty_user_count < 0 || nnz < 0 ||
      tensors[0].rows() != num_users || tensors[0].cols() != dim ||
      tensors[1].rows() != num_items || tensors[1].cols() != dim ||
      tensors[3].size() != (num_users + 1) * kFloatsPerI64 ||
      tensors[4].size() != padded(nnz * kFloatsPerI64) ||
      tensors[5].size() != padded(dirty_count * kFloatsPerI64) ||
      tensors[6].size() != padded(pending_count * 2 * kFloatsPerI64) ||
      (!legacy &&
       tensors[7].size() != padded(dirty_user_count * kFloatsPerI64))) {
    return Status::InvalidArgument(
        path + ": updater checkpoint is internally inconsistent");
  }
  num_users_ = num_users;
  num_items_ = num_items;
  dim_ = dim;
  items_per_shard_ = field(kMetaItemsPerShard);
  initial_users_ = field(kMetaInitialUsers);
  initial_items_ = field(kMetaInitialItems);
  published_version_ = field(kMetaPublishedVersion);
  duplicates_skipped_ = field(kMetaDuplicates);
  growth_rejected_ = field(kMetaGrowthRejected);
  applied_edges_total_ = field(kMetaAppliedTotal);
  users_.assign(tensors[0].data(), tensors[0].data() + tensors[0].size());
  item_shards_.clear();
  for (int64_t begin = 0; begin < num_items_; begin += items_per_shard_) {
    const int64_t end = std::min(begin + items_per_shard_, num_items_);
    item_shards_.emplace_back(tensors[1].data() + begin * dim_,
                              tensors[1].data() + end * dim_);
  }

  const float* offsets = tensors[3].data();
  const float* adjacency = tensors[4].data();
  user_items_.assign(static_cast<size_t>(num_users_), {});
  item_users_.assign(static_cast<size_t>(num_items_), {});
  int64_t previous = 0;
  for (int64_t u = 0; u < num_users_; ++u) {
    const int64_t end = DecodeI64(offsets + (u + 1) * kFloatsPerI64);
    if (end < previous || end > nnz) {
      return Status::InvalidArgument(
          path + ": updater checkpoint adjacency offsets corrupt");
    }
    std::vector<int64_t>& items = user_items_[static_cast<size_t>(u)];
    items.reserve(static_cast<size_t>(end - previous));
    for (int64_t k = previous; k < end; ++k) {
      const int64_t item = DecodeI64(adjacency + k * kFloatsPerI64);
      if (item < 0 || item >= num_items_) {
        return Status::InvalidArgument(
            path + ": updater checkpoint adjacency item out of range");
      }
      items.push_back(item);
      // Ascending u appended per item keeps item_users_ sorted without a
      // second pass — the same order the live updater maintains.
      item_users_[static_cast<size_t>(item)].push_back(u);
    }
    previous = end;
  }
  if (previous != nnz) {
    return Status::InvalidArgument(
        path + ": updater checkpoint adjacency length mismatch");
  }

  dirty_shards_.clear();
  const float* dirty = tensors[5].data();
  const int64_t total_shards =
      (num_items_ + items_per_shard_ - 1) / items_per_shard_;
  for (int64_t k = 0; k < dirty_count; ++k) {
    const int64_t shard = DecodeI64(dirty + k * kFloatsPerI64);
    if (shard < 0 || shard >= total_shards) {
      return Status::InvalidArgument(
          path + ": updater checkpoint dirty shard out of range");
    }
    dirty_shards_.insert(shard);
  }

  dirty_users_.clear();
  // A legacy checkpoint only knew that some user changed: re-ship them all
  // (a larger first delta, the same published rows).
  for (int64_t u = 0; all_users_dirty && u < num_users_; ++u) {
    dirty_users_.insert(u);
  }
  for (int64_t k = 0; k < dirty_user_count; ++k) {
    const int64_t user = DecodeI64(tensors[7].data() + k * kFloatsPerI64);
    if (user < 0 || user >= num_users_) {
      return Status::InvalidArgument(
          path + ": updater checkpoint dirty user out of range");
    }
    dirty_users_.insert(user);
  }

  pending_.clear();
  pending_set_.clear();
  const float* pending = tensors[6].data();
  for (int64_t k = 0; k < pending_count; ++k) {
    const int64_t u = DecodeI64(pending + 2 * k * kFloatsPerI64);
    const int64_t i = DecodeI64(pending + (2 * k + 1) * kFloatsPerI64);
    pending_.emplace_back(u, i);
    pending_set_.emplace(u, i);
  }
  ingest_report_ = IngestFileReport();
  pending_gauge_->Set(static_cast<double>(pending_.size()));
  if (options_.journal != nullptr) {
    options_.journal->Append(JournalEvent("updater_restore")
                                 .Set("path", path)
                                 .Set("pending", pending_count)
                                 .Set("published_version",
                                      published_version_));
  }
  return Status::OK();
}

}  // namespace imcat
