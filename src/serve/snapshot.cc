#include "serve/snapshot.h"

#include <cstring>
#include <utility>

#include "serve/shard_format.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

/// Loads the monolithic v2 checkpoint layout: exactly two tensors (user
/// table, item table) over one embedding dimension, validated in full by
/// the checkpoint trailer checksum before any byte is published. The
/// result is modelled as one never-quarantined shard spanning the whole
/// catalogue, so the shard-topology accessors stay meaningful.
Status LoadMonolithic(const std::string& path, int64_t* num_users,
                      int64_t* num_items, int64_t* dim,
                      std::vector<float>* users, std::vector<float>* items) {
  auto shapes = ReadCheckpointShapes(path);
  IMCAT_RETURN_IF_ERROR(shapes.status());
  if (shapes.value().size() != 2) {
    return Status::InvalidArgument(
        path + ": serving snapshot needs exactly 2 tensors (user table, "
               "item table), found " +
        std::to_string(shapes.value().size()));
  }
  const auto [users_rows, user_dim] = shapes.value()[0];
  const auto [items_rows, item_dim] = shapes.value()[1];
  if (users_rows <= 0 || items_rows <= 0 || user_dim <= 0 ||
      user_dim != item_dim) {
    return Status::InvalidArgument(
        path + ": user table " + std::to_string(users_rows) + "x" +
        std::to_string(user_dim) + " and item table " +
        std::to_string(items_rows) + "x" + std::to_string(item_dim) +
        " are not factor matrices over one embedding dimension");
  }
  // Stage through tensors so the full checksum validation in LoadCheckpoint
  // runs before any data is published.
  std::vector<Tensor> tensors;
  tensors.emplace_back(users_rows, user_dim);
  tensors.emplace_back(items_rows, item_dim);
  IMCAT_RETURN_IF_ERROR(LoadCheckpoint(path, &tensors));

  *num_users = users_rows;
  *num_items = items_rows;
  *dim = user_dim;
  users->assign(tensors[0].data(), tensors[0].data() + tensors[0].size());
  items->reserve(static_cast<size_t>(NumPanels(items_rows) * kPanelItems *
                                     item_dim));
  items->assign(tensors[1].data(), tensors[1].data() + tensors[1].size());
  return Status::OK();
}

/// Writes item rows [begin, end) (row-major, `dim` floats each) into their
/// panel lanes; null `rows` zeroes the lanes instead.
void ScatterRows(const float* rows, int64_t begin, int64_t end, int64_t dim,
                 float* panels) {
  for (int64_t i = begin; i < end; ++i) {
    for (int64_t c = 0; c < dim; ++c) {
      panels[PanelOffset(i, c, dim)] =
          rows != nullptr ? rows[(i - begin) * dim + c] : 0.0f;
    }
  }
}

}  // namespace

StatusOr<std::shared_ptr<EmbeddingSnapshot>> EmbeddingSnapshot::Load(
    const std::string& path, const SnapshotLoadOptions& options) {
  FaultInjector& injector = FaultInjector::Instance();
  if (injector.enabled() && injector.ConsumeLoadFailure()) {
    return Status::IoError(path + ": injected snapshot load failure");
  }
  std::shared_ptr<EmbeddingSnapshot> snapshot(new EmbeddingSnapshot());
  if (IsShardedSnapshotFile(path)) {
    auto loaded = LoadShardedSnapshot(path, options);
    IMCAT_RETURN_IF_ERROR(loaded.status());
    ShardedLoadResult result = std::move(loaded).value();
    snapshot->num_users_ = result.manifest.num_users;
    snapshot->num_items_ = result.manifest.num_items;
    snapshot->dim_ = result.manifest.dim;
    snapshot->parent_version_ = result.manifest.parent_version;
    snapshot->items_per_shard_ = result.manifest.items_per_shard;
    snapshot->quarantined_ = std::move(result.quarantined);
    snapshot->quarantined_count_ = result.quarantined_count;
    snapshot->stale_.assign(snapshot->quarantined_.size(), 0);
    snapshot->users_ = std::move(result.users);
    snapshot->items_ = std::move(result.items);
    PackPanelsInPlace(&snapshot->items_, snapshot->num_items_,
                      snapshot->dim_);
    return snapshot;
  }
  IMCAT_RETURN_IF_ERROR(LoadMonolithic(
      path, &snapshot->num_users_, &snapshot->num_items_, &snapshot->dim_,
      &snapshot->users_, &snapshot->items_));
  PackPanelsInPlace(&snapshot->items_, snapshot->num_items_, snapshot->dim_);
  snapshot->items_per_shard_ = snapshot->num_items_;
  snapshot->quarantined_.assign(1, 0);
  snapshot->stale_.assign(1, 0);
  return snapshot;
}

StatusOr<std::shared_ptr<EmbeddingSnapshot>> EmbeddingSnapshot::ApplyDelta(
    const std::shared_ptr<const EmbeddingSnapshot>& base,
    const std::string& delta_path, const SnapshotLoadOptions& options) {
  if (base == nullptr) {
    return Status::InvalidArgument(delta_path +
                                   ": cannot apply a delta without a base "
                                   "snapshot");
  }
  FaultInjector& injector = FaultInjector::Instance();
  if (injector.enabled() && injector.ConsumeLoadFailure()) {
    return Status::IoError(delta_path + ": injected delta load failure");
  }
  // Version-chain check on the manifest alone, before any payload is read:
  // a stale or out-of-order delta is refused cheaply and unambiguously.
  auto manifest_or = ReadDeltaSnapshotManifest(delta_path);
  IMCAT_RETURN_IF_ERROR(manifest_or.status());
  const DeltaManifest& peek = manifest_or.value();
  if (peek.base_version != base->version()) {
    return Status::FailedPrecondition(
        delta_path + ": delta chains to base version " +
        std::to_string(peek.base_version) + " but live snapshot is version " +
        std::to_string(base->version()));
  }
  if (peek.dim != base->dim() ||
      peek.items_per_shard != base->items_per_shard()) {
    return Status::InvalidArgument(
        delta_path + ": delta geometry (dim " + std::to_string(peek.dim) +
        ", items/shard " + std::to_string(peek.items_per_shard) +
        ") does not match base (dim " + std::to_string(base->dim()) +
        ", items/shard " + std::to_string(base->items_per_shard()) + ")");
  }
  if (peek.num_users < base->num_users() ||
      peek.num_items < base->num_items()) {
    return Status::InvalidArgument(
        delta_path + ": delta shrinks the catalogue (" +
        std::to_string(peek.num_users) + " users, " +
        std::to_string(peek.num_items) + " items vs base " +
        std::to_string(base->num_users()) + ", " +
        std::to_string(base->num_items()) + ")");
  }

  auto loaded = LoadDeltaSnapshot(delta_path, options);
  IMCAT_RETURN_IF_ERROR(loaded.status());
  DeltaLoadResult result = std::move(loaded).value();
  const DeltaManifest& manifest = result.manifest;

  // Everything below builds the complete replacement snapshot before the
  // caller can publish it — a delta is applied in full or not at all.
  std::shared_ptr<EmbeddingSnapshot> snapshot(new EmbeddingSnapshot());
  snapshot->num_users_ = manifest.num_users;
  snapshot->num_items_ = manifest.num_items;
  snapshot->dim_ = manifest.dim;
  snapshot->items_per_shard_ = manifest.items_per_shard;
  snapshot->parent_version_ = manifest.version;
  snapshot->base_version_ = base->version();
  snapshot->version_ = manifest.version;
  snapshot->users_ = std::move(result.users);

  const int64_t dim = manifest.dim;
  const int64_t ips = manifest.items_per_shard;
  const int64_t base_items = base->num_items();
  const int64_t num_shards = (manifest.num_items + ips - 1) / ips;
  // Panels are global, so the base's panels (tail padding included, which
  // is zero) are a prefix of the new table; changed shards are scattered
  // into their lanes below.
  snapshot->items_.assign(
      static_cast<size_t>(NumPanels(manifest.num_items) * kPanelItems * dim),
      0.0f);
  std::memcpy(snapshot->items_.data(), base->items_.data(),
              base->items_.size() * sizeof(float));

  // A shard whose new range [begin, end) lies entirely inside the base's
  // catalogue inherits the base's health; a shard whose range extends past
  // it (brand-new, or the old tail shard grown by cold-start items) has no
  // complete fallback and starts quarantined until the delta ships it.
  snapshot->quarantined_.assign(static_cast<size_t>(num_shards), 0);
  snapshot->stale_.assign(static_cast<size_t>(num_shards), 0);
  for (int64_t s = 0; s < num_shards; ++s) {
    const int64_t end = std::min((s + 1) * ips, manifest.num_items);
    if (end <= base_items) {
      snapshot->quarantined_[s] = base->quarantined_[s];
      snapshot->stale_[s] = base->stale_[s];
    } else {
      snapshot->quarantined_[s] = 1;
    }
  }
  for (size_t i = 0; i < manifest.changed_shards.size(); ++i) {
    const DeltaShardEntry& entry = manifest.changed_shards[i];
    const int64_t s = entry.shard_index;
    if (result.shard_ok[i]) {
      ScatterRows(result.shard_data[i].data(), entry.shard.begin,
                  entry.shard.end, dim, snapshot->items_.data());
      snapshot->quarantined_[s] = 0;
      snapshot->stale_[s] = 0;
      continue;
    }
    // Corrupt changed shard: fall back to the base's old rows when they
    // cover the whole range and were healthy (stale), else quarantine.
    const bool covered = entry.shard.end <= base_items;
    if (covered && !base->shard_quarantined(s)) {
      snapshot->stale_[s] = 1;
    } else {
      snapshot->quarantined_[s] = 1;
      snapshot->stale_[s] = 0;
      // Quarantined rows are zero-filled by contract; clear any base rows
      // copied into the prefix of a partially-covered range.
      ScatterRows(nullptr, entry.shard.begin,
                  std::min(entry.shard.end, base_items), dim,
                  snapshot->items_.data());
    }
  }
  for (int64_t s = 0; s < num_shards; ++s) {
    snapshot->quarantined_count_ += snapshot->quarantined_[s];
    snapshot->stale_count_ += snapshot->stale_[s];
  }
  if (snapshot->quarantined_count_ == num_shards) {
    return Status::DataLoss(delta_path +
                            ": applying the delta would quarantine every "
                            "shard; delta refused");
  }
  return snapshot;
}

std::vector<float> EmbeddingSnapshot::CopyItemRows() const {
  std::vector<float> rows(static_cast<size_t>(num_items_ * dim_));
  for (int64_t i = 0; i < num_items_; ++i) {
    for (int64_t c = 0; c < dim_; ++c) {
      rows[static_cast<size_t>(i * dim_ + c)] = item_value(i, c);
    }
  }
  return rows;
}

const float* EmbeddingSnapshot::item(int64_t i) const {
  std::call_once(item_rows_once_, [this] { item_rows_ = CopyItemRows(); });
  return item_rows_.data() + i * dim_;
}

Status EmbeddingSnapshot::ValidateUser(int64_t u) const {
  if (u < 0 || u >= num_users_) {
    return Status::InvalidArgument(
        "user id " + std::to_string(u) + " outside [0, " +
        std::to_string(num_users_) + ")");
  }
  return Status::OK();
}

Status EmbeddingSnapshot::ValidateItem(int64_t i) const {
  if (i < 0 || i >= num_items_) {
    return Status::InvalidArgument(
        "item id " + std::to_string(i) + " outside [0, " +
        std::to_string(num_items_) + ")");
  }
  return Status::OK();
}

StatusOr<float> EmbeddingSnapshot::ScoreChecked(int64_t u, int64_t i) const {
  IMCAT_RETURN_IF_ERROR(ValidateUser(u));
  IMCAT_RETURN_IF_ERROR(ValidateItem(i));
  if (!item_available(i)) {
    return Status::Unavailable(
        "item " + std::to_string(i) + " is in quarantined shard " +
        std::to_string(shard_of_item(i)));
  }
  return Score(u, i);
}

std::vector<std::pair<int64_t, int64_t>> EmbeddingSnapshot::QuarantinedRanges()
    const {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int64_t s = 0; s < num_shards(); ++s) {
    if (!shard_quarantined(s)) continue;
    const auto [begin, end] = shard_range(s);
    if (!ranges.empty() && ranges.back().second == begin) {
      ranges.back().second = end;  // Coalesce adjacent quarantined shards.
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  return ranges;
}

std::vector<std::pair<int64_t, int64_t>> EmbeddingSnapshot::StaleRanges()
    const {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int64_t s = 0; s < num_shards(); ++s) {
    if (!shard_stale(s)) continue;
    const auto [begin, end] = shard_range(s);
    if (!ranges.empty() && ranges.back().second == begin) {
      ranges.back().second = end;
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  return ranges;
}

}  // namespace imcat
