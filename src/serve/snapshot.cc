#include "serve/snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "serve/shard_format.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

using PanelBuffer = std::shared_ptr<const std::vector<float>>;

std::shared_ptr<const ItemShard> MakeShard(ItemShard::State state,
                                           PanelBuffer panels) {
  auto shard = std::make_shared<ItemShard>();
  shard->state = state;
  shard->panels = std::move(panels);
  return shard;
}

/// The one zero panel buffer the quarantined shards of a snapshot share,
/// built on first use and sized for the largest shard the snapshot can
/// hold (min(items_per_shard, num_items) rows, padded to whole panels).
class ZeroPanels {
 public:
  ZeroPanels(int64_t items_per_shard, int64_t num_items, int64_t dim)
      : floats_(static_cast<size_t>(
            NumPanels(std::min(items_per_shard, num_items)) * kPanelItems *
            dim)) {}

  std::shared_ptr<const ItemShard> Shard() {
    if (buffer_ == nullptr) {
      buffer_ = std::make_shared<const std::vector<float>>(floats_, 0.0f);
    }
    return MakeShard(ItemShard::State::kQuarantined, buffer_);
  }

 private:
  size_t floats_;
  PanelBuffer buffer_;
};

std::shared_ptr<const ItemShard> FreshShard(std::vector<float> panels) {
  return MakeShard(ItemShard::State::kFresh,
                   std::make_shared<const std::vector<float>>(
                       std::move(panels)));
}

}  // namespace

StatusOr<std::shared_ptr<EmbeddingSnapshot>> EmbeddingSnapshot::Load(
    const std::string& path, const SnapshotLoadOptions& options) {
  FaultInjector& injector = FaultInjector::Instance();
  if (injector.enabled() && injector.ConsumeLoadFailure()) {
    return Status::IoError(path + ": injected snapshot load failure");
  }
  auto loaded = LoadShardedSnapshot(path, options, ItemLayout::kPanels);
  IMCAT_RETURN_IF_ERROR(loaded.status());
  ShardedLoadResult result = std::move(loaded).value();
  std::shared_ptr<EmbeddingSnapshot> snapshot(new EmbeddingSnapshot());
  snapshot->num_users_ = result.manifest.num_users;
  snapshot->num_items_ = result.manifest.num_items;
  snapshot->dim_ = result.manifest.dim;
  snapshot->parent_version_ = result.manifest.parent_version;
  snapshot->items_per_shard_ = result.manifest.items_per_shard;
  snapshot->users_ = std::move(result.users);
  ZeroPanels zeros(snapshot->items_per_shard_, snapshot->num_items_,
                   snapshot->dim_);
  for (size_t s = 0; s < result.item_shards.size(); ++s) {
    snapshot->shards_.push_back(result.quarantined[s] != 0
                                    ? zeros.Shard()
                                    : FreshShard(std::move(
                                          result.item_shards[s])));
  }
  snapshot->CountShardStates();
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

  const int64_t dim = manifest.dim;
  // The base's user table once, grown with zero rows, shipped rows over it.
  snapshot->users_.reserve(static_cast<size_t>(manifest.num_users * dim));
  snapshot->users_ = base->users_;
  snapshot->users_.resize(static_cast<size_t>(manifest.num_users * dim),
                          0.0f);
  for (size_t k = 0; k < result.user_ids.size(); ++k) {
    std::memcpy(snapshot->users_.data() + result.user_ids[k] * dim,
                result.user_rows.data() + k * static_cast<size_t>(dim),
                static_cast<size_t>(dim) * sizeof(float));
  }

  // A shard whose new range [begin, end) lies entirely inside the base's
  // catalogue is the base's own shard (same rows, same health); a shard
  // whose range extends past it (brand-new, or the old tail shard grown by
  // cold-start items) has no complete fallback and starts quarantined
  // until the delta ships it.
  const int64_t ips = manifest.items_per_shard;
  const int64_t base_items = base->num_items();
  const int64_t num_shards = (manifest.num_items + ips - 1) / ips;
  ZeroPanels zeros(ips, manifest.num_items, dim);
  snapshot->shards_.reserve(static_cast<size_t>(num_shards));
  for (int64_t s = 0; s < num_shards; ++s) {
    const int64_t end = std::min((s + 1) * ips, manifest.num_items);
    snapshot->shards_.push_back(end <= base_items ? base->shard(s)
                                                  : zeros.Shard());
  }
  for (size_t i = 0; i < manifest.changed_shards.size(); ++i) {
    const DeltaShardEntry& entry = manifest.changed_shards[i];
    std::shared_ptr<const ItemShard>& shard =
        snapshot->shards_[static_cast<size_t>(entry.shard_index)];
    if (result.shard_ok[i]) {
      shard = FreshShard(std::move(result.shard_data[i]));
    } else if (entry.shard.end <= base_items &&
               !base->shard_quarantined(entry.shard_index)) {
      // Corrupt changed shard over healthy base rows: keep them, stale.
      shard = MakeShard(ItemShard::State::kStale,
                        base->shard(entry.shard_index)->panels);
    } else {
      shard = zeros.Shard();
    }
  }
  snapshot->CountShardStates();
  if (snapshot->quarantined_count_ == num_shards) {
    return Status::DataLoss(delta_path +
                            ": applying the delta would quarantine every "
                            "shard; delta refused");
  }
  return snapshot;
}

void EmbeddingSnapshot::CountShardStates() {
  quarantined_count_ = 0;
  stale_count_ = 0;
  for (int64_t s = 0; s < num_shards(); ++s) {
    quarantined_count_ += shard_quarantined(s) ? 1 : 0;
    stale_count_ += shard_stale(s) ? 1 : 0;
  }
}

std::vector<float> EmbeddingSnapshot::CopyItemRows() const {
  std::vector<float> rows(static_cast<size_t>(num_items_ * dim_));
  for (int64_t s = 0; s < num_shards(); ++s) {
    const auto [begin, end] = shard_range(s);
    const float* panels = shard_panels(s);
    for (int64_t j = 0; j < end - begin; ++j) {
      for (int64_t c = 0; c < dim_; ++c) {
        rows[static_cast<size_t>((begin + j) * dim_ + c)] =
            panels[PanelOffset(j, c, dim_)];
      }
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
