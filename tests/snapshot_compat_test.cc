// Cross-version snapshot load-compatibility matrix:
//
//  - v2 monolithic checkpoints load as a single healthy shard;
//  - v3 sharded snapshots round-trip with their manifest version;
//  - v3 + delta chains apply in order across multiple versions, and a
//    skipped link in the chain is refused (kFailedPrecondition);
//  - a delta can chain onto a freshly loaded v2 monolithic base (version
//    0), but geometry mismatches (dim, items_per_shard, shrinking tables)
//    are refused;
//  - byte-crafted v3 and delta files written to the *published layout
//    spec* (shard_format.h), not through the writer, load bit-exactly —
//    pinning the on-disk layout against accidental drift between
//    releases. A tampered magic or format version fails cleanly.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "util/checksum.h"
#include "util/status.h"

namespace imcat {
namespace {

constexpr int64_t kUsers = 10;
constexpr int64_t kItems = 30;
constexpr int64_t kDim = 4;
constexpr int64_t kIps = 8;

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

/// Little-endian byte assembler for the hand-crafted layout files.
struct ByteWriter {
  std::string bytes;

  template <typename T>
  void Value(T value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  void Raw(const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  }
  void WriteTo(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
};

// ---------------------------------------------------------------------------
// v2 monolithic

TEST(SnapshotCompatTest, V2MonolithicCheckpointLoads) {
  const std::string path = TestTempPath("compat_v2.ckpt");
  std::vector<Tensor> tensors = {UserTable(), ItemTable()};
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  EXPECT_FALSE(IsShardedSnapshotFile(path));
  EXPECT_FALSE(IsDeltaSnapshotFile(path));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_shards(), 1);
  EXPECT_EQ(loaded.value()->quarantined_count(), 0);
  EXPECT_EQ(loaded.value()->parent_version(), 0);
  const Tensor users = UserTable();
  const Tensor items = ItemTable();
  float expected = 0.0f;
  for (int64_t d = 0; d < kDim; ++d) {
    expected += users.data()[3 * kDim + d] * items.data()[7 * kDim + d];
  }
  EXPECT_EQ(loaded.value()->Score(3, 7), expected);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v3 full + delta chains

TEST(SnapshotCompatTest, V3FullSnapshotRoundTripsWithVersion) {
  const std::string path = TestTempPath("compat_v3.snap");
  ASSERT_TRUE(
      WriteShardedSnapshot(path, UserTable(), ItemTable(), {kIps, 11}).ok());
  EXPECT_TRUE(IsShardedSnapshotFile(path));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->parent_version(), 11);
  EXPECT_EQ(loaded.value()->num_shards(), 4);
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, DeltaChainAppliesInOrderAndRefusesSkippedLinks) {
  const std::string base_path = TestTempPath("compat_chain_base.snap");
  ASSERT_TRUE(
      WriteShardedSnapshot(base_path, UserTable(), ItemTable(), {kIps, 1})
          .ok());
  auto base = EmbeddingSnapshot::Load(base_path);
  ASSERT_TRUE(base.ok());
  base.value()->set_version(base.value()->parent_version());

  // Two chained deltas, each bumping one item shard's rows.
  Tensor items_v2 = ItemTable();
  for (int64_t d = 0; d < kDim; ++d) items_v2.data()[2 * kDim + d] = 1.0f;
  const std::string delta12 = TestTempPath("compat_chain_12.delta");
  ASSERT_TRUE(WriteDeltaSnapshot(delta12, UserTable(), items_v2, {0},
                                 {kIps, 1, 2})
                  .ok());
  Tensor items_v3 = items_v2;
  for (int64_t d = 0; d < kDim; ++d) items_v3.data()[20 * kDim + d] = 2.0f;
  const std::string delta23 = TestTempPath("compat_chain_23.delta");
  ASSERT_TRUE(WriteDeltaSnapshot(delta23, UserTable(), items_v3, {2},
                                 {kIps, 2, 3})
                  .ok());

  // Skipping delta12 is refused; the chain applied in order reaches v3
  // with both edits in place.
  std::shared_ptr<const EmbeddingSnapshot> live = base.value();
  auto skipped = EmbeddingSnapshot::ApplyDelta(live, delta23);
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.status().code(), StatusCode::kFailedPrecondition);

  auto v2 = EmbeddingSnapshot::ApplyDelta(live, delta12);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value()->version(), 2);
  EXPECT_EQ(v2.value()->base_version(), 1);
  auto v3 = EmbeddingSnapshot::ApplyDelta(v2.value(), delta23);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3.value()->version(), 3);
  EXPECT_EQ(v3.value()->base_version(), 2);
  for (int64_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(v3.value()->item(2)[d], 1.0f);
    EXPECT_EQ(v3.value()->item(20)[d], 2.0f);
  }
  // Untouched rows are still the base's.
  const Tensor base_items = ItemTable();
  for (int64_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(v3.value()->item(9)[d], base_items.data()[9 * kDim + d]);
  }
  for (const auto& p : {base_path, delta12, delta23}) std::remove(p.c_str());
}

TEST(SnapshotCompatTest, DeltaChainsOntoMonolithicBaseButNotBadGeometry) {
  const std::string base_path = TestTempPath("compat_mono_base.ckpt");
  std::vector<Tensor> tensors = {UserTable(), ItemTable()};
  ASSERT_TRUE(SaveCheckpoint(base_path, tensors).ok());
  auto base = EmbeddingSnapshot::Load(base_path);
  ASSERT_TRUE(base.ok());
  // A v2 monolithic base loads as one shard of items_per_shard == kItems
  // at version 0; a delta built to exactly that geometry chains on.
  Tensor items_next = ItemTable();
  for (int64_t d = 0; d < kDim; ++d) items_next.data()[5 * kDim + d] = 3.0f;
  const std::string delta = TestTempPath("compat_mono.delta");
  ASSERT_TRUE(
      WriteDeltaSnapshot(delta, UserTable(), items_next, {0}, {kItems, 0, 1})
          .ok());
  auto applied = EmbeddingSnapshot::ApplyDelta(base.value(), delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value()->version(), 1);
  for (int64_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(applied.value()->item(5)[d], 3.0f);
  }

  // Mismatched items_per_shard: a shard index would address a different
  // item range in base and delta — refused outright.
  const std::string bad_ips = TestTempPath("compat_mono_badips.delta");
  ASSERT_TRUE(
      WriteDeltaSnapshot(bad_ips, UserTable(), ItemTable(), {0}, {kIps, 0, 1})
          .ok());
  auto ips_mismatch = EmbeddingSnapshot::ApplyDelta(base.value(), bad_ips);
  ASSERT_FALSE(ips_mismatch.ok());
  EXPECT_EQ(ips_mismatch.status().code(), StatusCode::kInvalidArgument);

  // Mismatched embedding dimension.
  const std::string bad_dim = TestTempPath("compat_mono_baddim.delta");
  ASSERT_TRUE(WriteDeltaSnapshot(bad_dim, MakeTable(kUsers, 8, 0.1f),
                                 MakeTable(kItems, 8, 0.2f), {0},
                                 {kItems, 0, 1})
                  .ok());
  auto dim_mismatch = EmbeddingSnapshot::ApplyDelta(base.value(), bad_dim);
  ASSERT_FALSE(dim_mismatch.ok());
  EXPECT_EQ(dim_mismatch.status().code(), StatusCode::kInvalidArgument);

  // Shrinking tables can silently orphan live ids — refused.
  const std::string shrink = TestTempPath("compat_mono_shrink.delta");
  ASSERT_TRUE(WriteDeltaSnapshot(shrink, MakeTable(kUsers - 2, kDim, 0.1f),
                                 ItemTable(), {0}, {kItems, 0, 1})
                  .ok());
  auto shrunk = EmbeddingSnapshot::ApplyDelta(base.value(), shrink);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kInvalidArgument);

  for (const auto& p : {base_path, delta, bad_ips, bad_dim, shrink}) {
    std::remove(p.c_str());
  }
}

// ---------------------------------------------------------------------------
// Byte-crafted layout pins (the "previous release" files)
//
// These files are assembled field-by-field to the layout documented in
// shard_format.h — independently of the writer — so any layout change in
// the writer/reader pair that silently breaks old files fails here.

constexpr int64_t kCraftUsers = 2;
constexpr int64_t kCraftItems = 4;
constexpr int64_t kCraftDim = 2;
constexpr int64_t kCraftVersion = 9;

std::vector<float> CraftUserPayload() {
  return {0.5f, -1.0f, 2.0f, 0.25f};  // 2 users x dim 2.
}

std::vector<float> CraftItemPayload() {
  return {1.0f, 0.0f, -0.5f, 2.0f, 3.0f, -1.5f, 0.75f, 1.25f};  // 4 x 2.
}

/// Assembles a full v3 file to the published spec: one shard [0, 4).
ByteWriter CraftV3File() {
  const std::vector<float> users = CraftUserPayload();
  const std::vector<float> items = CraftItemPayload();
  // manifest = header (56) + user entry (24) + 1 shard entry (40) + 8.
  const int64_t payload_start = 56 + 24 + 40 + 8;
  const int64_t user_bytes =
      kCraftUsers * kCraftDim * static_cast<int64_t>(sizeof(float));
  const int64_t item_bytes =
      kCraftItems * kCraftDim * static_cast<int64_t>(sizeof(float));
  ByteWriter w;
  w.Raw("IMS3", 4);
  w.Value(uint32_t{3});
  w.Value(int64_t{kCraftUsers});
  w.Value(int64_t{kCraftItems});
  w.Value(int64_t{kCraftDim});
  w.Value(int64_t{kCraftVersion});     // parent_version.
  w.Value(int64_t{kCraftItems});      // items_per_shard.
  w.Value(int64_t{1});                // num_item_shards.
  w.Value(payload_start);             // user table offset.
  w.Value(user_bytes);
  w.Value(Fnv1aHash(users.data(), static_cast<size_t>(user_bytes)));
  w.Value(int64_t{0});                // shard begin.
  w.Value(int64_t{kCraftItems});      // shard end.
  w.Value(payload_start + user_bytes);
  w.Value(item_bytes);
  w.Value(Fnv1aHash(items.data(), static_cast<size_t>(item_bytes)));
  w.Value(Fnv1aHash(w.bytes.data(), w.bytes.size()));  // manifest checksum.
  w.Raw(users.data(), static_cast<size_t>(user_bytes));
  w.Raw(items.data(), static_cast<size_t>(item_bytes));
  return w;
}

TEST(SnapshotCompatTest, ByteCraftedV3FileLoadsBitExactly) {
  const std::string path = TestTempPath("compat_craft_v3.snap");
  CraftV3File().WriteTo(path);
  EXPECT_TRUE(IsShardedSnapshotFile(path));
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_users(), kCraftUsers);
  EXPECT_EQ(snapshot.num_items(), kCraftItems);
  EXPECT_EQ(snapshot.dim(), kCraftDim);
  EXPECT_EQ(snapshot.parent_version(), kCraftVersion);
  EXPECT_EQ(snapshot.num_shards(), 1);
  EXPECT_EQ(snapshot.quarantined_count(), 0);
  const std::vector<float> users = CraftUserPayload();
  const std::vector<float> items = CraftItemPayload();
  for (int64_t u = 0; u < kCraftUsers; ++u) {
    for (int64_t i = 0; i < kCraftItems; ++i) {
      float expected = 0.0f;
      for (int64_t d = 0; d < kCraftDim; ++d) {
        expected += users[static_cast<size_t>(u * kCraftDim + d)] *
                    items[static_cast<size_t>(i * kCraftDim + d)];
      }
      EXPECT_EQ(snapshot.Score(u, i), expected) << "u=" << u << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, ByteCraftedDeltaFileAppliesBitExactly) {
  const std::string base_path = TestTempPath("compat_craft_base.snap");
  CraftV3File().WriteTo(base_path);
  auto base = EmbeddingSnapshot::Load(base_path);
  ASSERT_TRUE(base.ok());
  base.value()->set_version(base.value()->parent_version());

  // Delta to the published spec: chains 9 -> 10, replaces shard 0's rows
  // and the user table.
  const std::vector<float> users = {4.0f, 4.5f, 5.0f, 5.5f};
  const std::vector<float> items = {9.0f, 8.0f, 7.0f, 6.0f,
                                    5.0f, 4.0f, 3.0f, 2.0f};
  const int64_t user_bytes = static_cast<int64_t>(users.size() * 4);
  const int64_t item_bytes = static_cast<int64_t>(items.size() * 4);
  // manifest = header (64) + user entry (24) + 1 delta shard entry (48)
  // + checksum (8).
  const int64_t payload_start = 64 + 24 + 48 + 8;
  ByteWriter w;
  w.Raw("IMD3", 4);
  w.Value(uint32_t{1});                // delta format version.
  w.Value(int64_t{kCraftVersion});     // base_version.
  w.Value(int64_t{kCraftVersion + 1});  // version.
  w.Value(int64_t{kCraftUsers});
  w.Value(int64_t{kCraftItems});
  w.Value(int64_t{kCraftDim});
  w.Value(int64_t{kCraftItems});      // items_per_shard (matches base).
  w.Value(int64_t{1});                // num_changed_shards.
  w.Value(payload_start);             // user table offset.
  w.Value(user_bytes);
  w.Value(Fnv1aHash(users.data(), static_cast<size_t>(user_bytes)));
  w.Value(int64_t{0});                // shard_index.
  w.Value(int64_t{0});                // begin.
  w.Value(int64_t{kCraftItems});      // end.
  w.Value(payload_start + user_bytes);
  w.Value(item_bytes);
  w.Value(Fnv1aHash(items.data(), static_cast<size_t>(item_bytes)));
  w.Value(Fnv1aHash(w.bytes.data(), w.bytes.size()));
  w.Raw(users.data(), static_cast<size_t>(user_bytes));
  w.Raw(items.data(), static_cast<size_t>(item_bytes));
  const std::string delta_path = TestTempPath("compat_craft.delta");
  w.WriteTo(delta_path);

  EXPECT_TRUE(IsDeltaSnapshotFile(delta_path));
  auto manifest = ReadDeltaSnapshotManifest(delta_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().base_version, kCraftVersion);
  EXPECT_EQ(manifest.value().version, kCraftVersion + 1);

  auto applied = EmbeddingSnapshot::ApplyDelta(base.value(), delta_path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const EmbeddingSnapshot& next = *applied.value();
  EXPECT_EQ(next.version(), kCraftVersion + 1);
  EXPECT_EQ(next.base_version(), kCraftVersion);
  for (int64_t u = 0; u < kCraftUsers; ++u) {
    for (int64_t d = 0; d < kCraftDim; ++d) {
      EXPECT_EQ(next.user(u)[d],
                users[static_cast<size_t>(u * kCraftDim + d)]);
    }
  }
  for (int64_t i = 0; i < kCraftItems; ++i) {
    for (int64_t d = 0; d < kCraftDim; ++d) {
      EXPECT_EQ(next.item(i)[d],
                items[static_cast<size_t>(i * kCraftDim + d)]);
    }
  }
  std::remove(base_path.c_str());
  std::remove(delta_path.c_str());
}

TEST(SnapshotCompatTest, TamperedMagicOrFormatVersionFailsCleanly) {
  // Wrong magic: not recognised as a sharded snapshot, and the monolithic
  // loader then rejects it too.
  const std::string magic_path = TestTempPath("compat_magic.snap");
  ByteWriter bad_magic = CraftV3File();
  bad_magic.bytes[0] = 'X';
  bad_magic.WriteTo(magic_path);
  EXPECT_FALSE(IsShardedSnapshotFile(magic_path));
  EXPECT_FALSE(IsDeltaSnapshotFile(magic_path));
  auto loaded = EmbeddingSnapshot::Load(magic_path);
  EXPECT_FALSE(loaded.ok());

  // Wrong format version: recognised, refused before any payload is read.
  const std::string version_path = TestTempPath("compat_version.snap");
  ByteWriter bad_version = CraftV3File();
  bad_version.bytes[4] = 99;
  bad_version.WriteTo(version_path);
  auto mismatched = LoadShardedSnapshot(version_path);
  EXPECT_FALSE(mismatched.ok());
  std::remove(magic_path.c_str());
  std::remove(version_path.c_str());
}

}  // namespace
}  // namespace imcat
