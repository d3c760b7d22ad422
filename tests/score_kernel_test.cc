// Panel-kernel suite (ctest label `kernel`; run plain and under TSan by
// scripts/check.sh --kernel). Two contracts (DESIGN.md §12):
//
//  1. Every compiled kernel variant scores every (user, item) pair
//     bit-equal to the scalar ascending-dimension fp32 loop, over a table
//     of dims x item counts x user counts chosen to hit every tail: user
//     counts 1-9 run every remainder after each variant's wide tiles (4
//     users for AVX2, 2 for portable) through its 2- and 1-user tiles, a
//     partial tail panel and a sub-range of panels. A variant this CPU
//     cannot run is skipped by name, never passed silently. (ggml's
//     test-backend-ops pattern: one table, every backend, one reference.)
//  2. The packed snapshot layout is invisible to callers: item values,
//     scores and top-k rankings equal a brute force over the row-major
//     tables the snapshot was written from — for shard sizes that do not
//     divide the panel width, ranges and brownout budgets that start
//     mid-panel, quarantined lanes (which read 0), a sweep of shard sizes
//     x block sizes over ranges that start and end mid-shard, and a
//     delta-applied snapshot, which equals a full load of the same tables
//     bit for bit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/recommender.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/score_kernel.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"

namespace imcat {
namespace {

// Random mantissas: products are inexact, so any change to the rounding
// sequence (a fused multiply-add, a reassociated sum) shows up as a bit
// difference.
std::vector<float> RandomTable(int64_t rows, int64_t cols, uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (float& v : values) v = dist(gen);
  return values;
}

float ScalarDot(const float* u, const float* v, int64_t dim) {
  float acc = 0.0f;
  for (int64_t c = 0; c < dim; ++c) acc += u[c] * v[c];
  return acc;
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// 1. Every variant against the scalar loop

class ScoreKernelVariantTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ScoreKernelVariantTest, BitEqualToScalarLoop) {
  const ScoreKernelVariant& variant = ScoreKernelVariants()[GetParam()];
  if (!variant.supported()) {
    GTEST_SKIP() << "kernel variant \"" << variant.name
                 << "\" is not supported by this CPU";
  }
  for (int64_t dim : {1, 3, 16, 17, 64, 65}) {
    for (int64_t items : {1, 15, 16, 17, 1029}) {
      for (int64_t users = 1; users <= 9; ++users) {
        SCOPED_TRACE(std::string(variant.name) + " dim=" +
                     std::to_string(dim) + " items=" + std::to_string(items) +
                     " users=" + std::to_string(users));
        const std::vector<float> user_table = RandomTable(users, dim, 7);
        const std::vector<float> item_table = RandomTable(items, dim, 11);
        std::vector<const float*> rows(static_cast<size_t>(users));
        for (int64_t u = 0; u < users; ++u) {
          rows[u] = user_table.data() + u * dim;
        }
        const int64_t num_panels = NumPanels(items);
        const int64_t stride = num_panels * kPanelItems + 3;
        std::vector<float> panels(
            static_cast<size_t>(num_panels * kPanelItems * dim));
        PackPanels(item_table.data(), items, dim, panels.data());
        // All panels, then the panels from 1 on (first_panel > 0).
        for (int64_t first : {int64_t{0}, int64_t{1}}) {
          if (first >= num_panels) continue;
          std::vector<float> out(static_cast<size_t>(users * stride), -7.0f);
          variant.fn(rows.data(), users, panels.data(), first,
                     num_panels - first, dim, out.data(), stride);
          int64_t mismatches = 0;
          for (int64_t u = 0; u < users; ++u) {
            for (int64_t i = first * kPanelItems; i < items; ++i) {
              const float expected =
                  ScalarDot(rows[u], item_table.data() + i * dim, dim);
              const float got = out[u * stride + i - first * kPanelItems];
              if (!SameBits(got, expected)) ++mismatches;
            }
            // Tail-padding lanes score 0; the stride's slack is untouched.
            for (int64_t i = items; i < num_panels * kPanelItems; ++i) {
              if (out[u * stride + i - first * kPanelItems] != 0.0f) {
                ++mismatches;
              }
            }
            for (int64_t i = (num_panels - first) * kPanelItems; i < stride;
                 ++i) {
              if (out[u * stride + i] != -7.0f) ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0) << "first_panel=" << first;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ScoreKernelVariantTest,
    ::testing::Range(size_t{0}, ScoreKernelVariants().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(ScoreKernelVariants()[info.param].name);
    });

TEST(ScoreKernelTest, DispatchPicksTheFirstSupportedVariant) {
  const ScoreKernelVariant* expected = nullptr;
  for (const ScoreKernelVariant& variant : ScoreKernelVariants()) {
    if (variant.supported()) {
      expected = &variant;
      break;
    }
  }
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(&ActiveScoreKernel(), expected);
  EXPECT_STREQ(ScoreKernelVariants().back().name, "portable");
  EXPECT_TRUE(ScoreKernelVariants().back().supported());
}

TEST(ScoreKernelTest, PackIntoReusedVectorEqualsPackIntoFreshBuffer) {
  // A reused vector starts larger and full of garbage: the pack must size
  // it exactly and overwrite every float, tail padding included.
  std::vector<float> reused(4096, -7.0f);
  for (int64_t items : {1, 15, 16, 17, 1029}) {
    const std::vector<float> rows = RandomTable(items, 5, 3);
    std::vector<float> fresh(
        static_cast<size_t>(NumPanels(items) * kPanelItems * 5), -1.0f);
    PackPanels(rows.data(), items, 5, fresh.data());
    PackPanels(rows.data(), items, 5, &reused);
    ASSERT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(0, std::memcmp(reused.data(), fresh.data(),
                             fresh.size() * sizeof(float)))
        << "items=" << items;
    for (int64_t i = 0; i < items; ++i) {
      for (int64_t c = 0; c < 5; ++c) {
        EXPECT_EQ(fresh[PanelOffset(i, c, 5)], rows[i * 5 + c]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Packed snapshots against row-major brute force

constexpr int64_t kUsers = 6;
constexpr int64_t kItems = 37;  // Two full panels and a 5-lane tail panel.
constexpr int64_t kDim = 7;

struct Tables {
  std::vector<float> users;
  std::vector<float> items;
  int64_t num_items;
};

Tables MakeTables(int64_t num_items, uint32_t seed) {
  return {RandomTable(kUsers, kDim, seed), RandomTable(num_items, kDim,
                                                       seed + 1),
          num_items};
}

Tensor AsTensor(const std::vector<float>& values, int64_t rows) {
  return Tensor(rows, kDim, std::vector<float>(values));
}

std::string WriteFull(const std::string& name, const Tables& t, int64_t ips) {
  const std::string path = TestTempPath(name);
  ShardedSnapshotOptions options;
  options.items_per_shard = ips;
  EXPECT_TRUE(WriteShardedSnapshot(path, AsTensor(t.users, kUsers),
                                   AsTensor(t.items, t.num_items), options)
                  .ok());
  return path;
}

// The ranking every served top-k must equal: (score desc, id asc) over
// [begin, end), skipping `skip` items, from the row-major tables.
std::vector<ScoredItem> BruteTopK(const Tables& t, int64_t user, int64_t k,
                                  int64_t begin, int64_t end,
                                  const std::vector<int64_t>& skip = {}) {
  std::vector<ScoredItem> all;
  for (int64_t i = begin; i < end; ++i) {
    if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
    all.push_back({i, ScalarDot(t.users.data() + user * kDim,
                                t.items.data() + i * kDim, kDim)});
  }
  std::sort(all.begin(), all.end(), [](const ScoredItem& a, const ScoredItem& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  });
  all.resize(std::min<size_t>(all.size(), static_cast<size_t>(k)));
  return all;
}

void ExpectSameRanking(const std::vector<ScoredItem>& got,
                       const std::vector<ScoredItem>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].item, expected[r].item) << "rank " << r;
    EXPECT_TRUE(SameBits(got[r].score, expected[r].score)) << "rank " << r;
  }
}

TEST(PanelSnapshotTest, ShardSizesThatSplitPanelsServeTheRowMajorTables) {
  const Tables t = MakeTables(kItems, 21);
  for (int64_t ips : {5, 8}) {
    SCOPED_TRACE("items_per_shard=" + std::to_string(ips));
    const std::string path =
        WriteFull("panel_ips" + std::to_string(ips) + ".ims3", t, ips);
    auto loaded = EmbeddingSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const EmbeddingSnapshot& snapshot = *loaded.value();
    for (int64_t i = 0; i < kItems; ++i) {
      for (int64_t c = 0; c < kDim; ++c) {
        ASSERT_EQ(snapshot.item_value(i, c), t.items[i * kDim + c]);
      }
    }
    EXPECT_EQ(snapshot.CopyItemRows(), t.items);
    EXPECT_EQ(0, std::memcmp(snapshot.item(0), t.items.data(),
                             t.items.size() * sizeof(float)));
    for (int64_t u = 0; u < kUsers; ++u) {
      for (int64_t i = 0; i < kItems; ++i) {
        EXPECT_TRUE(SameBits(snapshot.Score(u, i),
                             ScalarDot(t.users.data() + u * kDim,
                                       t.items.data() + i * kDim, kDim)));
      }
    }
    for (int64_t block : {1, 2, 5, 9, 1024}) {
      RecommenderOptions options;
      options.block_items = block;
      Recommender recommender(options);
      for (int64_t u = 0; u < kUsers; ++u) {
        std::vector<ScoredItem> got;
        ASSERT_TRUE(recommender.TopK(snapshot, u, 10, 0.0, {}, &got).ok());
        ExpectSameRanking(got, BruteTopK(t, u, 10, 0, kItems));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(PanelSnapshotTest, MidPanelRangeWithBrownoutBudgetMatchesBruteForce) {
  const Tables t = MakeTables(kItems, 33);
  const std::string path = WriteFull("panel_range.ims3", t, 8);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // [7, 37) capped at 13 items scores [7, 20): starts and ends mid-panel.
  const std::vector<int64_t> exclude = {9, 18, 30};
  for (int64_t block : {1, 2, 5, 9, 1024}) {
    SCOPED_TRACE("block_items=" + std::to_string(block));
    RecommenderOptions options;
    options.block_items = block;
    Recommender recommender(options);
    std::vector<Recommender::BatchQuery> queries;
    for (int64_t u = 0; u < kUsers; ++u) {
      queries.push_back({u, 4, 0.0, u % 2 == 0 ? &exclude : nullptr});
    }
    std::vector<Recommender::BatchQueryResult> results;
    ASSERT_TRUE(recommender
                    .TopKBatch(*loaded.value(), queries, 7, kItems, 13,
                               &results)
                    .ok());
    for (int64_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(results[u].status.ok());
      ExpectSameRanking(
          results[u].items,
          BruteTopK(t, u, 4, 7, 20,
                    u % 2 == 0 ? exclude : std::vector<int64_t>{}));
    }
  }
  std::remove(path.c_str());
}

TEST(PanelSnapshotTest, QuarantinedLanesReadZeroAndAreSkipped) {
  const Tables t = MakeTables(kItems, 45);
  // Shard 1 = items [5, 10): the middle of panel 0.
  const std::string path = WriteFull("panel_quarantine.ims3", t, 5);
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const int64_t offset = manifest.value().item_shards[1].byte_offset + 2;
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(offset);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();
  ASSERT_TRUE(snapshot.shard_quarantined(1));
  std::vector<int64_t> quarantined;
  for (int64_t i = 0; i < kItems; ++i) {
    const bool zeroed = i >= 5 && i < 10;
    if (zeroed) quarantined.push_back(i);
    for (int64_t c = 0; c < kDim; ++c) {
      EXPECT_EQ(snapshot.item_value(i, c), zeroed ? 0.0f : t.items[i * kDim + c])
          << "item " << i;
    }
  }
  Recommender recommender(RecommenderOptions{3, {}});
  for (int64_t u = 0; u < kUsers; ++u) {
    std::vector<ScoredItem> got;
    int64_t skipped = -1;
    ASSERT_TRUE(recommender
                    .TopK(snapshot, u, 40, 0.0, {}, 0, 0, &got, &skipped)
                    .ok());
    EXPECT_EQ(skipped, 5);
    ExpectSameRanking(got, BruteTopK(t, u, 40, 0, kItems, quarantined));
  }
  std::remove(path.c_str());
}

TEST(PanelSnapshotTest, DeltaAppliedSnapshotEqualsFullLoadBitForBit) {
  for (int64_t ips : {5, 8}) {
    SCOPED_TRACE("items_per_shard=" + std::to_string(ips));
    const Tables base = MakeTables(kItems, 57);
    // The next publish grows the catalogue by 8 items and rewrites one
    // interior shard; every shard it touches ships in the delta.
    Tables next = MakeTables(kItems + 8, 58);
    std::copy(base.items.begin(), base.items.end(), next.items.begin());
    for (int64_t i = ips; i < 2 * ips; ++i) {
      for (int64_t c = 0; c < kDim; ++c) next.items[i * kDim + c] *= -3.0f;
    }
    std::vector<int64_t> changed = {1};
    for (int64_t s = (kItems - 1) / ips; s < (kItems + 8 + ips - 1) / ips;
         ++s) {
      changed.push_back(s);
    }
    const std::string base_path =
        WriteFull("panel_delta_base" + std::to_string(ips) + ".ims3", base,
                  ips);
    const std::string full_path =
        WriteFull("panel_delta_full" + std::to_string(ips) + ".ims3", next,
                  ips);
    const std::string delta_path =
        TestTempPath("panel_delta" + std::to_string(ips) + ".imd3");
    DeltaSnapshotOptions delta_options;
    delta_options.items_per_shard = ips;
    delta_options.base_version = 0;
    delta_options.version = 1;
    ASSERT_TRUE(WriteDeltaSnapshot(delta_path, AsTensor(next.users, kUsers),
                                   AsTensor(next.items, next.num_items),
                                   changed, delta_options)
                    .ok());
    auto base_snapshot = EmbeddingSnapshot::Load(base_path);
    auto full = EmbeddingSnapshot::Load(full_path);
    ASSERT_TRUE(base_snapshot.ok() && full.ok());
    auto applied = EmbeddingSnapshot::ApplyDelta(base_snapshot.value(),
                                                 delta_path);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    const EmbeddingSnapshot& a = *applied.value();
    const EmbeddingSnapshot& f = *full.value();
    ASSERT_EQ(a.num_items(), f.num_items());
    EXPECT_EQ(a.quarantined_count(), 0);
    EXPECT_EQ(a.stale_count(), 0);
    // Every shard's panels, tail padding included.
    ASSERT_EQ(a.num_shards(), f.num_shards());
    for (int64_t s = 0; s < f.num_shards(); ++s) {
      const auto [begin, end] = f.shard_range(s);
      EXPECT_EQ(0, std::memcmp(a.shard_panels(s), f.shard_panels(s),
                               static_cast<size_t>(NumPanels(end - begin) *
                                                   kPanelItems * kDim) *
                                   sizeof(float)))
          << "shard " << s;
    }
    EXPECT_EQ(0, std::memcmp(a.user(0), f.user(0),
                             static_cast<size_t>(kUsers * kDim) *
                                 sizeof(float)));
    EXPECT_EQ(a.CopyItemRows(), next.items);
    std::remove(base_path.c_str());
    std::remove(full_path.c_str());
    std::remove(delta_path.c_str());
  }
}

// Shard-boundary sweep: the scoring loop splits every block at shard
// boundaries and scores each piece from its own shard's panels, so shard
// sizes that are smaller, equal to, misaligned with and larger than both
// the panel width and the block size — over ranges and brownout budgets
// that start and end mid-shard — must all rank like the row-major tables.
TEST(PanelSnapshotTest, ShardAndBlockSizeSweepMatchesRowMajorBruteForce) {
  constexpr int64_t kSweepItems = 4500;  // Two shards at 4096 per shard.
  constexpr int64_t kTop = 12;
  const Tables t = MakeTables(kSweepItems, 71);
  const std::vector<int64_t> exclude = {0, 99, 100, 4095, 4096, 4499};
  struct Range {
    int64_t begin, end, max_items;
  };
  const Range ranges[] = {
      {0, 0, 0}, {3, 4493, 0}, {101, 4400, 4010}, {4090, 4103, 0}};
  // Expected rankings, per range and user.
  std::vector<std::vector<std::vector<ScoredItem>>> expected;
  for (const Range& range : ranges) {
    const int64_t end = range.end == 0 ? kSweepItems : range.end;
    const int64_t capped =
        range.max_items > 0 ? std::min(end, range.begin + range.max_items)
                            : end;
    expected.emplace_back();
    for (int64_t u = 0; u < kUsers; ++u) {
      expected.back().push_back(
          BruteTopK(t, u, kTop, range.begin, capped,
                    u % 2 == 1 ? exclude : std::vector<int64_t>{}));
    }
  }
  for (int64_t ips : {1, 7, 16, 100, 4096}) {
    const std::string path =
        WriteFull("panel_sweep" + std::to_string(ips) + ".ims3", t, ips);
    auto loaded = EmbeddingSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const EmbeddingSnapshot& snapshot = *loaded.value();
    ASSERT_EQ(snapshot.num_shards(), (kSweepItems + ips - 1) / ips);
    for (int64_t block : {1, 5, 16, 1024}) {
      Recommender recommender(RecommenderOptions{block, {}});
      for (size_t r = 0; r < std::size(ranges); ++r) {
        SCOPED_TRACE("items_per_shard=" + std::to_string(ips) +
                     " block_items=" + std::to_string(block) + " range " +
                     std::to_string(r));
        std::vector<Recommender::BatchQuery> queries;
        for (int64_t u = 0; u < kUsers; ++u) {
          queries.push_back({u, kTop, 0.0, u % 2 == 1 ? &exclude : nullptr});
        }
        std::vector<Recommender::BatchQueryResult> results;
        ASSERT_TRUE(recommender
                        .TopKBatch(snapshot, queries, ranges[r].begin,
                                   ranges[r].end, ranges[r].max_items,
                                   &results)
                        .ok());
        for (int64_t u = 0; u < kUsers; ++u) {
          ASSERT_TRUE(results[static_cast<size_t>(u)].status.ok());
          ExpectSameRanking(results[static_cast<size_t>(u)].items,
                            expected[r][static_cast<size_t>(u)]);
        }
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace imcat
