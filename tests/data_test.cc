#include "data/dataset.h"

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "data/loader.h"
#include "data/presets.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "tests/temp_path.h"

namespace imcat {
namespace {

TEST(BipartiteIndexTest, ForwardBackwardConsistent) {
  EdgeList edges = {{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  BipartiteIndex index(3, 3, edges);
  EXPECT_EQ(index.num_edges(), 4);
  EXPECT_EQ(index.Forward(0).size(), 2u);
  EXPECT_EQ(index.Backward(2).size(), 2u);
  EXPECT_TRUE(index.Contains(0, 1));
  EXPECT_FALSE(index.Contains(1, 1));
}

TEST(BipartiteIndexTest, DuplicatesCollapsed) {
  EdgeList edges = {{0, 1}, {0, 1}, {0, 1}};
  BipartiteIndex index(1, 2, edges);
  EXPECT_EQ(index.num_edges(), 1);
  EXPECT_EQ(index.Forward(0).size(), 1u);
}

TEST(DatasetTest, StatsMatchTableIDefinition) {
  Dataset ds;
  ds.num_users = 10;
  ds.num_items = 20;
  ds.num_tags = 5;
  ds.interactions = {{0, 1}, {0, 2}, {1, 3}, {2, 4}};
  ds.item_tags = {{1, 0}, {2, 1}};
  DatasetStats stats = ComputeStats(ds);
  EXPECT_EQ(stats.num_interactions, 4);
  EXPECT_DOUBLE_EQ(stats.ui_density_percent, 100.0 * 4 / (10.0 * 20.0));
  EXPECT_DOUBLE_EQ(stats.ui_avg_degree, 0.4);
  EXPECT_DOUBLE_EQ(stats.it_density_percent, 100.0 * 2 / (20.0 * 5.0));
  EXPECT_DOUBLE_EQ(stats.it_avg_degree, 0.1);
}

TEST(DatasetTest, DeduplicateEdges) {
  EdgeList edges = {{1, 1}, {0, 0}, {1, 1}, {0, 1}};
  const int64_t removed = DeduplicateEdges(2, 2, &edges);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

// ---------------------------------------------------------------------------
// Split tests.
// ---------------------------------------------------------------------------

Dataset SmallDataset(int64_t users = 40, int64_t items = 60,
                     int64_t per_user = 10) {
  Dataset ds;
  ds.num_users = users;
  ds.num_items = items;
  ds.num_tags = 1;
  Rng rng(3);
  for (int64_t u = 0; u < users; ++u) {
    while (true) {
      std::vector<int64_t> chosen;
      for (int64_t j = 0; j < per_user; ++j) {
        chosen.push_back(rng.UniformInt(items));
      }
      std::sort(chosen.begin(), chosen.end());
      chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
      if (static_cast<int64_t>(chosen.size()) < per_user) continue;
      for (int64_t v : chosen) ds.interactions.emplace_back(u, v);
      break;
    }
  }
  return ds;
}

TEST(SplitTest, PartitionsAreDisjointAndComplete) {
  Dataset ds = SmallDataset();
  SplitOptions options;
  DataSplit split = SplitByUser(ds, options);
  EXPECT_EQ(split.train.size() + split.validation.size() + split.test.size(),
            ds.interactions.size());
  EdgeList all = split.train;
  all.insert(all.end(), split.validation.begin(), split.validation.end());
  all.insert(all.end(), split.test.begin(), split.test.end());
  std::sort(all.begin(), all.end());
  EdgeList expected = ds.interactions;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
}

TEST(SplitTest, RatiosApproximatelyRespected) {
  Dataset ds = SmallDataset(100, 200, 20);
  DataSplit split = SplitByUser(ds, SplitOptions{});
  const double total = static_cast<double>(ds.interactions.size());
  EXPECT_NEAR(split.train.size() / total, 0.7, 0.05);
  EXPECT_NEAR(split.validation.size() / total, 0.1, 0.05);
  EXPECT_NEAR(split.test.size() / total, 0.2, 0.05);
}

TEST(SplitTest, EveryUserKeepsATrainingItem) {
  Dataset ds;
  ds.num_users = 3;
  ds.num_items = 5;
  ds.interactions = {{0, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  DataSplit split = SplitByUser(ds, SplitOptions{});
  std::vector<int> train_count(3, 0);
  for (const auto& [u, v] : split.train) {
    (void)v;
    ++train_count[u];
  }
  for (int u = 0; u < 3; ++u) EXPECT_GE(train_count[u], 1);
}

TEST(SplitTest, DeterministicForSeed) {
  Dataset ds = SmallDataset();
  SplitOptions options;
  options.seed = 99;
  DataSplit a = SplitByUser(ds, options);
  DataSplit b = SplitByUser(ds, options);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

// ---------------------------------------------------------------------------
// Loader tests.
// ---------------------------------------------------------------------------

TEST(LoaderTest, RoundTripThroughTsv) {
  Dataset ds = SmallDataset(10, 15, 5);
  ds.item_tags = {{0, 0}};
  const std::string ui = TestTempPath("ui.tsv");
  const std::string it = TestTempPath("it.tsv");
  ASSERT_TRUE(SaveDatasetToTsv(ds, ui, it).ok());
  StatusOr<Dataset> loaded = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().interactions.size(), ds.interactions.size());
  EXPECT_EQ(loaded.value().item_tags.size(), ds.item_tags.size());
}

TEST(LoaderTest, MissingFileIsIoError) {
  StatusOr<Dataset> result =
      LoadDatasetFromTsv("/nonexistent/a.tsv", "/nonexistent/b.tsv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(LoaderTest, MalformedLineIsInvalidArgument) {
  const std::string ui = TestTempPath("bad_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  std::fputs("1\t2\nnot-a-number\t3\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("bad_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("", f);
  std::fclose(f);
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderTest, CommentsAndBlankLinesSkipped) {
  const std::string ui = TestTempPath("comment_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  std::fputs("# header\n\n5 7\n5\t8\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("comment_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("7 1\n", f);
  std::fclose(f);
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_users, 1);
  EXPECT_EQ(result.value().num_items, 2);
  EXPECT_EQ(result.value().interactions.size(), 2u);
}

TEST(LoaderTest, DegreeFilteringDropsSparseEntities) {
  const std::string ui = TestTempPath("filter_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  // User 1 has 3 interactions; user 2 has 1.
  std::fputs("1 10\n1 11\n1 12\n2 10\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("filter_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("10 100\n", f);
  std::fclose(f);
  LoaderOptions options;
  options.min_user_interactions = 2;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_users, 1);
  EXPECT_EQ(result.value().interactions.size(), 3u);
}

TEST(LoaderTest, NegativeIdRejectedWithLineNumber) {
  const std::string ui = TestTempPath("neg_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  std::fputs("1 10\n2 -7\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("neg_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("", f);
  std::fclose(f);
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The offending line (2) and the bad id are both named.
  EXPECT_NE(result.status().message().find(":2"), std::string::npos);
  EXPECT_NE(result.status().message().find("-7"), std::string::npos);
}

TEST(LoaderTest, OutOfRangeIdRejectedWithLineNumber) {
  const std::string ui = TestTempPath("range_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  std::fputs("1 10\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("range_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("10 1\n10 99999999999999\n", f);
  std::fclose(f);
  LoaderOptions options;
  options.max_raw_id = 1000000;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, it, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(":2"), std::string::npos);
  EXPECT_NE(result.status().message().find("max raw id"), std::string::npos);
}

TEST(LoaderTest, InvalidOptionsRejected) {
  const std::string ui = TestTempPath("opts_ui.tsv");
  FILE* f = std::fopen(ui.c_str(), "w");
  std::fputs("1 10\n", f);
  std::fclose(f);
  LoaderOptions options;
  options.min_user_interactions = -1;
  StatusOr<Dataset> result = LoadDatasetFromTsv(ui, ui, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  options = LoaderOptions();
  options.max_raw_id = -5;
  result = LoadDatasetFromTsv(ui, ui, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderTest, SplitDeterministicUnderPermissiveDrops) {
  // Satellite guarantee: a permissive-mode load that quarantines corrupt
  // records yields the same dataset — and therefore bit-identical splits
  // for the same seed — as a clean file containing only the survivors.
  const std::string clean_ui = TestTempPath("perm_clean_ui.tsv");
  FILE* f = std::fopen(clean_ui.c_str(), "w");
  std::fputs("1 10\n1 11\n2 10\n2 12\n3 11\n3 12\n", f);
  std::fclose(f);
  const std::string dirty_ui = TestTempPath("perm_dirty_ui.tsv");
  f = std::fopen(dirty_ui.c_str(), "w");
  // Same records, interleaved with garbage that permissive mode drops.
  std::fputs(
      "1 10\nGARBAGE\n1 11\n2 10\nx -9\n2 12\n1 10\n3 11\n3 12\nq q q\n", f);
  std::fclose(f);
  const std::string it = TestTempPath("perm_split_it.tsv");
  f = std::fopen(it.c_str(), "w");
  std::fputs("10 100\n11 100\n12 101\n", f);
  std::fclose(f);

  LoaderOptions options;
  options.policy = ParsePolicy::kPermissive;
  StatusOr<Dataset> clean = LoadDatasetFromTsv(clean_ui, it, options);
  StatusOr<Dataset> dirty = LoadDatasetFromTsv(dirty_ui, it, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_EQ(clean.value().interactions, dirty.value().interactions);
  EXPECT_EQ(clean.value().item_tags, dirty.value().item_tags);

  SplitOptions split_options;
  split_options.seed = 42;
  DataSplit a = SplitByUser(clean.value(), split_options);
  DataSplit b = SplitByUser(dirty.value(), split_options);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.validation, b.validation);
  EXPECT_EQ(a.test, b.test);
}

// ---------------------------------------------------------------------------
// Synthetic generator tests.
// ---------------------------------------------------------------------------

TEST(SyntheticTest, RespectsRequestedCounts) {
  SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 80;
  config.num_tags = 24;
  config.num_interactions = 1500;
  config.num_item_tags = 400;
  Dataset ds = GenerateSynthetic(config);
  EXPECT_EQ(ds.num_users, 50);
  EXPECT_EQ(ds.num_items, 80);
  EXPECT_EQ(ds.num_tags, 24);
  // Edge targets are hit up to dedup saturation (tolerate 5% shortfall).
  EXPECT_GE(ds.interactions.size(), 1425u);
  EXPECT_LE(ds.interactions.size(), 1520u);
  EXPECT_GE(ds.item_tags.size(), 380u);
}

TEST(SyntheticTest, MinimumDegreesGuaranteed) {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.num_tags = 16;
  config.num_interactions = 600;
  config.num_item_tags = 300;
  config.min_user_degree = 5;
  config.min_item_tags = 1;
  Dataset ds = GenerateSynthetic(config);
  std::vector<int> user_degree(config.num_users, 0);
  for (const auto& [u, v] : ds.interactions) {
    (void)v;
    ++user_degree[u];
  }
  for (int deg : user_degree) EXPECT_GE(deg, 5);
  std::vector<int> item_tags(config.num_items, 0);
  for (const auto& [v, t] : ds.item_tags) {
    (void)t;
    ++item_tags[v];
  }
  for (int n : item_tags) EXPECT_GE(n, 1);
}

TEST(SyntheticTest, NoDuplicateEdges) {
  SyntheticConfig config;
  Dataset ds = GenerateSynthetic(config);
  EdgeList ui = ds.interactions;
  EXPECT_EQ(DeduplicateEdges(ds.num_users, ds.num_items, &ui), 0);
  EdgeList it = ds.item_tags;
  EXPECT_EQ(DeduplicateEdges(ds.num_items, ds.num_tags, &it), 0);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.seed = 77;
  Dataset a = GenerateSynthetic(config);
  Dataset b = GenerateSynthetic(config);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.item_tags, b.item_tags);
}

TEST(SyntheticTest, TagsCarryIntentSignal) {
  // Tags assigned to an item should concentrate on the item's dominant
  // latent intents far beyond chance.
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 120;
  config.num_tags = 40;
  config.num_interactions = 2000;
  config.num_item_tags = 900;
  config.tag_noise = 0.05;
  config.item_intent_alpha = 0.2;  // Peaked items.
  SyntheticGroundTruth truth;
  Dataset ds = GenerateSynthetic(config, &truth);

  int64_t aligned = 0, total = 0;
  for (const auto& [item, tag] : ds.item_tags) {
    const auto& mix = truth.item_mix[item];
    const int tag_z = truth.tag_intent[tag];
    // "Aligned" if the tag's intent has above-uniform mass for the item.
    if (mix[tag_z] > 1.0 / config.num_latent_intents) ++aligned;
    ++total;
  }
  EXPECT_GT(static_cast<double>(aligned) / total, 0.6);
}

TEST(SyntheticTest, PopularityIsLongTailed) {
  SyntheticConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.num_interactions = 6000;
  config.item_popularity_exponent = 1.0;
  Dataset ds = GenerateSynthetic(config);
  std::vector<int64_t> degree(config.num_items, 0);
  for (const auto& [u, v] : ds.interactions) {
    (void)u;
    ++degree[v];
  }
  std::sort(degree.begin(), degree.end(), std::greater<>());
  // Top 10% of items should hold a disproportionate share of interactions.
  int64_t top = 0, total = 0;
  for (size_t i = 0; i < degree.size(); ++i) {
    total += degree[i];
    if (i < degree.size() / 10) top += degree[i];
  }
  EXPECT_GT(static_cast<double>(top) / total, 0.25);
}

// ---------------------------------------------------------------------------
// Preset tests.
// ---------------------------------------------------------------------------

TEST(PresetTest, AllSevenPresetsExist) {
  EXPECT_EQ(PresetNames().size(), 7u);
  for (const std::string& name : PresetNames()) {
    StatusOr<SyntheticConfig> config = PresetConfig(name, 0.02);
    ASSERT_TRUE(config.ok()) << name;
    EXPECT_EQ(config.value().name, name);
  }
}

TEST(PresetTest, UnknownPresetIsNotFound) {
  StatusOr<SyntheticConfig> config = PresetConfig("NoSuchDataset", 0.1);
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(PresetTest, InvalidScaleRejected) {
  EXPECT_FALSE(PresetConfig("CiteULike", 0.0).ok());
  EXPECT_FALSE(PresetConfig("CiteULike", 1.5).ok());
}

TEST(PresetTest, ScalePreservesRelativeMagnitudes) {
  StatusOr<SyntheticConfig> small = PresetConfig("HetRec-FM", 0.05);
  ASSERT_TRUE(small.ok());
  // HetRec-FM: 1026 users, 5817 items.
  EXPECT_NEAR(small.value().num_users, 51, 2);
  EXPECT_NEAR(small.value().num_items, 291, 3);
}

TEST(PresetTest, HetRecDelHasMoreIntents) {
  StatusOr<SyntheticConfig> del = PresetConfig("HetRec-Del", 0.05);
  StatusOr<SyntheticConfig> mv = PresetConfig("HetRec-MV", 0.05);
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(mv.ok());
  EXPECT_GT(del.value().num_latent_intents, mv.value().num_latent_intents);
}

TEST(PresetTest, PresetsEnforceMinimumUserDegree) {
  // The paper filters users with fewer than ten interactions; the presets
  // plant the same floor so the 7:1:2 split gives every user validation
  // and test items.
  Dataset ds = GeneratePreset("AMZBook-Tag", 0.006);
  std::vector<int64_t> degree(ds.num_users, 0);
  for (const auto& [u, v] : ds.interactions) {
    (void)v;
    ++degree[u];
  }
  for (int64_t d : degree) EXPECT_GE(d, 10);
}

TEST(PresetTest, PresetDensityCapped) {
  for (const std::string& name : PresetNames()) {
    Dataset ds = GeneratePreset(name, 0.05);
    const DatasetStats stats = ComputeStats(ds);
    // Density stays in the regime where 2-layer propagation cannot reach
    // the whole catalogue (cap 6% + min-degree slack).
    EXPECT_LT(stats.ui_density_percent, 12.0) << name;
  }
}

TEST(PresetTest, GeneratePresetProducesValidDataset) {
  Dataset ds = GeneratePreset("CiteULike", 0.02);
  EXPECT_GT(ds.num_users, 0);
  EXPECT_GT(ds.interactions.size(), 0u);
  EXPECT_GT(ds.item_tags.size(), 0u);
  EdgeList edges = ds.interactions;
  EXPECT_EQ(DeduplicateEdges(ds.num_users, ds.num_items, &edges), 0);
}

}  // namespace
}  // namespace imcat
