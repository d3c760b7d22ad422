// Randomised property tests: invariants that must hold for arbitrary
// datasets and scores, exercised over seeded random instances.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/positive_samples.h"
#include "data/loader.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/group_eval.h"
#include "tests/temp_path.h"

namespace imcat {
namespace {

SyntheticConfig RandomConfig(uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.num_users = 20 + rng.UniformInt(60);
  config.num_items = 30 + rng.UniformInt(100);
  config.num_tags = 8 + rng.UniformInt(30);
  config.num_interactions = 300 + rng.UniformInt(1500);
  config.num_item_tags = 100 + rng.UniformInt(400);
  config.num_latent_intents = 2 + static_cast<int>(rng.UniformInt(5));
  config.seed = seed * 977 + 3;
  return config;
}

/// A ranker with random but deterministic scores.
class RandomRanker : public Ranker {
 public:
  RandomRanker(int64_t num_items, uint64_t seed)
      : num_items_(num_items), seed_(seed) {}
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    Rng rng(seed_ ^ static_cast<uint64_t>(user * 2654435761ULL));
    scores->resize(num_items_);
    for (auto& s : *scores) s = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }

 private:
  int64_t num_items_;
  uint64_t seed_;
};

class RandomInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstanceTest, SplitPartitionsInteractions) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  EXPECT_EQ(split.train.size() + split.validation.size() + split.test.size(),
            ds.interactions.size());
  // No edge appears in two partitions.
  EdgeList all = split.train;
  all.insert(all.end(), split.validation.begin(), split.validation.end());
  all.insert(all.end(), split.test.begin(), split.test.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

TEST_P(RandomInstanceTest, MetricsAreBoundedAndConsistent) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  Evaluator evaluator(ds, split);
  RandomRanker ranker(ds.num_items, GetParam());
  for (int top_n : {1, 5, 20}) {
    EvalResult r = evaluator.Evaluate(ranker, split.test, top_n);
    EXPECT_GE(r.recall, 0.0);
    EXPECT_LE(r.recall, 1.0);
    EXPECT_GE(r.ndcg, 0.0);
    EXPECT_LE(r.ndcg, 1.0);
    EXPECT_GE(r.precision, 0.0);
    EXPECT_LE(r.precision, 1.0);
    EXPECT_GE(r.hit_rate, r.recall - 1e-12);  // Hit rate >= recall.
    EXPECT_LE(r.mrr, r.hit_rate + 1e-12);     // MRR <= hit rate.
  }
}

TEST_P(RandomInstanceTest, TopNNeverContainsTrainingItems) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  Evaluator evaluator(ds, split);
  RandomRanker ranker(ds.num_items, GetParam());
  BipartiteIndex train_index(ds.num_users, ds.num_items, split.train);
  for (int64_t u = 0; u < std::min<int64_t>(ds.num_users, 10); ++u) {
    for (int64_t v : evaluator.TopNForUser(ranker, u, 20)) {
      EXPECT_FALSE(train_index.Contains(u, v));
    }
  }
}

TEST_P(RandomInstanceTest, TopNIsDeterministic) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  Evaluator evaluator(ds, split);
  RandomRanker ranker(ds.num_items, GetParam());
  EXPECT_EQ(evaluator.TopNForUser(ranker, 0, 10),
            evaluator.TopNForUser(ranker, 0, 10));
}

TEST_P(RandomInstanceTest, GroupContributionsSumToRecall) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  Evaluator evaluator(ds, split);
  RandomRanker ranker(ds.num_items, GetParam());
  const std::vector<int> groups = PopularityGroups(evaluator, 5);
  const std::vector<double> contributions =
      GroupRecallContribution(evaluator, ranker, split.test, 20, groups, 5);
  const double overall = evaluator.Evaluate(ranker, split.test, 20).recall;
  double sum = 0.0;
  for (double c : contributions) sum += c;
  EXPECT_NEAR(sum, overall, 1e-9);
}

TEST_P(RandomInstanceTest, RelatednessRowsAreDistributions) {
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  const int num_intents = 4;
  PositiveSampleIndex index(ds, split.train, num_intents);
  std::vector<int> assignment(ds.num_tags);
  Rng rng(GetParam());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(num_intents));
  index.SetAssignments(assignment);
  for (int64_t v = 0; v < ds.num_items; ++v) {
    float sum = 0.0f;
    for (int k = 0; k < num_intents; ++k) {
      const float m = index.Relatedness(v, k);
      EXPECT_GE(m, 0.0f);
      EXPECT_LE(m, 1.0f);
      sum += m;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_P(RandomInstanceTest, SimilarSetsAreSymmetricallyConsistent) {
  // If j' is in S_j^k then j and j' share at least one cluster-k tag.
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  DataSplit split = SplitByUser(ds, SplitOptions{.seed = GetParam()});
  const int num_intents = 3;
  PositiveSampleIndex index(ds, split.train, num_intents);
  std::vector<int> assignment(ds.num_tags);
  Rng rng(GetParam() + 1);
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(num_intents));
  index.SetAssignments(assignment);
  index.BuildSimilarSets(0.3f, 10);
  for (int64_t v = 0; v < ds.num_items; ++v) {
    for (int k = 0; k < num_intents; ++k) {
      const auto& own = index.TagsOfItemInCluster(v, k);
      for (int64_t other : index.SimilarSet(v, k)) {
        const auto& theirs = index.TagsOfItemInCluster(other, k);
        std::vector<int64_t> shared;
        std::set_intersection(own.begin(), own.end(), theirs.begin(),
                              theirs.end(), std::back_inserter(shared));
        EXPECT_FALSE(shared.empty());
      }
    }
  }
}

/// Sorted per-entity degree sequence of an edge list's left (or right)
/// endpoints — invariant under any relabeling of ids.
std::vector<int64_t> DegreeSequence(const EdgeList& edges, int64_t count,
                                    bool left) {
  std::vector<int64_t> degree(count, 0);
  for (const auto& [l, r] : edges) ++degree[left ? l : r];
  std::sort(degree.begin(), degree.end());
  return degree;
}

TEST_P(RandomInstanceTest, TsvRoundTripIsLosslessUpToRelabeling) {
  // Save -> Load may relabel ids (the loader assigns dense ids in
  // first-appearance order) but must lose nothing: counts and degree
  // sequences are preserved, and one canonicalisation cycle reaches a
  // fixed point — a second Save -> Load reproduces the dataset exactly.
  Dataset ds = GenerateSynthetic(RandomConfig(GetParam()));
  const std::string tag = std::to_string(GetParam());
  const std::string ui = TestTempPath("prop_rt_ui_" + tag + ".tsv");
  const std::string it = TestTempPath("prop_rt_it_" + tag + ".tsv");

  ASSERT_TRUE(SaveDatasetToTsv(ds, ui, it).ok());
  StatusOr<Dataset> first = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().interactions.size(), ds.interactions.size());
  EXPECT_EQ(first.value().item_tags.size(), ds.item_tags.size());
  EXPECT_EQ(first.value().num_users, ds.num_users);
  EXPECT_EQ(DegreeSequence(first.value().interactions,
                           first.value().num_users, true),
            DegreeSequence(ds.interactions, ds.num_users, true));
  EXPECT_EQ(DegreeSequence(first.value().interactions,
                           first.value().num_items, false),
            DegreeSequence(ds.interactions, ds.num_items, false));
  EXPECT_EQ(DegreeSequence(first.value().item_tags,
                           first.value().num_tags, false),
            DegreeSequence(ds.item_tags, ds.num_tags, false));

  // The loader emits edges sorted by its own dense ids, but those ids were
  // assigned from the pre-sort file order, so one reload may still relabel.
  // A second cycle assigns ids in the same sorted order it reads — from
  // there on, Save -> Load is the identity.
  ASSERT_TRUE(SaveDatasetToTsv(first.value(), ui, it).ok());
  StatusOr<Dataset> second = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(SaveDatasetToTsv(second.value(), ui, it).ok());
  StatusOr<Dataset> third = LoadDatasetFromTsv(ui, it);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value().interactions, second.value().interactions);
  EXPECT_EQ(third.value().item_tags, second.value().item_tags);
  EXPECT_EQ(third.value().num_users, second.value().num_users);
  EXPECT_EQ(third.value().num_items, second.value().num_items);
  EXPECT_EQ(third.value().num_tags, second.value().num_tags);
  std::remove(ui.c_str());
  std::remove(it.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace imcat
