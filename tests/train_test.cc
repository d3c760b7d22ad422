#include "tests/temp_path.h"
#include "train/trainer.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "train/sampler.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

Dataset TinyDataset() {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 50;
  config.num_tags = 12;
  config.num_interactions = 500;
  config.num_item_tags = 150;
  config.seed = 5;
  return GenerateSynthetic(config);
}

TEST(TripletSamplerTest, NegativesAreNeverPositives) {
  Dataset ds = TinyDataset();
  TripletSampler sampler(ds.num_users, ds.num_items, ds.interactions);
  BipartiteIndex index(ds.num_users, ds.num_items, ds.interactions);
  Rng rng(1);
  TripletBatch batch;
  sampler.SampleBatch(512, &rng, &batch);
  ASSERT_EQ(batch.anchors.size(), 512u);
  for (size_t i = 0; i < batch.anchors.size(); ++i) {
    EXPECT_TRUE(index.Contains(batch.anchors[i], batch.positives[i]));
    EXPECT_FALSE(index.Contains(batch.anchors[i], batch.negatives[i]));
  }
}

TEST(TripletSamplerTest, CoversAllEdgesEventually) {
  EdgeList edges = {{0, 0}, {0, 1}, {1, 2}};
  TripletSampler sampler(2, 3, edges);
  Rng rng(2);
  TripletBatch batch;
  sampler.SampleBatch(300, &rng, &batch);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (size_t i = 0; i < batch.anchors.size(); ++i) {
    seen.emplace(batch.anchors[i], batch.positives[i]);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(TripletSamplerTest, SaturatedAnchorFallsBackToPositive) {
  // User 0 has interacted with every item: no valid negative exists.
  EdgeList edges = {{0, 0}, {0, 1}};
  TripletSampler sampler(1, 2, edges);
  Rng rng(3);
  TripletBatch batch;
  sampler.SampleBatch(16, &rng, &batch);
  for (size_t i = 0; i < batch.anchors.size(); ++i) {
    EXPECT_EQ(batch.negatives[i], batch.positives[i]);
  }
}

// Tentpole acceptance: the parallel sampling path must produce a batch
// that is a pure function of (main RNG state, batch size) — identical at
// every thread count, because each index derives its own stream from one
// base draw — and must advance the main RNG by exactly that one draw so a
// checkpoint-resumed run replays the same stream.
TEST(TripletSamplerTest, ParallelBatchIdenticalAcrossThreadCounts) {
  Dataset ds = TinyDataset();
  TripletSampler sampler(ds.num_users, ds.num_items, ds.interactions);
  constexpr uint64_t kSeed = 17;
  constexpr int64_t kBatch = 777;  // Not a multiple of any grain size.

  TripletBatch reference;
  uint64_t rng_state_after = 0;
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    ThreadPoolOptions options;
    options.num_threads = threads;
    ThreadPool pool(options);
    Rng rng(kSeed);
    TripletBatch batch;
    sampler.SampleBatch(kBatch, &rng, &batch, &pool);
    ASSERT_EQ(batch.anchors.size(), static_cast<size_t>(kBatch));
    if (threads == 1) {
      reference = batch;
      rng_state_after = rng.NextUint64();
    } else {
      EXPECT_EQ(batch.anchors, reference.anchors) << threads << " threads";
      EXPECT_EQ(batch.positives, reference.positives) << threads << " threads";
      EXPECT_EQ(batch.negatives, reference.negatives) << threads << " threads";
      // Main RNG advanced identically: the next draw matches.
      EXPECT_EQ(rng.NextUint64(), rng_state_after) << threads << " threads";
    }
  }
}

TEST(TripletSamplerTest, ParallelNegativesAreNeverPositives) {
  Dataset ds = TinyDataset();
  TripletSampler sampler(ds.num_users, ds.num_items, ds.interactions);
  BipartiteIndex index(ds.num_users, ds.num_items, ds.interactions);
  ThreadPoolOptions options;
  options.num_threads = 4;
  ThreadPool pool(options);
  Rng rng(1);
  TripletBatch batch;
  sampler.SampleBatch(512, &rng, &batch, &pool);
  ASSERT_EQ(batch.anchors.size(), 512u);
  for (size_t i = 0; i < batch.anchors.size(); ++i) {
    EXPECT_TRUE(index.Contains(batch.anchors[i], batch.positives[i]));
    EXPECT_FALSE(index.Contains(batch.anchors[i], batch.negatives[i]));
  }
}

TEST(TripletSamplerTest, SerialPathUnchangedByPoolParameter) {
  // pool == nullptr must keep the historical single-stream draw order so
  // existing seeds and goldens reproduce exactly.
  Dataset ds = TinyDataset();
  TripletSampler sampler(ds.num_users, ds.num_items, ds.interactions);
  Rng rng_a(9), rng_b(9);
  TripletBatch a, b;
  sampler.SampleBatch(64, &rng_a, &a);
  sampler.SampleBatch(64, &rng_b, &b, /*pool=*/nullptr);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.positives, b.positives);
  EXPECT_EQ(a.negatives, b.negatives);
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

TEST(ItemBatchSamplerTest, OnlyItemsWithInteractions) {
  EdgeList edges = {{0, 3}, {1, 5}};
  ItemBatchSampler sampler(10, edges);
  EXPECT_EQ(sampler.eligible_items(), (std::vector<int64_t>{3, 5}));
  Rng rng(4);
  std::vector<int64_t> items;
  sampler.SampleBatch(8, &rng, &items);
  EXPECT_EQ(items.size(), 2u);  // Capped at eligible count.
  for (int64_t v : items) EXPECT_TRUE(v == 3 || v == 5);
}

TEST(ItemBatchSamplerTest, SamplesAreDistinct) {
  EdgeList edges;
  for (int64_t v = 0; v < 40; ++v) edges.emplace_back(0, v);
  ItemBatchSampler sampler(40, edges);
  Rng rng(5);
  std::vector<int64_t> items;
  sampler.SampleBatch(30, &rng, &items);
  std::set<int64_t> unique(items.begin(), items.end());
  EXPECT_EQ(unique.size(), items.size());
}

// A fake model whose validation recall is controlled by a schedule,
// letting us test early stopping and best-restoration in isolation.
class FakeModel : public TrainableModel {
 public:
  explicit FakeModel(std::vector<double> schedule)
      : schedule_(std::move(schedule)), parameter_(1, 1, true) {}

  double TrainStep(Rng* rng) override {
    (void)rng;
    ++steps_;
    parameter_.data()[0] = static_cast<float>(steps_);
    return 1.0;
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {parameter_}; }
  std::string name() const override { return "fake"; }

  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    // Score so that recall at the current epoch follows the schedule: the
    // evaluator's single test item (item 0) is ranked first iff the
    // schedule value exceeds 0.5 at the current validation index.
    const size_t idx =
        std::min(eval_calls_, schedule_.size() - 1);
    ++eval_calls_;
    scores->assign(2, 0.0f);
    (*scores)[0] = schedule_[idx] > 0.5 ? 1.0f : -1.0f;
    (*scores)[1] = 0.0f;
  }

  int64_t steps() const { return steps_; }
  float parameter_value() const { return parameter_.data()[0]; }

 private:
  std::vector<double> schedule_;
  mutable size_t eval_calls_ = 0;
  int64_t steps_ = 0;
  Tensor parameter_;
};

struct TrainerFixture {
  Dataset ds;
  DataSplit split;
  TrainerFixture() {
    ds.num_users = 1;
    ds.num_items = 2;
    ds.num_tags = 1;
    split.train = {{0, 1}};
    split.validation = {{0, 0}};
  }
};

TEST(TrainerTest, EarlyStopsAfterPatience) {
  TrainerFixture fx;
  Evaluator evaluator(fx.ds, fx.split);
  Trainer trainer(&evaluator, &fx.split);
  // Recall: good on the first validation, then bad forever.
  FakeModel model({1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  TrainerOptions options;
  options.max_epochs = 100;
  options.eval_every = 1;
  options.patience = 3;
  options.restore_best = false;
  TrainHistory history = trainer.Fit(&model, options);
  EXPECT_EQ(history.epochs_run, 4);  // 1 best + 3 patience.
  EXPECT_EQ(history.best_epoch, 1);
}

TEST(TrainerTest, RestoresBestParameters) {
  TrainerFixture fx;
  Evaluator evaluator(fx.ds, fx.split);
  Trainer trainer(&evaluator, &fx.split);
  FakeModel model({1.0, 0.0, 0.0, 0.0, 0.0});
  TrainerOptions options;
  options.max_epochs = 4;
  options.eval_every = 1;
  options.patience = 10;
  options.restore_best = true;
  trainer.Fit(&model, options);
  // Best validation was after epoch 1, when the parameter value was 1.
  EXPECT_EQ(model.parameter_value(), 1.0f);
  EXPECT_EQ(model.steps(), 4);
}

TEST(TrainerTest, HistoryRecordsValidationCurve) {
  TrainerFixture fx;
  Evaluator evaluator(fx.ds, fx.split);
  Trainer trainer(&evaluator, &fx.split);
  FakeModel model({0.0, 1.0, 0.0, 1.0});
  TrainerOptions options;
  options.max_epochs = 4;
  options.eval_every = 2;  // Validations at epochs 2 and 4.
  options.patience = 10;
  TrainHistory history = trainer.Fit(&model, options);
  ASSERT_EQ(history.points.size(), 2u);
  EXPECT_EQ(history.points[0].epoch, 2);
  EXPECT_EQ(history.points[1].epoch, 4);
  EXPECT_GE(history.train_seconds, 0.0);
}

// A minimal factor model — exactly two parameter tensors (user table then
// item table) over one embedding dimension, the layout the serving
// exporter writes in the sharded snapshot format.
class FakeFactorModel : public TrainableModel {
 public:
  FakeFactorModel(Tensor users, Tensor items)
      : users_(std::move(users)), items_(std::move(items)) {}

  double TrainStep(Rng* rng) override {
    (void)rng;
    return 0.0;
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {users_, items_}; }
  std::string name() const override { return "fake-factor"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(static_cast<size_t>(items_.rows()), 0.0f);
  }

 private:
  Tensor users_;
  Tensor items_;
};

Tensor ExportTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = scale * static_cast<float>(i % 13 - 6);
  }
  return Tensor(rows, cols, std::move(values));
}

TEST(TrainerTest, ExportServingCheckpointWritesShardedSnapshot) {
  const std::string path =
      TestTempPath("export_sharded.snap");
  FakeFactorModel model(ExportTable(9, 4, 0.5f), ExportTable(13, 4, -0.25f));
  ServingExportOptions options;
  options.items_per_shard = 5;
  options.version = 11;
  ASSERT_TRUE(ExportServingCheckpoint(&model, path, options).ok());
  EXPECT_TRUE(IsShardedSnapshotFile(path));

  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_users(), 9);
  EXPECT_EQ(snapshot.num_items(), 13);
  EXPECT_EQ(snapshot.dim(), 4);
  EXPECT_EQ(snapshot.num_shards(), 3);  // ceil(13 / 5).
  EXPECT_EQ(snapshot.parent_version(), 11);
  EXPECT_EQ(snapshot.quarantined_count(), 0);
  Tensor users = ExportTable(9, 4, 0.5f);
  Tensor items = ExportTable(13, 4, -0.25f);
  for (int64_t u = 0; u < 9; ++u) {
    for (int64_t i = 0; i < 13; ++i) {
      float expected = 0.0f;
      for (int64_t d = 0; d < 4; ++d) {
        expected += users.data()[u * 4 + d] * items.data()[i * 4 + d];
      }
      EXPECT_EQ(snapshot.Score(u, i), expected) << "u=" << u << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

TEST(TrainerTest, ExportServingCheckpointFallsBackToMonolithicLayout) {
  // One parameter tensor is not a factor-model layout: the export keeps
  // the monolithic v2 checkpoint format.
  const std::string path =
      TestTempPath("export_monolithic.ckpt");
  FakeModel model({1.0});
  ASSERT_TRUE(ExportServingCheckpoint(&model, path).ok());
  EXPECT_FALSE(IsShardedSnapshotFile(path));
  // LoadCheckpoint restores into pre-shaped tensors; a matching 1x1
  // destination confirms the v2 layout round trips.
  std::vector<Tensor> tensors = {Tensor(1, 1, std::vector<float>{0.0f})};
  Status loaded = LoadCheckpoint(path, &tensors);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imcat
