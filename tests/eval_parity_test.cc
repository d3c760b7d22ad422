// Eval-parity suite (ctest label `kernel`; scripts/check.sh --kernel runs it
// plain and under TSan, where the pooled Evaluate reads one shared panel
// cache from several threads). Pins the scoring-factor contract
// (DESIGN.md §12) against oracles that share no code with the scoring path:
//
//  1. Batched Evaluate of every inner-product model (BPRMF, a
//     FactorModelBase baseline, LightGCN, B-IMCAT, L-IMCAT), at any batch
//     size and thread count, equals a plain ascending-dim fp32 brute force
//     over the model's factor tables with a full sort, bit for bit — and
//     still does after a training step, so panels left stale by a missed
//     InvalidateEvalCache fail it.
//  2. TopNFromScores' two-pass selection ranks like a full sort, with ties
//     (at the threshold and across residue groups), top items in one
//     group, +-inf, NaNs (never ranked), all-masked rows and top_n beyond
//     the unseen items, at catalogue sizes below, at and past one
//     64-item group row.
//  3. Every servable model exports a v3 snapshot whose RecService top-k
//     (training items excluded) is Evaluator::TopNForUser id for id;
//     models without factors are refused.
//  4. The trainer drops eval caches when it restores parameters (a stale
//     propagated-factor cache used to survive Fit's best-epoch restore).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "serve/popularity.h"
#include "serve/rec_service.h"
#include "tests/temp_path.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

constexpr int kTopN = 10;

struct Workbench {
  Dataset ds;
  DataSplit split;
  Evaluator evaluator;

  Workbench()
      : ds(MakeDataset()),
        split(SplitByUser(ds, SplitOptions{})),
        evaluator(ds, split) {}

  // 101 items: six full panels and a five-lane tail panel.
  static Dataset MakeDataset() {
    SyntheticConfig config;
    config.num_users = 70;
    config.num_items = 101;
    config.num_tags = 20;
    config.num_interactions = 1500;
    config.num_item_tags = 350;
    config.user_intent_alpha = 0.25;
    config.seed = 23;
    return GenerateSynthetic(config);
  }

  std::unique_ptr<TrainableModel> Model(const std::string& name,
                                        float learning_rate = 5e-3f) const {
    ModelFactoryOptions options;
    options.embedding_dim = 12;
    options.batch_size = 256;
    options.adam.learning_rate = learning_rate;
    options.imcat.num_intents = 2;
    options.imcat.pretrain_steps = 2;
    options.imcat.ca_batch_size = 64;
    options.imcat.independence_sample_rows = 24;
    auto model = CreateModel(name, ds, split, options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(model).value();
  }

  std::vector<std::vector<int64_t>> TrainItems() const {
    std::vector<std::vector<int64_t>> items(ds.num_users);
    for (const auto& [u, v] : split.train) items[u].push_back(v);
    return items;
  }
};

// Row-major copies of a model's factor tables.
struct FactorTables {
  int64_t num_users = 0, num_items = 0, dim = 0;
  std::vector<float> users, items;
};

FactorTables CopyFactors(const TrainableModel& model) {
  model.PrepareScoring();
  const std::optional<ScoringFactors> f = model.Factors();
  EXPECT_TRUE(f.has_value());
  FactorTables t;
  if (!f.has_value()) return t;
  t.num_users = f->num_users;
  t.num_items = f->num_items;
  t.dim = f->dim;
  t.users.assign(f->users, f->users + f->num_users * f->dim);
  t.items.assign(f->items, f->items + f->num_items * f->dim);
  return t;
}

// The oracle: plain fp32 dot products, training items dropped, a full sort
// by (score desc, id asc), metrics averaged over users in id order.
EvalResult BruteForceEvaluate(const FactorTables& t, const Workbench& wb,
                              const EdgeList& eval_edges) {
  const std::vector<std::vector<int64_t>> train = wb.TrainItems();
  std::vector<ItemSet> relevant(t.num_users);
  for (const auto& [u, v] : eval_edges) relevant[u].insert(v);
  EvalResult sum;
  for (int64_t u = 0; u < t.num_users; ++u) {
    if (relevant[u].empty()) continue;
    std::vector<std::pair<float, int64_t>> ranked;
    for (int64_t i = 0; i < t.num_items; ++i) {
      if (std::count(train[u].begin(), train[u].end(), i) > 0) continue;
      float acc = 0.0f;
      for (int64_t c = 0; c < t.dim; ++c) {
        acc += t.users[u * t.dim + c] * t.items[i * t.dim + c];
      }
      ranked.push_back({acc, i});
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<int64_t> top;
    for (size_t r = 0; r < ranked.size() && r < size_t{kTopN}; ++r) {
      top.push_back(ranked[r].second);
    }
    sum.recall += RecallAtN(top, relevant[u], kTopN);
    sum.ndcg += NdcgAtN(top, relevant[u], kTopN);
    sum.precision += PrecisionAtN(top, relevant[u], kTopN);
    sum.hit_rate += HitRateAtN(top, relevant[u], kTopN);
    sum.mrr += MrrAtN(top, relevant[u], kTopN);
    ++sum.num_users;
  }
  const double n = static_cast<double>(sum.num_users);
  sum.recall /= n;
  sum.ndcg /= n;
  sum.precision /= n;
  sum.hit_rate /= n;
  sum.mrr /= n;
  return sum;
}

void ExpectSameResult(const EvalResult& got, const EvalResult& want) {
  EXPECT_EQ(got.num_users, want.num_users);
  EXPECT_EQ(got.recall, want.recall);
  EXPECT_EQ(got.ndcg, want.ndcg);
  EXPECT_EQ(got.precision, want.precision);
  EXPECT_EQ(got.hit_rate, want.hit_rate);
  EXPECT_EQ(got.mrr, want.mrr);
}

// The scores themselves, bit for bit, and then every batch size x
// {serial, 4-thread pool} against the oracle.
void ExpectEvaluateMatchesOracle(Workbench* wb, const TrainableModel& model,
                                 ThreadPool* pool) {
  const FactorTables t = CopyFactors(model);
  std::vector<int64_t> users(t.num_users);
  for (int64_t u = 0; u < t.num_users; ++u) users[u] = u;
  std::vector<float> scores;
  model.ScoreItemsForUsers(users, &scores);
  ASSERT_EQ(scores.size(), static_cast<size_t>(t.num_users * t.num_items));
  for (int64_t u = 0; u < t.num_users; ++u) {
    for (int64_t i = 0; i < t.num_items; ++i) {
      float acc = 0.0f;
      for (int64_t c = 0; c < t.dim; ++c) {
        acc += t.users[u * t.dim + c] * t.items[i * t.dim + c];
      }
      ASSERT_EQ(scores[u * t.num_items + i], acc) << "u=" << u << " i=" << i;
    }
  }
  const EvalResult want = BruteForceEvaluate(t, *wb, wb->split.test);
  ASSERT_GT(want.num_users, 0);
  for (int64_t batch : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{64}}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   (p == nullptr ? " serial" : " pooled"));
      wb->evaluator.set_batch_users(batch);
      ExpectSameResult(
          wb->evaluator.Evaluate(model, wb->split.test, kTopN, {}, p), want);
    }
  }
}

class EvalOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EvalOracleTest, BatchedEvaluateMatchesBruteForceAcrossATrainStep) {
  Workbench wb;
  std::unique_ptr<TrainableModel> model = wb.Model(GetParam());
  ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  ThreadPool pool(pool_options);
  Rng rng(5);
  model->TrainStep(&rng);
  ExpectEvaluateMatchesOracle(&wb, *model, &pool);

  // One more step must reach the factors and the panels: the rows change,
  // and scoring follows them.
  const FactorTables before = CopyFactors(*model);
  model->TrainStep(&rng);
  const FactorTables after = CopyFactors(*model);
  EXPECT_NE(before.items, after.items);
  ExpectEvaluateMatchesOracle(&wb, *model, &pool);
}

INSTANTIATE_TEST_SUITE_P(InnerProductModels, EvalOracleTest,
                         ::testing::Values("BPRMF", "SGL", "LightGCN",
                                           "B-IMCAT", "L-IMCAT"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// TopNFromScores

// Reference ranking: drop training items and NaN scores, full sort by
// (score desc, id asc), cut to top_n, then drop the -inf tail (an unseen
// item scoring -inf ranks like a masked one).
std::vector<int64_t> SortedTopN(const std::vector<float>& scores,
                                const std::vector<int64_t>& train,
                                int top_n) {
  std::vector<bool> seen(scores.size(), false);
  for (int64_t i : train) seen[i] = true;
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    if (!seen[i] && !std::isnan(scores[i])) ids.push_back(i);
  }
  std::sort(ids.begin(), ids.end(), [&](int64_t a, int64_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  if (static_cast<int64_t>(ids.size()) > top_n) ids.resize(top_n);
  while (!ids.empty() && scores[ids.back()] ==
                             -std::numeric_limits<float>::infinity()) {
    ids.pop_back();
  }
  return ids;
}

TEST(TopNFromScoresTest, BoundedSelectionRanksLikeAFullSort) {
  Dataset ds;
  ds.num_users = 3;
  ds.num_items = 37;
  ds.num_tags = 1;
  DataSplit split;
  std::vector<std::vector<int64_t>> train(ds.num_users);
  for (int64_t i = 0; i < ds.num_items; i += 4) train[0].push_back(i);
  for (int64_t i = 0; i < ds.num_items; ++i) train[1].push_back(i);  // All.
  train[2] = {0, 1, 2, 36};
  for (int64_t u = 0; u < ds.num_users; ++u) {
    for (int64_t i : train[u]) split.train.push_back({u, i});
  }
  Evaluator evaluator(ds, split);
  // Five distinct values over 37 items: long runs of ties, including ties
  // across the top-N boundary and among training items.
  std::vector<float> scores(ds.num_items);
  for (int64_t i = 0; i < ds.num_items; ++i) {
    scores[i] = static_cast<float>((i * 7) % 5) - 2.0f;
  }
  for (int64_t u = 0; u < ds.num_users; ++u) {
    const int64_t unseen = ds.num_items - static_cast<int64_t>(train[u].size());
    for (int top_n : {0, 1, 3, 7, 20, static_cast<int>(unseen), 36, 37, 50}) {
      SCOPED_TRACE("user=" + std::to_string(u) +
                   " top_n=" + std::to_string(top_n));
      std::vector<float> row = scores;
      EXPECT_EQ(evaluator.TopNFromScores(u, row.data(), top_n),
                SortedTopN(scores, train[u], top_n));
    }
  }
  // An all-masked row ranks nothing at any cutoff.
  std::vector<float> row = scores;
  EXPECT_TRUE(evaluator.TopNFromScores(1, row.data(), 50).empty());
}

// The two-pass selection at catalogue sizes around and well past one
// 64-item group row, and cutoffs on both sides of the group count.
TEST(TopNFromScoresTest, TwoPassSelectionRanksLikeAFullSortAtRealSizes) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t items : {63, 64, 65, 1000, 6204}) {
    Dataset ds;
    ds.num_users = 4;
    ds.num_items = items;
    ds.num_tags = 1;
    DataSplit split;
    // User 0 has seen nothing, user 1 every third item, user 2 every item
    // and user 3 all but the last 10.
    std::vector<std::vector<int64_t>> train(ds.num_users);
    for (int64_t i = 0; i < items; i += 3) train[1].push_back(i);
    for (int64_t i = 0; i < items; ++i) train[2].push_back(i);
    for (int64_t i = 0; i + 10 < items; ++i) train[3].push_back(i);
    for (int64_t u = 0; u < ds.num_users; ++u) {
      for (int64_t i : train[u]) split.train.push_back({u, i});
    }
    Evaluator evaluator(ds, split);

    std::mt19937 gen(static_cast<uint32_t>(items));
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<std::pair<std::string, std::vector<float>>> rows;
    std::vector<float> row(static_cast<size_t>(items));
    for (float& x : row) x = dist(gen);
    rows.emplace_back("distinct", row);
    // Eight values: ties at the threshold and across groups.
    for (float& x : row) x = std::floor(dist(gen) * 4.0f);
    rows.emplace_back("ties", row);
    // Every high score in one residue class mod 64.
    for (int64_t i = 0; i < items; ++i) {
      row[i] = i % 64 == 5 ? 10.0f + dist(gen) : dist(gen);
    }
    rows.emplace_back("one_class", row);
    // +inf and -inf scattered over unseen and seen items.
    for (int64_t i = 0; i < items; ++i) {
      row[i] = i % 7 == 2 ? kInf : i % 5 == 1 ? -kInf : dist(gen);
    }
    rows.emplace_back("infinities", row);
    // NaNs among the first ids (inside every top_n's first slots), and
    // scattered; one all-NaN residue class.
    for (int64_t i = 0; i < items; ++i) {
      row[i] = (i < 70 && i % 2 == 0) || i % 11 == 4 || i % 64 == 9
                   ? nan
                   : std::floor(dist(gen) * 8.0f);
    }
    rows.emplace_back("nans", row);

    for (int64_t u = 0; u < ds.num_users; ++u) {
      const int unseen =
          static_cast<int>(items - static_cast<int64_t>(train[u].size()));
      for (int top_n : {1, 20, 63, 64, 65, 200, unseen + 5}) {
        for (const auto& [name, scores] : rows) {
          SCOPED_TRACE(name + " items=" + std::to_string(items) + " user=" +
                       std::to_string(u) + " top_n=" + std::to_string(top_n));
          std::vector<float> copy = scores;
          EXPECT_EQ(evaluator.TopNFromScores(u, copy.data(), top_n),
                    SortedTopN(scores, train[u], top_n));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Export -> RecService parity

class ServingParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingParityTest, RecServiceTopKEqualsEvaluatorTopN) {
  Workbench wb;
  std::unique_ptr<TrainableModel> model = wb.Model(GetParam());
  Rng rng(9);
  for (int step = 0; step < 4; ++step) model->TrainStep(&rng);

  std::string name = GetParam();
  std::replace(name.begin(), name.end(), '-', '_');
  const std::string path = TestTempPath("parity_" + name + ".snap");
  ServingExportOptions export_options;
  export_options.items_per_shard = 24;  // Shard edges off the panel grid.
  ASSERT_TRUE(ExportServingCheckpoint(model.get(), path, export_options).ok());

  RecServiceOptions options;
  options.default_deadline_ms = -1.0;
  options.load_backoff.max_attempts = 1;
  options.sleep_ms = [](double) {};
  RecService service(
      std::make_shared<PopularityRanker>(wb.ds.num_items, wb.split.train),
      options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  const std::vector<std::vector<int64_t>> train = wb.TrainItems();
  for (int64_t u = 0; u < wb.ds.num_users; ++u) {
    SCOPED_TRACE("user=" + std::to_string(u));
    RecRequest request;
    request.user = u;
    request.top_k = kTopN;
    request.exclude = train[u];
    const RecResponse response = service.Recommend(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.degraded);
    std::vector<int64_t> served;
    for (const ScoredItem& item : response.items) served.push_back(item.item);
    EXPECT_EQ(served, wb.evaluator.TopNForUser(*model, u, kTopN));
  }
  service.Shutdown();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ServableModels, ServingParityTest,
                         ::testing::Values("BPRMF", "LightGCN", "B-IMCAT",
                                           "L-IMCAT"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ServingExportTest, ModelsWithoutFactorsAreRefused) {
  Workbench wb;
  for (const std::string name : {"NeuMF", "N-IMCAT"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<TrainableModel> model = wb.Model(name);
    EXPECT_FALSE(model->Factors().has_value());
    const std::string path = TestTempPath("parity_refused.snap");
    EXPECT_EQ(ExportServingCheckpoint(model.get(), path).code(),
              StatusCode::kFailedPrecondition);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Trainer restores

// Trains like the wrapped model, but the first step of the second epoch
// overwrites every parameter with noise, so the first validation stays the
// best one and Fit's restore_best has to rewind the parameters after later
// validations built the eval cache.
class DegradingModel : public TrainableModel {
 public:
  explicit DegradingModel(std::unique_ptr<TrainableModel> inner)
      : inner_(std::move(inner)) {}

  double TrainStep(Rng* rng) override {
    const double loss = inner_->TrainStep(rng);
    if (steps_++ == inner_->StepsPerEpoch()) {
      for (Tensor& t : inner_->Parameters()) {
        for (int64_t i = 0; i < t.size(); ++i) {
          t.data()[i] = 0.1f * std::sin(static_cast<float>(i) * 12.9898f);
        }
      }
      inner_->InvalidateEvalCache();
    }
    return loss;
  }
  int64_t StepsPerEpoch() const override { return inner_->StepsPerEpoch(); }
  std::vector<Tensor> Parameters() override { return inner_->Parameters(); }
  AdamOptimizer* optimizer() override { return inner_->optimizer(); }
  std::string name() const override { return inner_->name(); }
  void PrepareScoring() const override { inner_->PrepareScoring(); }
  void InvalidateEvalCache() override { inner_->InvalidateEvalCache(); }
  std::optional<ScoringFactors> Factors() const override {
    return inner_->Factors();
  }

 private:
  std::unique_ptr<TrainableModel> inner_;
  int64_t steps_ = 0;
};

class TrainerRestoreTest : public ::testing::TestWithParam<std::string> {};

// BPRMF caches only panels of its raw tables; LightGCN caches the
// propagated tables themselves. After the restore both must score the
// restored parameters, as a forced refresh does.
TEST_P(TrainerRestoreTest, RestoredParametersReachTheEvalCache) {
  Workbench wb;
  DegradingModel model(wb.Model(GetParam(), /*learning_rate=*/0.05f));
  Trainer trainer(&wb.evaluator, &wb.split);
  TrainerOptions options;
  options.max_epochs = 2;
  options.eval_every = 1;
  options.patience = 10;
  options.restore_best = true;
  const TrainHistory history = trainer.Fit(&model, options);
  ASSERT_TRUE(history.status.ok()) << history.status.ToString();
  ASSERT_EQ(history.best_epoch, 1);  // The restore rewinds epoch 2.
  const EvalResult after_fit =
      wb.evaluator.Evaluate(model, wb.split.test, kTopN);
  model.InvalidateEvalCache();
  ExpectSameResult(after_fit,
                   BruteForceEvaluate(CopyFactors(model), wb, wb.split.test));
}

INSTANTIATE_TEST_SUITE_P(RestoredModels, TrainerRestoreTest,
                         ::testing::Values("BPRMF", "LightGCN"));

}  // namespace
}  // namespace imcat
