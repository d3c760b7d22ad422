// Batched-scoring suite (ctest labels `kernel` + `chaos`; run plain and
// under TSan by scripts/check.sh --kernel). Pins the three contracts the
// batched hot path rests on (DESIGN.md §12):
//
//  1. Kernel bit-identity: ScoreBlock / ScoreAllItemsBlocked produce the
//     exact fp32 values of the scalar ascending-dim dot loop for any batch
//     size, block size and output stride, as do the batched ranker
//     overrides built on them (Bprmf) and the batched Evaluator fan-out.
//  2. TopKBatch result-identity: for every query of a batch the status,
//     the ranked items (scores bit-equal, score-desc/id-asc order), the
//     quarantine skip counts and the between-block deadline behaviour are
//     identical to running the scalar TopK per user — swept over shapes,
//     batch sizes, ranges, exclusions, brownout budgets and a quarantined
//     shard, plus a fake-clock mid-batch expiry where one query dies at a
//     block boundary while the rest keep scoring.
//  3. Service coalescing: with max_batch_size > 1 queued compatible
//     requests drain into one multi-user pass; every future still
//     resolves definite, shutdown with a queued batch leaks nothing, and
//     the 10-outcome accounting identity holds exactly under overload,
//     slow-op bursts and mid-ramp delta publishes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/evaluator.h"
#include "models/bprmf.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "serve/recommender.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "tensor/score_kernel.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/online_updater.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

// Deterministic factor matrices; same generator as the serving suites so
// scores are irregular but reproducible.
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

std::string WriteSnapshot(const char* name, int64_t num_users,
                          int64_t num_items, int64_t dim) {
  const std::string path = TestTempPath(name);
  std::vector<Tensor> tensors;
  tensors.push_back(MakeTable(num_users, dim, 0.25f));
  tensors.push_back(MakeTable(num_items, dim, -0.5f));
  EXPECT_TRUE(SaveCheckpoint(path, tensors).ok());
  return path;
}

// The reference loop every score in the system must reproduce bit for bit.
float ScalarDot(const float* u, const float* v, int64_t dim) {
  float acc = 0.0f;
  for (int64_t c = 0; c < dim; ++c) acc += u[c] * v[c];
  return acc;
}

int64_t HistogramCount(const MetricsSnapshot& snapshot,
                       const std::string& name) {
  for (const auto& [hist_name, hist] : snapshot.histograms) {
    if (hist_name == name) return hist.count;
  }
  return -1;
}

double HistogramMax(const MetricsSnapshot& snapshot,
                    const std::string& name) {
  for (const auto& [hist_name, hist] : snapshot.histograms) {
    if (hist_name == name) return hist.max;
  }
  return -1.0;
}

bool IsDefinite(const RecResponse& response) {
  switch (response.status.code()) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

std::shared_ptr<const PopularityRanker> Fallback(int64_t num_users,
                                                 int64_t num_items) {
  EdgeList train;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t i = 0; i < num_items; i += (u % 5) + 1) {
      train.push_back({u, i});
    }
  }
  return std::make_shared<PopularityRanker>(num_items, train);
}

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// 1. Kernel bit-identity
// ---------------------------------------------------------------------------

TEST_F(BatchTest, ScoreBlockMatchesScalarDotExactly) {
  constexpr int64_t kUsers = 9, kItems = 41, kDim = 7;
  Tensor users = MakeTable(kUsers, kDim, 0.37f);
  Tensor items = MakeTable(kItems, kDim, -0.61f);
  std::vector<const float*> rows(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) rows[u] = users.data() + u * kDim;
  std::vector<float> out(kUsers * kItems, -1.0f);
  ScoreBlock(rows.data(), kUsers, items.data(), kItems, kDim, out.data(),
             kItems);
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(out[u * kItems + i],
                ScalarDot(rows[u], items.data() + i * kDim, kDim))
          << "u=" << u << " i=" << i;
    }
  }
}

TEST_F(BatchTest, BlockedScoringInvariantToBlockSizeAndStride) {
  constexpr int64_t kUsers = 5, kItems = 53, kDim = 6;
  Tensor users = MakeTable(kUsers, kDim, 1.13f);
  Tensor items = MakeTable(kItems, kDim, -0.29f);
  std::vector<const float*> rows(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) rows[u] = users.data() + u * kDim;
  // Reference: a single pass over the whole table.
  std::vector<float> reference(kUsers * kItems);
  ScoreBlock(rows.data(), kUsers, items.data(), kItems, kDim,
             reference.data(), kItems);
  for (int64_t block : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{52},
                        int64_t{53}, int64_t{1024}}) {
    SCOPED_TRACE("block_items=" + std::to_string(block));
    // Wider-than-needed stride: the tail must stay untouched.
    const int64_t stride = kItems + 11;
    std::vector<float> out(kUsers * stride, 7.5f);
    ScoreAllItemsBlocked(rows.data(), kUsers, items.data(), kItems, kDim,
                         block, out.data(), stride);
    for (int64_t u = 0; u < kUsers; ++u) {
      for (int64_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(out[u * stride + i], reference[u * kItems + i]);
      }
      for (int64_t i = kItems; i < stride; ++i) {
        EXPECT_EQ(out[u * stride + i], 7.5f);  // Stride padding untouched.
      }
    }
  }
}

TEST_F(BatchTest, BprmfBatchedScoresBitIdenticalToScalar) {
  BackboneOptions options;
  options.embedding_dim = 19;  // Odd dim: no accidental alignment help.
  Bprmf model(23, 67, options);
  std::vector<int64_t> users = {0, 22, 7, 7, 13, 1};
  std::vector<float> batched;
  model.ScoreItemsForUsers(users, &batched);
  ASSERT_EQ(batched.size(), users.size() * 67u);
  std::vector<float> row;
  for (size_t i = 0; i < users.size(); ++i) {
    model.ScoreItemsForUser(users[i], &row);
    ASSERT_EQ(row.size(), 67u);
    for (int64_t v = 0; v < 67; ++v) {
      EXPECT_EQ(batched[i * 67 + v], row[v]) << "user " << users[i];
    }
  }
}

// A ranker without a batched override: the default ScoreItemsForUsers
// fallback must lay the per-user rows out exactly as the kernel does.
class FormulaRanker : public Ranker {
 public:
  explicit FormulaRanker(int64_t num_items) : num_items_(num_items) {}
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    scores->resize(num_items_);
    for (int64_t v = 0; v < num_items_; ++v) {
      (*scores)[v] = static_cast<float>((user * 31 + v * 17) % 97 - 48) /
                     static_cast<float>(3 + (v % 5));
    }
  }

 private:
  int64_t num_items_;
};

TEST_F(BatchTest, EvaluatorBitIdenticalAcrossBatchSizesAndThreadCounts) {
  Dataset ds;
  ds.num_users = 29;
  ds.num_items = 83;
  ds.num_tags = 1;
  DataSplit split;
  for (int64_t u = 0; u < ds.num_users; ++u) {
    split.train.push_back({u, (u * 5) % ds.num_items});
    if (u % 4 != 3) {  // Leave some users without held-out items.
      split.test.push_back({u, (u * 11 + 2) % ds.num_items});
      split.test.push_back({u, (u * 13 + 7) % ds.num_items});
    }
  }
  FormulaRanker ranker(ds.num_items);
  Evaluator evaluator(ds, split);
  evaluator.set_batch_users(1);
  const EvalResult reference = evaluator.Evaluate(ranker, split.test, 10);
  ASSERT_GT(reference.num_users, 0);
  for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{8},
                        int64_t{64}}) {
    for (int threads : {0, 2, 8}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) + " threads=" +
                   std::to_string(threads));
      evaluator.set_batch_users(batch);
      EvalResult result;
      if (threads == 0) {
        result = evaluator.Evaluate(ranker, split.test, 10);
      } else {
        ThreadPoolOptions pool_options;
        pool_options.num_threads = threads;
        ThreadPool pool(pool_options);
        result = evaluator.Evaluate(ranker, split.test, 10, {}, &pool);
      }
      EXPECT_EQ(result.num_users, reference.num_users);
      EXPECT_EQ(result.recall, reference.recall);
      EXPECT_EQ(result.ndcg, reference.ndcg);
      EXPECT_EQ(result.precision, reference.precision);
      EXPECT_EQ(result.hit_rate, reference.hit_rate);
      EXPECT_EQ(result.mrr, reference.mrr);
    }
  }
}

// ---------------------------------------------------------------------------
// 2. TopKBatch vs scalar TopK
// ---------------------------------------------------------------------------

// Runs the scalar range-aware TopK per query and compares field by field.
void ExpectBatchMatchesScalar(const Recommender& recommender,
                              const EmbeddingSnapshot& snapshot,
                              const std::vector<Recommender::BatchQuery>& qs,
                              int64_t item_begin, int64_t item_end,
                              int64_t max_items) {
  std::vector<Recommender::BatchQueryResult> results;
  Status batch_status = recommender.TopKBatch(snapshot, qs, item_begin,
                                              item_end, max_items, &results);
  ASSERT_TRUE(batch_status.ok()) << batch_status.ToString();
  ASSERT_EQ(results.size(), qs.size());
  static const std::vector<int64_t> kNoExclude;
  for (size_t q = 0; q < qs.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q) + " user " +
                 std::to_string(qs[q].user));
    std::vector<ScoredItem> expected;
    int64_t expected_skipped = 0;
    const std::vector<int64_t>& exclude =
        qs[q].exclude != nullptr ? *qs[q].exclude : kNoExclude;
    Status scalar = recommender.TopK(snapshot, qs[q].user, qs[q].k,
                                     qs[q].deadline_ms, exclude, item_begin,
                                     item_end, &expected, &expected_skipped,
                                     max_items);
    EXPECT_EQ(results[q].status.code(), scalar.code());
    EXPECT_EQ(results[q].status.message(), scalar.message());
    EXPECT_EQ(results[q].quarantined_skipped, expected_skipped);
    ASSERT_EQ(results[q].items.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[q].items[i].item, expected[i].item);
      EXPECT_EQ(results[q].items[i].score, expected[i].score);  // Bit-equal.
    }
  }
}

TEST_F(BatchTest, TopKBatchMatchesScalarAcrossShapesAndBatchSizes) {
  constexpr int64_t kUsers = 17, kItems = 57, kDim = 5;
  const std::string path = WriteSnapshot("batch_sweep.ckpt", kUsers, kItems,
                                         kDim);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  RecommenderOptions options;
  options.block_items = 9;  // Forces several block boundaries per pass.
  Recommender recommender(options);
  // Deterministic per-user exclusion lists, empty for every third user.
  std::vector<std::vector<int64_t>> excludes(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) {
    if (u % 3 == 0) continue;
    for (int64_t e = 0; e < u % 6; ++e) {
      excludes[u].push_back((u * 7 + e * 13) % kItems);
    }
  }
  struct Range {
    int64_t begin, end, max_items;
  };
  const std::vector<Range> ranges = {
      {0, 0, 0},        // Full catalogue, no brownout budget.
      {0, kItems, 13},  // Full range, truncated scan (brownout level > 0).
      {7, 40, 0},       // Interior category block spanning block edges.
      {50, kItems, 2},  // Short tail range, budget smaller than the range.
  };
  for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{8},
                        int64_t{17}}) {
    for (const Range& range : ranges) {
      for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{100}}) {
        SCOPED_TRACE("batch=" + std::to_string(batch) + " range=[" +
                     std::to_string(range.begin) + "," +
                     std::to_string(range.end) + ") max_items=" +
                     std::to_string(range.max_items) + " k=" +
                     std::to_string(k));
        std::vector<Recommender::BatchQuery> queries;
        for (int64_t q = 0; q < batch; ++q) {
          Recommender::BatchQuery query;
          query.user = (q * 5 + 2) % 11;  // Duplicates once batch > 11.
          query.k = k;
          query.deadline_ms = -1.0;
          query.exclude = &excludes[query.user];
          queries.push_back(query);
        }
        ExpectBatchMatchesScalar(recommender, *loaded.value(), queries,
                                 range.begin, range.end, range.max_items);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(BatchTest, TopKBatchQuarantineSkipsMatchScalar) {
  constexpr int64_t kUsers = 10, kItems = 30, kDim = 4;
  const std::string path = TestTempPath("batch_quarantine.snap");
  ShardedSnapshotOptions snapshot_options;
  snapshot_options.items_per_shard = 8;  // Shards [0,8) [8,16) [16,24) [24,30).
  ASSERT_TRUE(WriteShardedSnapshot(path, MakeTable(kUsers, kDim, 0.25f),
                                   MakeTable(kItems, kDim, -0.5f),
                                   snapshot_options)
                  .ok());
  // Corrupt shard 1's payload on disk so the loader quarantines [8, 16).
  auto manifest = ReadShardedSnapshotManifest(path);
  ASSERT_TRUE(manifest.ok());
  const ShardEntry& entry = manifest.value().item_shards[1];
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(entry.byte_offset + 3);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(entry.byte_offset + 3);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value()->quarantined_count(), 1);
  RecommenderOptions options;
  options.block_items = 5;  // Block edges straddle the quarantined range.
  Recommender recommender(options);
  std::vector<Recommender::BatchQuery> queries;
  for (int64_t u = 0; u < kUsers; ++u) {
    Recommender::BatchQuery query;
    query.user = u;
    query.k = 12;
    query.deadline_ms = -1.0;
    queries.push_back(query);
  }
  // Full catalogue (8 skips per query) and a range half inside the
  // quarantined shard (4 skips per query).
  ExpectBatchMatchesScalar(recommender, *loaded.value(), queries, 0, 0, 0);
  ExpectBatchMatchesScalar(recommender, *loaded.value(), queries, 12, 28, 0);
  std::remove(path.c_str());
}

TEST_F(BatchTest, TopKBatchPerQueryValidationAndRangeErrors) {
  const std::string path = WriteSnapshot("batch_validate.ckpt", 4, 20, 3);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  Recommender recommender;
  std::vector<Recommender::BatchQuery> queries(3);
  queries[0].user = -1;  // Bad user.
  queries[0].k = 5;
  queries[1].user = 2;  // Bad k.
  queries[1].k = 0;
  queries[2].user = 3;  // Valid.
  queries[2].k = 4;
  queries[2].deadline_ms = -1.0;
  std::vector<Recommender::BatchQueryResult> results;
  Status status =
      recommender.TopKBatch(*loaded.value(), queries, 0, 0, 0, &results);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].items.size(), 4u);  // Bad neighbours change nothing.

  // A malformed shared range fails the whole batch.
  Status bad_range =
      recommender.TopKBatch(*loaded.value(), queries, 5, 3, 0, &results);
  EXPECT_EQ(bad_range.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(BatchTest, DeadlineExpiryMidBatchDropsOnlyTheExpiredQuery) {
  const std::string path = WriteSnapshot("batch_deadline.ckpt", 4, 30, 4);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  // Fake clock: +10 ms per reading, exactly like the scalar deadline test,
  // so the tight query blows its budget at the first block boundary while
  // the unlimited queries keep scoring to the end.
  double fake_now = 0.0;
  RecommenderOptions options;
  options.block_items = 10;
  options.now_ms = [&fake_now] { return fake_now += 10.0; };
  Recommender recommender(options);
  std::vector<Recommender::BatchQuery> queries(3);
  queries[0].user = 0;
  queries[0].k = 5;
  queries[0].deadline_ms = -1.0;  // Unlimited.
  queries[1].user = 1;
  queries[1].k = 5;
  queries[1].deadline_ms = 5.0;  // Expires at the first boundary.
  queries[2].user = 2;
  queries[2].k = 5;
  queries[2].deadline_ms = 0.0;  // Non-positive = unlimited too.
  std::vector<Recommender::BatchQueryResult> results;
  Status status =
      recommender.TopKBatch(*loaded.value(), queries, 0, 0, 0, &results);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(results[1].items.empty());
  EXPECT_NE(results[1].status.message().find("10/30 items"),
            std::string::npos)
      << results[1].status.message();
  // Survivors finish with full scalar-identical rankings. The scalar
  // reference runs on a fresh unlimited-budget pass of the same data.
  Recommender unlimited;  // Real clock, no deadline pressure.
  for (int64_t q : {int64_t{0}, int64_t{2}}) {
    ASSERT_TRUE(results[q].status.ok());
    std::vector<ScoredItem> expected;
    ASSERT_TRUE(unlimited
                    .TopK(*loaded.value(), queries[q].user, queries[q].k,
                          -1.0, {}, &expected)
                    .ok());
    ASSERT_EQ(results[q].items.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[q].items[i].item, expected[i].item);
      EXPECT_EQ(results[q].items[i].score, expected[i].score);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 3. Service coalescing
// ---------------------------------------------------------------------------

constexpr int64_t kSvcUsers = 32;
constexpr int64_t kSvcItems = 96;
constexpr int64_t kSvcDim = 8;

std::string WriteServiceSnapshot(const char* name, int64_t version = 1) {
  const std::string path = TestTempPath(name);
  ShardedSnapshotOptions options;
  options.items_per_shard = 16;
  options.version = version;
  EXPECT_TRUE(WriteShardedSnapshot(path, MakeTable(kSvcUsers, kSvcDim, 0.125f),
                                   MakeTable(kSvcItems, kSvcDim, -0.125f),
                                   options)
                  .ok());
  return path;
}

TEST_F(BatchTest, ServiceCoalescesCompatibleQueuedRequests) {
  const std::string path = WriteServiceSnapshot("batch_svc_coalesce.snap");
  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;  // One worker: queued requests pile up behind it.
  options.queue_capacity = 64;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;  // No deadline pressure in this test.
  options.max_batch_size = 4;
  options.recommender.block_items = 8;  // Boundaries: slow-ops can engage.
  options.metrics = &metrics;
  RecService service(Fallback(kSvcUsers, kSvcItems), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Block the single worker inside a scoring pass, then queue more
  // requests while it is stuck: the next drain must take them as one
  // multi-user batch.
  FaultInjector::Instance().ArmSlowOps(1, 150.0);
  RecRequest blocker;
  blocker.user = 0;
  std::future<RecResponse> blocked = service.Submit(std::move(blocker));
  // Wait until the blocker has actually been dequeued (its queue wait is
  // recorded at dequeue time) so the follow-ups cannot join its batch.
  for (int spin = 0; spin < 2000; ++spin) {
    if (HistogramCount(metrics.Snapshot(), "serve_queue_wait_ms") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(HistogramCount(metrics.Snapshot(), "serve_queue_wait_ms"), 1);

  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    RecRequest request;
    request.user = (i + 1) % kSvcUsers;
    futures.push_back(service.Submit(std::move(request)));
  }
  ASSERT_TRUE(blocked.get().status.ok());
  std::vector<RecResponse> responses;
  for (std::future<RecResponse>& f : futures) responses.push_back(f.get());
  service.Shutdown();

  // Every coalesced response carries real scores identical to a scalar
  // reference pass over the same snapshot.
  auto snapshot = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(snapshot.ok());
  Recommender reference;
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_FALSE(responses[i].degraded);
    std::vector<ScoredItem> expected;
    ASSERT_TRUE(reference
                    .TopK(*snapshot.value(), (i + 1) % kSvcUsers, 5, -1.0, {},
                          &expected)
                    .ok());
    ASSERT_EQ(responses[i].items.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(responses[i].items[j].item, expected[j].item);
      EXPECT_EQ(responses[i].items[j].score, expected[j].score);
    }
  }

  MetricsSnapshot final_metrics = metrics.Snapshot();
  // The four queued requests drained as one batch of 4 (the blocker ran
  // alone before they arrived).
  EXPECT_EQ(HistogramMax(final_metrics, "serve_batch_size"), 4.0);
  EXPECT_EQ(final_metrics.CounterValue("serve_batched_requests_total"), 5);
  std::remove(path.c_str());
}

TEST_F(BatchTest, ShutdownWithQueuedBatchResolvesEveryFuture) {
  const std::string path = WriteServiceSnapshot("batch_svc_shutdown.snap");
  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.max_batch_size = 8;
  options.recommender.block_items = 8;  // Boundaries: slow-ops can engage.
  options.metrics = &metrics;
  RecService service(Fallback(kSvcUsers, kSvcItems), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Stall the worker, stack the queue, then shut down with the queue full:
  // every future must still resolve definite — kUnavailable for the
  // never-scored tail, OK for anything a drain got to first.
  FaultInjector::Instance().ArmSlowOps(1, 100.0);
  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    RecRequest request;
    request.user = i % kSvcUsers;
    futures.push_back(service.Submit(std::move(request)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.Shutdown();
  int64_t resolved = 0;
  for (std::future<RecResponse>& f : futures) {
    RecResponse response = f.get();  // Must not hang.
    EXPECT_TRUE(IsDefinite(response));
    ++resolved;
  }
  EXPECT_EQ(resolved, 12);

  // Accounting identity covers the cancelled tail exactly.
  MetricsSnapshot snapshot = metrics.Snapshot();
  const int64_t total = snapshot.CounterValue("serve_requests_total");
  EXPECT_EQ(total, 12);
  EXPECT_EQ(
      total,
      snapshot.CounterValue("serve_requests_ok_total") +
          snapshot.CounterValue("serve_requests_degraded_total") +
          snapshot.CounterValue("serve_requests_partial_degraded_total") +
          snapshot.CounterValue("serve_requests_shed_total") +
          snapshot.CounterValue("serve_requests_shed_queue_delay_total") +
          snapshot.CounterValue("serve_requests_shed_predicted_late_total") +
          snapshot.CounterValue("serve_requests_deadline_exceeded_total") +
          snapshot.CounterValue("serve_requests_invalid_total") +
          snapshot.CounterValue("serve_requests_error_total") +
          snapshot.CounterValue("serve_requests_cancelled_total"));
  std::remove(path.c_str());
}

TEST_F(BatchTest, HealthJsonReportsBatchConfiguration) {
  const std::string path = WriteServiceSnapshot("batch_svc_health.snap");
  RecServiceOptions options;
  options.num_workers = 1;
  options.max_batch_size = 4;
  options.recommender.block_items = 256;
  RecService service(Fallback(kSvcUsers, kSvcItems), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  const std::string health = service.HealthJson();
  EXPECT_NE(health.find("\"batching\":{\"max_batch_size\":4,"
                        "\"block_items\":256}"),
            std::string::npos)
      << health;
  service.Shutdown();
  std::remove(path.c_str());
}

TEST_F(BatchTest, AccountingIdentityExactWithBatchingUnderPublishChurn) {
  const std::string base_path =
      WriteServiceSnapshot("batch_chaos_base.snap", /*version=*/1);

  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;  // Tiny queue: queue-full sheds happen too.
  options.default_top_k = 5;
  options.default_deadline_ms = 25.0;
  options.max_batch_size = 8;  // Coalescing on, under the full chaos mix.
  options.recommender.block_items = 8;
  options.load_backoff.max_attempts = 2;
  options.load_backoff.initial_delay_ms = 0.1;
  options.sleep_ms = [](double) {};
  options.metrics = &metrics;
  options.overload.enabled = true;
  options.overload.target_ms = 0.5;
  options.overload.interval_ms = 5.0;
  options.overload.ladder_up_ms = 10.0;
  options.overload.ladder_down_ms = 20.0;
  RecService service(Fallback(kSvcUsers, kSvcItems), options);
  ASSERT_TRUE(service.LoadSnapshot(base_path).ok());

  OnlineUpdaterOptions updater_options;
  auto seeded = OnlineUpdater::FromSnapshot(base_path, {}, updater_options);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  std::unique_ptr<OnlineUpdater> updater = std::move(seeded.value());

  constexpr int kClients = 4;
  constexpr int kPerClient = 150;
  std::atomic<int64_t> indefinite{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &indefinite, &go, c] {
      while (!go.load()) std::this_thread::yield();
      std::vector<std::future<RecResponse>> futures;
      futures.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        RecRequest request;
        request.user = (c * kPerClient + i) % kSvcUsers;
        request.priority = (i % 3 == 0) ? RequestPriority::kBatch
                                        : RequestPriority::kInteractive;
        request.deadline_ms = (i % 4 == 0) ? 2.0 : 25.0;
        // A minority of ranged requests: they can only coalesce with
        // requests sharing the exact range, exercising the compatibility
        // cut at the drain.
        if (i % 5 == 0) {
          request.item_begin = 16;
          request.item_end = 80;
        }
        futures.push_back(service.Submit(std::move(request)));
      }
      for (std::future<RecResponse>& f : futures) {
        if (!IsDefinite(f.get())) ++indefinite;
      }
    });
  }

  go = true;
  // Mid-ramp churn: chained delta publishes and slow-op bursts while the
  // clients hammer the queue.
  int64_t next_edge = 0;
  for (int round = 0; round < 6; ++round) {
    FaultInjector::Instance().ArmSlowOps(40, 1.0);
    EdgeList batch;
    for (int e = 0; e < 4; ++e, ++next_edge) {
      batch.push_back(
          {next_edge % kSvcUsers, (next_edge / kSvcUsers) % kSvcItems});
    }
    ASSERT_TRUE(updater->AddInteractions(batch).ok());
    ASSERT_TRUE(updater->ApplyPending().ok());
    const std::string delta_path = TestTempPath(
        ("batch_chaos_" + std::to_string(round) + ".delta").c_str());
    ASSERT_TRUE(updater->PublishDelta(delta_path).ok());
    Status load = service.LoadDelta(delta_path);
    ASSERT_TRUE(load.ok()) << "round " << round << ": " << load.ToString();
    std::remove(delta_path.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // One full-snapshot reload mid-ramp (version past the delta chain's).
  {
    const std::string reload_path =
        WriteServiceSnapshot("batch_chaos_base.snap", /*version=*/100);
    ASSERT_TRUE(service.LoadSnapshot(reload_path).ok());
  }

  for (std::thread& c : clients) c.join();
  service.Shutdown();
  FaultInjector::Instance().Reset();

  EXPECT_EQ(indefinite.load(), 0);

  // The 10-outcome identity holds with equality, batching and all.
  MetricsSnapshot snapshot = metrics.Snapshot();
  const int64_t total = snapshot.CounterValue("serve_requests_total");
  EXPECT_EQ(total, kClients * kPerClient);
  EXPECT_EQ(
      total,
      snapshot.CounterValue("serve_requests_ok_total") +
          snapshot.CounterValue("serve_requests_degraded_total") +
          snapshot.CounterValue("serve_requests_partial_degraded_total") +
          snapshot.CounterValue("serve_requests_shed_total") +
          snapshot.CounterValue("serve_requests_shed_queue_delay_total") +
          snapshot.CounterValue("serve_requests_shed_predicted_late_total") +
          snapshot.CounterValue("serve_requests_deadline_exceeded_total") +
          snapshot.CounterValue("serve_requests_invalid_total") +
          snapshot.CounterValue("serve_requests_error_total") +
          snapshot.CounterValue("serve_requests_cancelled_total"));

  // Batched bookkeeping: every scored pass went through ProcessBatch, so
  // the per-drain size histogram accounts for every batched request.
  const int64_t batched =
      snapshot.CounterValue("serve_batched_requests_total");
  EXPECT_GT(batched, 0);
  EXPECT_GE(HistogramCount(snapshot, "serve_batch_size"), 1);
  EXPECT_GE(HistogramMax(snapshot, "serve_batch_size"), 1.0);
  EXPECT_LE(HistogramMax(snapshot, "serve_batch_size"), 8.0);

  const RecServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, snapshot.CounterValue("serve_requests_shed_total"));
  EXPECT_EQ(stats.shed_queue_delay,
            snapshot.CounterValue("serve_requests_shed_queue_delay_total"));
  EXPECT_EQ(
      stats.shed_predicted_late,
      snapshot.CounterValue("serve_requests_shed_predicted_late_total"));
  EXPECT_EQ(snapshot.CounterValue("serve_delta_publishes_total"), 6);
  std::remove(base_path.c_str());
}

}  // namespace
}  // namespace imcat
