// Unit tests for the fault-tolerant serving layer: snapshot loading and
// validation, deadline-aware top-k scoring, the popularity fallback, the
// circuit breaker state machine (driven by a fake clock), exponential
// backoff with jitter, and the RecService front end (request validation,
// load shedding, hot reload, degraded mode and recovery). Chaos-style
// concurrency tests live in serve_chaos_test.cc.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/circuit_breaker.h"
#include "serve/popularity.h"
#include "serve/rec_service.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "util/backoff.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

RecRequest Req(int64_t user, int64_t top_k = 0, double deadline_ms = 0.0) {
  RecRequest request;
  request.user = user;
  request.top_k = top_k;
  request.deadline_ms = deadline_ms;
  return request;
}

// Deterministic factor matrices: value depends on (row, col) only, so
// scores are reproducible across runs and reloads.
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

// Writes a valid serving snapshot (user table, item table) and returns its
// path.
std::string WriteSnapshot(const char* name, int64_t num_users,
                          int64_t num_items, int64_t dim) {
  const std::string path = TestTempPath(name);
  std::vector<Tensor> tensors;
  tensors.push_back(MakeTable(num_users, dim, 0.25f));
  tensors.push_back(MakeTable(num_items, dim, -0.5f));
  Status status = SaveCheckpoint(path, tensors);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// EmbeddingSnapshot

TEST_F(ServeTest, SnapshotRoundTripsFactorMatrices) {
  const std::string path = WriteSnapshot("snap_roundtrip.ckpt", 4, 6, 3);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_users(), 4);
  EXPECT_EQ(snapshot.num_items(), 6);
  EXPECT_EQ(snapshot.dim(), 3);
  // Score = inner product of the original table rows.
  Tensor users = MakeTable(4, 3, 0.25f);
  Tensor items = MakeTable(6, 3, -0.5f);
  for (int64_t u = 0; u < 4; ++u) {
    for (int64_t i = 0; i < 6; ++i) {
      float expected = 0.0f;
      for (int64_t d = 0; d < 3; ++d) {
        expected += users.data()[u * 3 + d] * items.data()[i * 3 + d];
      }
      EXPECT_EQ(snapshot.Score(u, i), expected) << "u=" << u << " i=" << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, SnapshotMissingFileFails) {
  auto loaded = EmbeddingSnapshot::Load(TestTempPath("snap_never_written.ckpt"));
  ASSERT_FALSE(loaded.ok());
}

TEST_F(ServeTest, SnapshotRejectsWrongTensorCount) {
  const std::string path = TestTempPath("snap_three_tensors.ckpt");
  std::vector<Tensor> tensors = {MakeTable(4, 3, 1.0f), MakeTable(6, 3, 1.0f),
                                 MakeTable(2, 3, 1.0f)};
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("exactly 2 tensors"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServeTest, SnapshotRejectsMismatchedEmbeddingDims) {
  const std::string path = TestTempPath("snap_dim_mismatch.ckpt");
  std::vector<Tensor> tensors = {MakeTable(4, 3, 1.0f), MakeTable(6, 2, 1.0f)};
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(ServeTest, SnapshotRejectsOnDiskCorruption) {
  const std::string path = WriteSnapshot("snap_corrupt.ckpt", 4, 6, 3);
  {
    // Flip one bit of tensor payload on disk; the checksum must catch it.
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(ServeTest, SnapshotInjectedLoadFailureSurfacesAsIoError) {
  const std::string path = WriteSnapshot("snap_injected.ckpt", 4, 6, 3);
  FaultInjector::Instance().ArmLoadFailures(1);
  auto first = EmbeddingSnapshot::Load(path);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kIoError);
  EXPECT_NE(first.status().message().find("injected"), std::string::npos);
  // The fault is consumed: the next load succeeds.
  auto second = EmbeddingSnapshot::Load(path);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  std::remove(path.c_str());
}

// Regression for the bounds-validated accessors: an out-of-range id from a
// request must become kInvalidArgument, never an out-of-bounds read of the
// factor matrices.
TEST_F(ServeTest, SnapshotValidatesIdsBeforeScoring) {
  const std::string path = WriteSnapshot("snap_bounds.ckpt", 4, 6, 3);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingSnapshot& snapshot = *loaded.value();

  EXPECT_TRUE(snapshot.ValidateUser(0).ok());
  EXPECT_TRUE(snapshot.ValidateUser(3).ok());
  EXPECT_EQ(snapshot.ValidateUser(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshot.ValidateUser(4).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(snapshot.ValidateItem(5).ok());
  EXPECT_EQ(snapshot.ValidateItem(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshot.ValidateItem(6).code(), StatusCode::kInvalidArgument);

  auto checked = snapshot.ScoreChecked(2, 5);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked.value(), snapshot.Score(2, 5));
  EXPECT_EQ(snapshot.ScoreChecked(-1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshot.ScoreChecked(0, 99).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PopularityRanker

TEST_F(ServeTest, PopularityRanksByDegreeThenId) {
  // Degrees: item 2 -> 3, item 0 -> 1, item 3 -> 1, item 1 -> 0.
  EdgeList train = {{0, 2}, {1, 2}, {2, 2}, {0, 0}, {1, 3}};
  PopularityRanker ranker(4, train);
  std::vector<ScoredItem> top;
  ranker.TopK(4, {}, &top);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].item, 2);
  EXPECT_EQ(top[0].score, 3.0f);
  EXPECT_EQ(top[1].item, 0);  // Tie with item 3 broken by id.
  EXPECT_EQ(top[2].item, 3);
  EXPECT_EQ(top[3].item, 1);
}

TEST_F(ServeTest, PopularityTopKExcludesAndClamps) {
  EdgeList train = {{0, 2}, {1, 2}, {0, 0}};
  PopularityRanker ranker(4, train);
  std::vector<ScoredItem> top;
  ranker.TopK(2, {2}, &top);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 0);
  EXPECT_EQ(top[1].item, 1);
  // k beyond the catalogue returns everything not excluded.
  ranker.TopK(100, {0, 1}, &top);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 2);
  EXPECT_EQ(top[1].item, 3);
}

// ---------------------------------------------------------------------------
// Recommender

TEST_F(ServeTest, RecommenderTopKMatchesBruteForce) {
  const std::string path = WriteSnapshot("rec_bruteforce.ckpt", 5, 37, 4);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  const EmbeddingSnapshot& snapshot = *loaded.value();
  RecommenderOptions options;
  options.block_items = 8;  // Force several blocks.
  Recommender recommender(options);
  for (int64_t user = 0; user < snapshot.num_users(); ++user) {
    std::vector<ScoredItem> top;
    ASSERT_TRUE(recommender
                    .TopK(snapshot, user, 10, /*deadline_ms=*/-1.0, {}, &top)
                    .ok());
    // Brute force: score everything, sort by (score desc, id asc).
    std::vector<ScoredItem> all;
    for (int64_t i = 0; i < snapshot.num_items(); ++i) {
      all.push_back({i, snapshot.Score(user, i)});
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredItem& a, const ScoredItem& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.item < b.item;
              });
    ASSERT_EQ(top.size(), 10u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].item, all[i].item) << "user " << user << " rank " << i;
      EXPECT_EQ(top[i].score, all[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, RecommenderHonoursExclusions) {
  const std::string path = WriteSnapshot("rec_exclude.ckpt", 3, 12, 4);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  Recommender recommender;
  std::vector<ScoredItem> unfiltered;
  ASSERT_TRUE(recommender
                  .TopK(*loaded.value(), 0, 3, -1.0, {}, &unfiltered)
                  .ok());
  const int64_t banned = unfiltered[0].item;
  std::vector<ScoredItem> filtered;
  ASSERT_TRUE(recommender
                  .TopK(*loaded.value(), 0, 3, -1.0, {banned}, &filtered)
                  .ok());
  ASSERT_EQ(filtered.size(), 3u);
  for (const ScoredItem& entry : filtered) {
    EXPECT_NE(entry.item, banned);
  }
  EXPECT_EQ(filtered[0].item, unfiltered[1].item);
  std::remove(path.c_str());
}

TEST_F(ServeTest, RecommenderDeadlineExceededBetweenBlocks) {
  const std::string path = WriteSnapshot("rec_deadline.ckpt", 2, 30, 4);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  // Fake clock: every reading advances 10 ms, so the budget is blown by
  // the first between-block check — no real sleeping, fully deterministic.
  double fake_now = 0.0;
  RecommenderOptions options;
  options.block_items = 10;
  options.now_ms = [&fake_now] { return fake_now += 10.0; };
  Recommender recommender(options);
  std::vector<ScoredItem> top;
  Status status = recommender.TopK(*loaded.value(), 0, 5, /*deadline_ms=*/5.0,
                                   {}, &top);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(top.empty());
  EXPECT_NE(status.message().find("10/30 items"), std::string::npos);

  // A non-positive deadline disables the budget even under the same clock.
  Status unlimited =
      recommender.TopK(*loaded.value(), 0, 5, /*deadline_ms=*/-1.0, {}, &top);
  EXPECT_TRUE(unlimited.ok()) << unlimited.ToString();
  EXPECT_EQ(top.size(), 5u);
  std::remove(path.c_str());
}

TEST_F(ServeTest, RecommenderValidatesUserAndK) {
  const std::string path = WriteSnapshot("rec_validate.ckpt", 3, 8, 2);
  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  Recommender recommender;
  std::vector<ScoredItem> top;
  EXPECT_EQ(recommender.TopK(*loaded.value(), -1, 3, -1.0, {}, &top).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(recommender.TopK(*loaded.value(), 3, 3, -1.0, {}, &top).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(recommender.TopK(*loaded.value(), 0, 0, -1.0, {}, &top).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST_F(ServeTest, BreakerTripsAtThresholdAndProbesAfterCooldown) {
  double fake_now = 0.0;
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown_ms = 100.0;
  CircuitBreaker breaker(options, [&fake_now] { return fake_now; });

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // Third consecutive failure trips it.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());

  fake_now = 99.0;  // Cooldown not yet elapsed.
  EXPECT_FALSE(breaker.AllowRequest());
  fake_now = 100.0;  // Cooldown elapsed: exactly one probe is admitted.
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());

  // Probe fails: back to open, a fresh cooldown starts at the new time.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  fake_now = 200.0;
  EXPECT_TRUE(breaker.AllowRequest());  // Next probe.
  breaker.RecordSuccess();              // Probe succeeds: closed again.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST_F(ServeTest, BreakerSuccessResetsFailureStreak) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options, [] { return 0.0; });
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  // Never three in a row, so still closed.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
}

TEST_F(ServeTest, BreakerClosesFromOpenOnOutOfBandSuccess) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.cooldown_ms = 1e9;  // Would stay open forever on its own.
  CircuitBreaker breaker(options, [] { return 0.0; });
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // A successful snapshot reload closes it without waiting for a probe.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST_F(ServeTest, BreakerStateNamesAreStable) {
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

// ---------------------------------------------------------------------------
// Backoff

TEST_F(ServeTest, BackoffProducesExactScheduleWithoutJitter) {
  BackoffOptions options;
  options.max_attempts = 5;
  options.initial_delay_ms = 1.0;
  options.multiplier = 2.0;
  options.max_delay_ms = 5.0;
  options.jitter = 0.0;
  Backoff backoff(options);
  EXPECT_TRUE(backoff.ShouldRetry());
  EXPECT_EQ(backoff.NextDelayMs(), 1.0);  // 1, 2, 4, then capped at 5.
  EXPECT_EQ(backoff.NextDelayMs(), 2.0);
  EXPECT_EQ(backoff.NextDelayMs(), 4.0);
  EXPECT_EQ(backoff.NextDelayMs(), 5.0);
  EXPECT_EQ(backoff.NextDelayMs(), 0.0);  // Fifth attempt is the last.
  EXPECT_FALSE(backoff.ShouldRetry());
  EXPECT_EQ(backoff.attempt(), 5);
}

TEST_F(ServeTest, BackoffJitterStaysWithinEnvelope) {
  BackoffOptions options;
  options.max_attempts = 16;
  options.initial_delay_ms = 10.0;
  options.multiplier = 2.0;
  options.max_delay_ms = 500.0;
  options.jitter = 0.5;
  options.seed = 77;
  Backoff backoff(options);
  double envelope = options.initial_delay_ms;
  for (int i = 0; i + 1 < options.max_attempts; ++i) {
    const double delay = backoff.NextDelayMs();
    EXPECT_GE(delay, envelope * 0.5) << "attempt " << i;
    EXPECT_LE(delay, envelope) << "attempt " << i;
    envelope = std::min(envelope * options.multiplier, options.max_delay_ms);
  }
}

TEST_F(ServeTest, BackoffIsDeterministicPerSeed) {
  BackoffOptions options;
  options.max_attempts = 8;
  options.jitter = 0.5;
  options.seed = 123;
  Backoff a(options);
  Backoff b(options);
  for (int i = 0; i + 1 < options.max_attempts; ++i) {
    EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs());
  }
}

// ---------------------------------------------------------------------------
// RecService

RecServiceOptions FastServiceOptions() {
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.default_top_k = 3;
  options.default_deadline_ms = -1.0;  // Tests opt in to deadlines.
  options.load_backoff.max_attempts = 1;
  options.sleep_ms = [](double) {};  // No real sleeping in retry loops.
  return options;
}

std::shared_ptr<const PopularityRanker> TestFallback() {
  // Degrees: item 2 -> 2, item 1 -> 1, items 0 and 3 -> 0.
  EdgeList train = {{0, 2}, {1, 2}, {0, 1}};
  return std::make_shared<PopularityRanker>(4, train);
}

TEST_F(ServeTest, ServiceServesDegradedPopularityWithoutSnapshot) {
  RecService service(TestFallback(), FastServiceOptions());
  RecResponse response = service.Recommend(Req(99));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.snapshot_version, 0);
  ASSERT_EQ(response.items.size(), 3u);
  EXPECT_EQ(response.items[0].item, 2);
  EXPECT_EQ(response.items[1].item, 1);
  EXPECT_EQ(response.items[2].item, 0);
  EXPECT_EQ(service.stats().served_degraded, 1);
}

TEST_F(ServeTest, ServiceRealPathMatchesDirectRecommender) {
  const std::string path = WriteSnapshot("svc_real.ckpt", 6, 40, 4);
  RecService service(TestFallback(), FastServiceOptions());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  RecResponse response =
      service.Recommend(Req(2, 7, -1.0));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.snapshot_version, 1);

  auto loaded = EmbeddingSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok());
  std::vector<ScoredItem> expected;
  ASSERT_TRUE(
      Recommender().TopK(*loaded.value(), 2, 7, -1.0, {}, &expected).ok());
  ASSERT_EQ(response.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response.items[i].item, expected[i].item);
    EXPECT_EQ(response.items[i].score, expected[i].score);
  }
  EXPECT_EQ(service.stats().served_real, 1);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceRejectsMalformedRequestsCleanly) {
  const std::string path = WriteSnapshot("svc_validate.ckpt", 6, 12, 4);
  RecService service(TestFallback(), FastServiceOptions());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  RecResponse negative = service.Recommend(Req(-4));
  EXPECT_EQ(negative.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status.message().find("negative user id"),
            std::string::npos);

  RecResponse unknown = service.Recommend(Req(6));
  EXPECT_EQ(unknown.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status.message().find("unknown user id"),
            std::string::npos);

  RecResponse bad_k = service.Recommend(Req(0, -2));
  EXPECT_EQ(bad_k.status.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(service.stats().invalid_requests, 3);
  EXPECT_TRUE(negative.items.empty());
  EXPECT_TRUE(unknown.items.empty());
  EXPECT_TRUE(bad_k.items.empty());
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceRejectsMalformedItemRanges) {
  const std::string path = WriteSnapshot("svc_range.ckpt", 6, 12, 4);
  RecService service(TestFallback(), FastServiceOptions());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  RecRequest negative_begin = Req(0, 3, -1.0);
  negative_begin.item_begin = -1;
  negative_begin.item_end = 4;
  EXPECT_EQ(service.Recommend(negative_begin).status.code(),
            StatusCode::kInvalidArgument);

  RecRequest empty_range = Req(0, 3, -1.0);
  empty_range.item_begin = 4;
  empty_range.item_end = 4;
  EXPECT_EQ(service.Recommend(empty_range).status.code(),
            StatusCode::kInvalidArgument);

  RecRequest past_catalogue = Req(0, 3, -1.0);
  past_catalogue.item_end = 13;
  RecResponse rejected = service.Recommend(past_catalogue);
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status.message().find("item range"), std::string::npos);
  EXPECT_EQ(service.stats().invalid_requests, 3);

  // A well-formed sub-range serves normally and stays inside the range.
  RecRequest ranged = Req(1, 3, -1.0);
  ranged.item_begin = 4;
  ranged.item_end = 8;
  RecResponse response = service.Recommend(ranged);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.partial_degraded);
  ASSERT_EQ(response.items.size(), 3u);
  for (const ScoredItem& item : response.items) {
    EXPECT_GE(item.item, 4);
    EXPECT_LT(item.item, 8);
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceLoadRetriesWithBackoffUntilSuccess) {
  const std::string path = WriteSnapshot("svc_retry.ckpt", 4, 10, 2);
  RecServiceOptions options = FastServiceOptions();
  options.load_backoff.max_attempts = 3;
  options.load_backoff.jitter = 0.0;
  std::vector<double> slept;
  options.sleep_ms = [&slept](double ms) { slept.push_back(ms); };
  RecService service(TestFallback(), options);

  // The first two load attempts fail with injected errors; the third wins.
  FaultInjector::Instance().ArmLoadFailures(2);
  Status status = service.LoadSnapshot(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], options.load_backoff.initial_delay_ms);
  EXPECT_EQ(slept[1], options.load_backoff.initial_delay_ms * 2.0);
  EXPECT_EQ(service.stats().snapshot_reloads, 1);
  EXPECT_EQ(service.stats().snapshot_load_failures, 0);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceLoadGivesUpAfterMaxAttempts) {
  RecServiceOptions options = FastServiceOptions();
  options.load_backoff.max_attempts = 2;
  RecService service(TestFallback(), options);
  FaultInjector::Instance().ArmLoadFailures(100);
  Status status = service.LoadSnapshot(TestTempPath("svc_gone.ckpt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("after 2 attempts"), std::string::npos);
  EXPECT_EQ(service.stats().snapshot_load_failures, 1);
  // Exactly max_attempts loads were tried.
  EXPECT_EQ(FaultInjector::Instance().faults_fired(), 2);
}

TEST_F(ServeTest, ServiceDeadlineExceededIsDefiniteAndCounted) {
  const std::string path = WriteSnapshot("svc_deadline.ckpt", 4, 64, 4);
  RecServiceOptions options = FastServiceOptions();
  options.recommender.block_items = 8;
  RecService service(TestFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Injected stalls between scoring blocks blow a 1 ms budget.
  FaultInjector::Instance().ArmSlowOps(4, 5.0);
  RecResponse slow =
      service.Recommend(Req(1, 0, 1.0));
  EXPECT_EQ(slow.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(slow.items.empty());
  EXPECT_EQ(service.stats().deadline_exceeded, 1);

  // Once the stalls are consumed the same request succeeds.
  FaultInjector::Instance().Reset();
  RecResponse fast =
      service.Recommend(Req(1, 0, -1.0));
  EXPECT_TRUE(fast.status.ok()) << fast.status.ToString();
  EXPECT_FALSE(fast.degraded);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceShedsLoadWhenQueueIsFull) {
  const std::string path = WriteSnapshot("svc_shed.ckpt", 4, 24, 4);
  RecServiceOptions options = FastServiceOptions();
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.recommender.block_items = 1;
  RecService service(TestFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Each request stalls ~115 ms (23 between-block polls at 5 ms), so the
  // single worker cannot drain the burst: at most 1 in flight + 2 queued
  // are admitted and the rest are shed immediately.
  FaultInjector::Instance().ArmSlowOps(1000, 5.0);
  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service.Submit(Req(0, 0, -1.0)));
  }
  int64_t ok_count = 0;
  int64_t shed_count = 0;
  for (auto& future : futures) {
    RecResponse response = future.get();  // Every future resolves.
    if (response.status.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(response.status.message().find("load shed"),
                std::string::npos);
      ++shed_count;
    }
  }
  EXPECT_GE(shed_count, 1);
  EXPECT_EQ(ok_count + shed_count, 8);
  const RecServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, shed_count);
  EXPECT_EQ(stats.accepted, ok_count);
  FaultInjector::Instance().Reset();
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceHotReloadKeepsOldSnapshotAlive) {
  const std::string path = WriteSnapshot("svc_reload.ckpt", 4, 10, 2);
  RecService service(TestFallback(), FastServiceOptions());
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  std::shared_ptr<const EmbeddingSnapshot> old_snapshot = service.snapshot();
  ASSERT_NE(old_snapshot, nullptr);
  EXPECT_EQ(old_snapshot->version(), 1);

  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  std::shared_ptr<const EmbeddingSnapshot> new_snapshot = service.snapshot();
  EXPECT_NE(old_snapshot.get(), new_snapshot.get());
  EXPECT_EQ(new_snapshot->version(), 2);
  // A request "in flight" across the swap still scores against its copy.
  EXPECT_EQ(old_snapshot->Score(0, 0), new_snapshot->Score(0, 0));
  EXPECT_EQ(old_snapshot->num_items(), 10);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceFailedReloadKeepsServingOldSnapshot) {
  const std::string path = WriteSnapshot("svc_keep_old.ckpt", 4, 10, 2);
  RecServiceOptions options = FastServiceOptions();
  options.breaker.failure_threshold = 100;  // Stay closed for this test.
  RecService service(TestFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  FaultInjector::Instance().ArmLoadFailures(1);
  ASSERT_FALSE(service.LoadSnapshot(path).ok());
  // The previous snapshot is still published and requests stay real.
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.snapshot()->version(), 1);
  RecResponse response =
      service.Recommend(Req(0, 0, -1.0));
  EXPECT_TRUE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceBreakerTripsToDegradedAndRecovers) {
  const std::string path = WriteSnapshot("svc_degrade.ckpt", 4, 10, 2);
  RecServiceOptions options = FastServiceOptions();
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 1e9;  // Recovery must come from the reload.
  RecService service(TestFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Two failed reloads trip the breaker.
  FaultInjector::Instance().ArmLoadFailures(2);
  ASSERT_FALSE(service.LoadSnapshot(path).ok());
  ASSERT_FALSE(service.LoadSnapshot(path).ok());
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);

  // The snapshot is fine, but the open breaker forces the fallback.
  RecResponse degraded =
      service.Recommend(Req(0, 0, -1.0));
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.snapshot_version, 0);

  // A successful reload closes the breaker and real serving resumes.
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
  RecResponse real =
      service.Recommend(Req(0, 0, -1.0));
  ASSERT_TRUE(real.status.ok());
  EXPECT_FALSE(real.degraded);
  EXPECT_EQ(real.snapshot_version, 2);
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceShutdownResolvesQueuedRequestsToUnavailable) {
  // The Shutdown contract: requests admitted to the queue but not yet
  // processed when Shutdown() runs resolve to kUnavailable — their futures
  // are satisfied, never hung, never dropped.
  const std::string path = WriteSnapshot("svc_shutdown_queue.ckpt", 4, 24, 4);
  RecServiceOptions options = FastServiceOptions();
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.recommender.block_items = 1;
  RecService service(TestFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Stall scoring (23 between-block polls at 5 ms each) so the burst is
  // still queued behind the single worker when Shutdown lands. Submitting
  // exactly queue_capacity requests guarantees admission even if the
  // worker has not dequeued the first one yet.
  FaultInjector::Instance().ArmSlowOps(1000, 5.0);
  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit(Req(0, 0, -1.0)));
  }
  EXPECT_EQ(service.stats().accepted, 4);
  service.Shutdown();

  int64_t served = 0;
  int64_t cancelled = 0;
  for (auto& future : futures) {
    RecResponse response = future.get();  // Must never hang.
    if (response.status.ok()) {
      ++served;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(response.status.message().find("shut down"),
                std::string::npos);
      ++cancelled;
    }
  }
  EXPECT_EQ(served + cancelled, 4);
  // The worker holds one request for >100 ms; Shutdown lands long before
  // it could drain the queue, so queued requests were cancelled.
  EXPECT_GE(cancelled, 1);
  FaultInjector::Instance().Reset();
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServiceShutdownIsIdempotentAndDefinite) {
  RecService service(TestFallback(), FastServiceOptions());
  service.Shutdown();
  service.Shutdown();  // Idempotent.
  RecResponse response = service.Recommend(Req(0));
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status.message().find("shut down"), std::string::npos);
}

// One fixed request sequence on a fake clock, covering the degraded, ok,
// invalid, deadline-exceeded, cancelled-at-shutdown and shed outcomes plus
// the snapshot and delta load outcomes. `submitted` counts every request.
struct AccountingRun {
  std::unique_ptr<RecService> service;
  int64_t submitted = 0;
};

AccountingRun RunAccountingSequence(const std::string& snapshot_path,
                                    MetricsRegistry* metrics) {
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    double now = 0.0;
    bool armed = false;
    bool entered = false;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  const std::thread::id main_thread = std::this_thread::get_id();
  RecServiceOptions options = FastServiceOptions();
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.recommender.block_items = 2;
  options.metrics = metrics;
  // Every reading advances 10 ms. While armed, the first reading off the
  // test thread — the worker starting a batch — parks until the gate opens.
  options.now_ms = [gate, main_thread] {
    std::unique_lock<std::mutex> lock(gate->mu);
    if (gate->armed && std::this_thread::get_id() != main_thread) {
      gate->armed = false;
      gate->entered = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&gate] { return gate->open; });
    }
    return gate->now += 10.0;
  };
  AccountingRun run;
  run.service = std::make_unique<RecService>(TestFallback(), options);
  RecService& service = *run.service;
  auto submit = [&run](RecRequest request) {
    ++run.submitted;
    return run.service->Submit(std::move(request));
  };

  EXPECT_EQ(service.LoadDelta(TestTempPath("acct_missing.imd3")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(submit(Req(0)).get().degraded);
  EXPECT_FALSE(service.LoadSnapshot(TestTempPath("acct_missing.ckpt")).ok());
  EXPECT_TRUE(service.LoadSnapshot(snapshot_path).ok());
  EXPECT_TRUE(submit(Req(1, 3, -1.0)).get().status.ok());
  EXPECT_EQ(submit(Req(-1)).get().status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(submit(Req(1, 3, 5.0)).get().status.code(),
            StatusCode::kDeadlineExceeded);

  // A parks the only worker at the gate; B and C then fill the queue.
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->armed = true;
  }
  std::vector<std::future<RecResponse>> futures;
  futures.push_back(submit(Req(1, 3, -1.0)));
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&gate] { return gate->entered; });
  }
  futures.push_back(submit(Req(2, 3, -1.0)));
  futures.push_back(submit(Req(3, 3, -1.0)));
  std::thread shutdown([&service] { service.Shutdown(); });
  // Probes are shed as queue-full until Shutdown has stopped admission;
  // only then may A finish, so the worker exits without taking B or C.
  while (true) {
    const RecResponse probe = submit(Req(0)).get();
    EXPECT_EQ(probe.status.code(), StatusCode::kUnavailable);
    if (probe.status.message().find("shut down") != std::string::npos) break;
  }
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  shutdown.join();
  EXPECT_TRUE(futures[0].get().status.ok());
  for (size_t i = 1; i < futures.size(); ++i) {
    const RecResponse cancelled = futures[i].get();
    EXPECT_EQ(cancelled.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(cancelled.status.message().find("shut down"), std::string::npos);
  }
  return run;
}

TEST_F(ServeTest, ServiceStatsAreTheSameWithOrWithoutAnInjectedRegistry) {
  // stats() is the only accounting a service without an injected registry
  // exposes; it must count exactly what an injected registry counts.
  const std::string path = WriteSnapshot("svc_accounting.ckpt", 4, 12, 4);
  MetricsRegistry registry;
  AccountingRun injected = RunAccountingSequence(path, &registry);
  AccountingRun own = RunAccountingSequence(path, nullptr);
  // The number of shutdown probes depends on the schedule: pad the shorter
  // run with post-shutdown requests, each shed like a probe.
  for (AccountingRun* run : {&injected, &own}) {
    const int64_t target = std::max(injected.submitted, own.submitted);
    while (run->submitted < target) {
      ++run->submitted;
      EXPECT_EQ(run->service->Recommend(Req(0)).status.code(),
                StatusCode::kUnavailable);
    }
  }

  const RecServiceStats a = injected.service->stats();
  const RecServiceStats b = own.service->stats();
  const std::pair<const char*, int64_t RecServiceStats::*> fields[] = {
      {"accepted", &RecServiceStats::accepted},
      {"shed", &RecServiceStats::shed},
      {"shed_queue_delay", &RecServiceStats::shed_queue_delay},
      {"shed_predicted_late", &RecServiceStats::shed_predicted_late},
      {"brownout_transitions", &RecServiceStats::brownout_transitions},
      {"served_real", &RecServiceStats::served_real},
      {"served_degraded", &RecServiceStats::served_degraded},
      {"served_partial_degraded", &RecServiceStats::served_partial_degraded},
      {"deadline_exceeded", &RecServiceStats::deadline_exceeded},
      {"invalid_requests", &RecServiceStats::invalid_requests},
      {"snapshot_reloads", &RecServiceStats::snapshot_reloads},
      {"snapshot_load_failures", &RecServiceStats::snapshot_load_failures},
      {"rejected_publishes", &RecServiceStats::rejected_publishes},
      {"staleness_trips", &RecServiceStats::staleness_trips},
      {"delta_publishes", &RecServiceStats::delta_publishes},
      {"rejected_deltas", &RecServiceStats::rejected_deltas},
  };
  for (const auto& [name, field] : fields) {
    EXPECT_EQ(a.*field, b.*field) << name;
  }
  EXPECT_EQ(a.accepted, 7);  // 4 served + A + cancelled B and C.
  EXPECT_EQ(a.accepted + a.shed, injected.submitted);
  EXPECT_EQ(b.accepted + b.shed, own.submitted);
  EXPECT_EQ(a.served_real, 2);
  EXPECT_EQ(a.served_degraded, 1);
  EXPECT_EQ(a.invalid_requests, 1);
  EXPECT_EQ(a.deadline_exceeded, 1);
  EXPECT_EQ(a.snapshot_reloads, 1);
  EXPECT_EQ(a.snapshot_load_failures, 1);
  EXPECT_EQ(a.rejected_deltas, 1);
  const MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_EQ(metrics.CounterValue("serve_requests_total"), injected.submitted);
  EXPECT_EQ(metrics.CounterValue("serve_requests_cancelled_total"), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imcat
