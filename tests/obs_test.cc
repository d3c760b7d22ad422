// Tests for the observability layer (DESIGN.md §9): histogram percentile
// correctness against a sorted-vector ground truth, exact counter and
// bucket merging across threads (deterministic snapshots under a
// ThreadPool), journal append atomicity under injected write faults, the
// exporters, and end-to-end instrumentation smoke tests for the pool, the
// serving layer and the trainer.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/trainer.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

/// Deterministic positive test values spanning several orders of
/// magnitude (the regime of real latency distributions).
std::vector<double> LatencyLikeValues(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // 10^[-2, 3): 10 microseconds to a second, log-uniform-ish.
    const double exponent = rng.Uniform() * 5.0 - 2.0;
    values.push_back(std::pow(10.0, exponent));
  }
  return values;
}

/// Nearest-rank percentile over a sorted copy — the ground truth the
/// bucketed estimate is checked against.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return values[static_cast<size_t>(rank - 1)];
}

// --- Counter / gauge ------------------------------------------------------

TEST(CounterTest, ExactUnderConcurrentIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  ThreadPoolOptions popts;
  popts.num_threads = kThreads;
  ThreadPool pool(popts);
  Status st = pool.ParallelFor(0, kThreads * kPerThread,
                               [&](int64_t) { counter->Increment(); });
  ASSERT_TRUE(st.ok());
  counter->Add(5);
  // ParallelFor joins all helpers, so the relaxed shard adds are fully
  // synchronised with this read: the merged value is exact.
  EXPECT_EQ(counter->value(), kThreads * kPerThread + 5);
}

TEST(GaugeTest, SetAndAddAreLastValueConsistent) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, BucketIndexAndValueAreConsistent) {
  // Non-positive and tiny values underflow to bucket 0; enormous values
  // land in the overflow bucket; everything else round-trips through its
  // representative value.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  for (int b = 1; b < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketValue(b)), b)
        << "bucket " << b;
  }
  // Bucket boundaries are monotone.
  for (int b = 2; b < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_LT(Histogram::BucketValue(b - 1), Histogram::BucketValue(b));
  }
}

TEST(HistogramTest, PercentilesMatchSortedVectorGroundTruth) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h");
  const std::vector<double> values = LatencyLikeValues(20000, 17);
  for (double v : values) histogram->Record(v);

  HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, static_cast<int64_t>(values.size()));
  EXPECT_DOUBLE_EQ(snapshot.min, *std::min_element(values.begin(),
                                                   values.end()));
  EXPECT_DOUBLE_EQ(snapshot.max, *std::max_element(values.begin(),
                                                   values.end()));

  // Bucket relative width is 2^(1/8) - 1 ≈ 9.05%; the geometric-midpoint
  // estimate is therefore within ~4.5% of the true order statistic. Allow
  // 10% for slack at bucket edges.
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = snapshot.Quantile(q);
    EXPECT_NEAR(estimate, exact, exact * 0.10)
        << "quantile " << q << ": exact=" << exact
        << " estimate=" << estimate;
  }
  EXPECT_DOUBLE_EQ(snapshot.p50, snapshot.Quantile(0.5));
  EXPECT_DOUBLE_EQ(snapshot.p90, snapshot.Quantile(0.9));
  EXPECT_DOUBLE_EQ(snapshot.p99, snapshot.Quantile(0.99));
  // Percentile estimates are clamped into the exact [min, max] envelope.
  EXPECT_GE(snapshot.p50, snapshot.min);
  EXPECT_LE(snapshot.p99, snapshot.max);
}

TEST(HistogramTest, CrossThreadMergeIsDeterministic) {
  // The same multiset of values recorded under different thread counts
  // must merge to identical bucket counts, count, min, max and percentile
  // estimates (integer merge; percentiles are a pure function of buckets).
  const std::vector<double> values = LatencyLikeValues(8192, 23);

  auto record_with_threads = [&](int64_t num_threads) {
    auto registry = std::make_unique<MetricsRegistry>();
    Histogram* histogram = registry->GetHistogram("h");
    if (num_threads <= 1) {
      for (double v : values) histogram->Record(v);
    } else {
      ThreadPoolOptions popts;
      popts.num_threads = num_threads;
      ThreadPool pool(popts);
      Status st = pool.ParallelFor(
          0, static_cast<int64_t>(values.size()),
          [&](int64_t i) { histogram->Record(values[static_cast<size_t>(i)]); });
      EXPECT_TRUE(st.ok());
    }
    return histogram->Snapshot();
  };

  const HistogramSnapshot serial = record_with_threads(1);
  for (int64_t threads : {2, 4, 8}) {
    const HistogramSnapshot parallel = record_with_threads(threads);
    EXPECT_EQ(parallel.count, serial.count) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.min, serial.min) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.max, serial.max) << threads << " threads";
    ASSERT_EQ(parallel.buckets.size(), serial.buckets.size());
    for (size_t b = 0; b < serial.buckets.size(); ++b) {
      ASSERT_EQ(parallel.buckets[b], serial.buckets[b])
          << threads << " threads, bucket " << b;
    }
    EXPECT_DOUBLE_EQ(parallel.p50, serial.p50) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.p90, serial.p90) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.p99, serial.p99) << threads << " threads";
    // The sum is a double reduction whose addition order depends on which
    // shard each thread landed in — near-equal, not bit-equal.
    EXPECT_NEAR(parallel.sum, serial.sum, std::abs(serial.sum) * 1e-9);
  }
}

TEST(ScopedTimerTest, RecordsElapsedAndNullDisables) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("t");
  { ScopedTimer timer(histogram); }
  EXPECT_EQ(histogram->Snapshot().count, 1);
  { ScopedTimer disabled(nullptr); }  // Must not crash or record anywhere.
  EXPECT_EQ(histogram->Snapshot().count, 1);
}

// --- Registry -------------------------------------------------------------

TEST(RegistryTest, HandlesAreStableAndSnapshotIsSorted) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("zeta_total");
  Gauge* g = registry.GetGauge("alpha_depth");
  Histogram* h = registry.GetHistogram("mid_ms");
  // Same name => same handle, across interleaved registrations.
  EXPECT_EQ(registry.GetCounter("zeta_total"), a);
  EXPECT_EQ(registry.GetGauge("alpha_depth"), g);
  EXPECT_EQ(registry.GetHistogram("mid_ms"), h);

  a->Add(7);
  g->Set(3.0);
  h->Record(1.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "zeta_total");
  EXPECT_EQ(snapshot.CounterValue("zeta_total"), 7);
  EXPECT_EQ(snapshot.CounterValue("missing"), 0);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 3.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1);
}

TEST(RegistryTest, ConcurrentRegistrationYieldsOneHandlePerName) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  ThreadPoolOptions popts;
  popts.num_threads = kThreads;
  ThreadPool pool(popts);
  Status st = pool.ParallelFor(0, kThreads, [&](int64_t i) {
    handles[static_cast<size_t>(i)] = registry.GetCounter("shared_total");
    handles[static_cast<size_t>(i)]->Increment();
  });
  ASSERT_TRUE(st.ok());
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(handles[i], handles[0]);
  EXPECT_EQ(registry.Snapshot().CounterValue("shared_total"), kThreads);
}

// --- Exporters ------------------------------------------------------------

TEST(ExporterTest, PrometheusTextRendersAllKindsAndLabels) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Add(3);
  registry.GetCounter("ingest_errors_total{class=\"bad-column-count\"}")
      ->Add(2);
  registry.GetGauge("queue_depth")->Set(4.0);
  Histogram* h = registry.GetHistogram("latency_ms");
  h->Record(1.0);
  h->Record(2.0);

  const std::string text = DumpPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  // Labelled counters: the TYPE line uses the base name, the sample line
  // keeps the label block.
  EXPECT_NE(text.find("# TYPE ingest_errors_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("ingest_errors_total{class=\"bad-column-count\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("latency_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_sum 3"), std::string::npos);
}

TEST(ExporterTest, JsonDumpContainsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("c_total")->Add(9);
  registry.GetGauge("g")->Set(-2.5);
  registry.GetHistogram("h_ms")->Record(4.0);
  const std::string json = DumpJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\":9"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-2.5"), std::string::npos);
  EXPECT_NE(json.find("\"h_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ExporterTest, WriteMetricsFilePicksFormatByExtension) {
  MetricsRegistry registry;
  registry.GetCounter("x_total")->Add(1);
  const std::string prom_path = TestTempPath("obs_metrics.prom");
  const std::string json_path = TestTempPath("obs_metrics.json");
  ASSERT_TRUE(WriteMetricsFile(registry, prom_path).ok());
  ASSERT_TRUE(WriteMetricsFile(registry, json_path).ok());
  std::stringstream prom, json;
  prom << std::ifstream(prom_path).rdbuf();
  json << std::ifstream(json_path).rdbuf();
  EXPECT_NE(prom.str().find("# TYPE x_total counter"), std::string::npos);
  EXPECT_EQ(json.str().rfind("{", 0), 0u);
  EXPECT_NE(json.str().find("\"x_total\":1"), std::string::npos);
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

// --- Journal --------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JournalTest, AppendsValidJsonlWithSequenceNumbers) {
  const std::string path = TestTempPath("obs_journal_basic.jsonl");
  std::remove(path.c_str());
  {
    RunJournal journal(path);
    journal.Append(JournalEvent("epoch")
                       .Set("epoch", 1)
                       .Set("loss", 0.5)
                       .Set("name", std::string("a\"b\nc"))
                       .Set("ok", true));
    journal.Append(JournalEvent("rollback").Set("reason", "nan loss"));
    ASSERT_TRUE(journal.Flush().ok());
    EXPECT_EQ(journal.events_appended(), 2);
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  // Escaping: the quote and newline are encoded, never written raw.
  EXPECT_NE(lines[0].find("a\\\"b\\nc"), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"rollback\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, AutoFlushEveryNAppends) {
  const std::string path = TestTempPath("obs_journal_autoflush.jsonl");
  std::remove(path.c_str());
  RunJournal::Options options;
  options.flush_every = 3;
  RunJournal journal(path, options);
  journal.Append(JournalEvent("a"));
  journal.Append(JournalEvent("b"));
  EXPECT_TRUE(ReadLines(path).empty());  // Below the threshold: buffered.
  journal.Append(JournalEvent("c"));     // Third append flushes.
  EXPECT_EQ(ReadLines(path).size(), 3u);
  std::remove(path.c_str());
}

TEST(JournalTest, InjectedWriteFaultLeavesPreviousJournalIntact) {
  // The atomicity contract: a flush that dies mid-write (injected stream
  // failure inside AtomicFileWriter) must leave the previous complete
  // JSONL on disk — never a torn file — and the buffered events must
  // survive for the next flush.
  FaultInjector::Instance().Reset();
  const std::string path = TestTempPath("obs_journal_atomic.jsonl");
  std::remove(path.c_str());

  RunJournal::Options options;
  options.flush_every = 0;  // Explicit flushes only.
  RunJournal journal(path, options);
  journal.Append(JournalEvent("healthy").Set("n", 1));
  journal.Append(JournalEvent("healthy").Set("n", 2));
  ASSERT_TRUE(journal.Flush().ok());
  const std::vector<std::string> before = ReadLines(path);
  ASSERT_EQ(before.size(), 2u);

  journal.Append(JournalEvent("doomed").Set("n", 3));
  FaultInjector::Instance().ArmWriteFailure(/*after_bytes=*/10);
  Status failed = journal.Flush();
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(journal.last_flush_status().ok());
  // On-disk journal is exactly the previous complete document.
  EXPECT_EQ(ReadLines(path), before);

  // Fault cleared: the retained buffer (all three events) flushes whole.
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(journal.Flush().ok());
  EXPECT_TRUE(journal.last_flush_status().ok());
  const std::vector<std::string> after = ReadLines(path);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_NE(after[2].find("\"event\":\"doomed\""), std::string::npos);
  EXPECT_NE(after[2].find("\"seq\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, AppendNeverFailsEvenWhenFlushCannot) {
  // Journalling must never take down the instrumented subsystem: appends
  // into an unwritable location succeed, the error is surfaced only
  // through last_flush_status.
  RunJournal::Options options;
  options.flush_every = 1;
  RunJournal journal("/nonexistent-dir/obs.jsonl", options);
  journal.Append(JournalEvent("lost"));
  EXPECT_EQ(journal.events_appended(), 1);
  EXPECT_FALSE(journal.last_flush_status().ok());
}

// --- ThreadPool instrumentation ------------------------------------------

TEST(PoolMetricsTest, RunAndCancelAccountingIsExact) {
  MetricsRegistry registry;
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  auto pool = std::make_unique<ThreadPool>([&] {
    ThreadPoolOptions options;
    options.num_threads = 1;
    options.queue_capacity = 16;
    options.metrics = &registry;
    options.metrics_prefix = "pool";
    return options;
  }());

  // First task blocks the single worker so the rest stay queued; shutdown
  // then cancels them. run + cancelled must equal the admitted count.
  Status st = pool->Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(st.ok());
  {
    // Wait for the worker to actually dequeue the blocker; otherwise
    // Shutdown could cancel all seven tasks before any of them runs.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  constexpr int kQueued = 6;
  for (int i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(pool->Submit([] {}, [] {}).ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool->Shutdown();

  MetricsSnapshot snapshot = registry.Snapshot();
  const int64_t run = snapshot.CounterValue("pool_tasks_run_total");
  const int64_t cancelled =
      snapshot.CounterValue("pool_tasks_cancelled_total");
  EXPECT_EQ(run + cancelled, 1 + kQueued);
  EXPECT_GE(run, 1);  // The blocker itself always runs.
  // Queue-wait samples exist for every task that ran; depth gauge is back
  // to zero after shutdown.
  bool found_wait = false, found_depth = false;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name == "pool_queue_wait_ms") {
      found_wait = true;
      EXPECT_EQ(hist.count, run);
      EXPECT_GE(hist.min, 0.0);
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "pool_queue_depth") {
      found_depth = true;
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
  EXPECT_TRUE(found_wait);
  EXPECT_TRUE(found_depth);
}

// --- RecService instrumentation ------------------------------------------

Tensor ServeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      values[static_cast<size_t>(r * cols + c)] =
          scale * static_cast<float>((r * 7 + c * 3) % 11 - 5);
    }
  }
  return Tensor(rows, cols, std::move(values));
}

TEST(ServiceMetricsTest, RequestAccountingIdentityHoldsAfterResolution) {
  constexpr int64_t kUsers = 12, kItems = 30, kDim = 4;
  const std::string path = TestTempPath("obs_service_snapshot.ckpt");
  {
    std::vector<Tensor> tensors;
    tensors.push_back(ServeTable(kUsers, kDim, 0.25f));
    tensors.push_back(ServeTable(kItems, kDim, -0.5f));
    ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  }
  EdgeList train;
  for (int64_t u = 0; u < kUsers; ++u) train.push_back({u, u % kItems});
  auto fallback = std::make_shared<PopularityRanker>(kItems, train);

  MetricsRegistry registry;
  RunJournal journal(TestTempPath("obs_service_journal.jsonl"));
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.default_top_k = 3;
  options.default_deadline_ms = -1.0;
  options.metrics = &registry;
  options.journal = &journal;
  {
    RecService service(fallback, options);
    // Degraded (no snapshot yet), then real scores, invalid ids, reloads.
    RecRequest degraded_req;
    degraded_req.user = 1;
    EXPECT_TRUE(service.Recommend(degraded_req).degraded);
    ASSERT_TRUE(service.LoadSnapshot(path).ok());
    for (int64_t u = 0; u < kUsers; ++u) {
      RecRequest request;
      request.user = u;
      RecResponse response = service.Recommend(request);
      EXPECT_TRUE(response.status.ok());
      EXPECT_FALSE(response.degraded);
    }
    RecRequest invalid;
    invalid.user = -4;
    EXPECT_FALSE(service.Recommend(invalid).status.ok());
    EXPECT_FALSE(service.LoadSnapshot(TestTempPath("missing.ckpt")).ok());
  }  // Shutdown resolves everything before the registry is read.

  MetricsSnapshot snapshot = registry.Snapshot();
  const int64_t total = snapshot.CounterValue("serve_requests_total");
  const int64_t accounted =
      snapshot.CounterValue("serve_requests_ok_total") +
      snapshot.CounterValue("serve_requests_degraded_total") +
      snapshot.CounterValue("serve_requests_shed_total") +
      snapshot.CounterValue("serve_requests_shed_queue_delay_total") +
      snapshot.CounterValue("serve_requests_shed_predicted_late_total") +
      snapshot.CounterValue("serve_requests_deadline_exceeded_total") +
      snapshot.CounterValue("serve_requests_invalid_total") +
      snapshot.CounterValue("serve_requests_error_total") +
      snapshot.CounterValue("serve_requests_cancelled_total");
  EXPECT_EQ(total, accounted);
  EXPECT_EQ(total, kUsers + 2);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_ok_total"), kUsers);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_degraded_total"), 1);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_invalid_total"), 1);
  EXPECT_EQ(snapshot.CounterValue("serve_snapshot_reloads_total"), 1);
  EXPECT_EQ(snapshot.CounterValue("serve_snapshot_load_failures_total"), 1);

  // The journal saw both snapshot_reload outcomes.
  ASSERT_TRUE(journal.Flush().ok());
  const std::vector<std::string> lines = ReadLines(journal.path());
  int64_t reload_events = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"snapshot_reload\"") != std::string::npos) {
      ++reload_events;
    }
  }
  EXPECT_EQ(reload_events, 2);
  std::remove(path.c_str());
  std::remove(journal.path().c_str());
}

// --- Trainer + evaluator instrumentation ---------------------------------

/// Minimal trainable model: one parameter, constant loss, fixed scores.
class ObsFakeModel : public TrainableModel {
 public:
  ObsFakeModel() : parameter_(1, 1, true) {}
  double TrainStep(Rng* rng) override {
    (void)rng;
    ++steps_;
    return 0.25;
  }
  int64_t StepsPerEpoch() const override { return 4; }
  std::vector<Tensor> Parameters() override { return {parameter_}; }
  std::string name() const override { return "obs-fake"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(2, 0.0f);
    (*scores)[0] = 1.0f;
  }

 private:
  int64_t steps_ = 0;
  Tensor parameter_;
};

TEST(TrainerMetricsTest, FitMaintainsMetricsJournalAndDumpsSnapshot) {
  Dataset ds;
  ds.num_users = 1;
  ds.num_items = 2;
  ds.num_tags = 1;
  DataSplit split;
  split.train = {{0, 1}};
  split.validation = {{0, 0}};
  Evaluator evaluator(ds, split);
  Trainer trainer(&evaluator, &split);

  MetricsRegistry registry;
  evaluator.set_metrics(&registry);
  const std::string journal_path = TestTempPath("obs_trainer_journal.jsonl");
  const std::string metrics_path = TestTempPath("obs_trainer_metrics.json");
  std::remove(journal_path.c_str());
  RunJournal journal(journal_path);

  ObsFakeModel model;
  TrainerOptions options;
  options.max_epochs = 6;
  options.eval_every = 2;
  options.patience = 100;
  options.restore_best = false;
  options.metrics = &registry;
  options.journal = &journal;
  options.metrics_out = metrics_path;
  TrainHistory history = trainer.Fit(&model, options);
  ASSERT_TRUE(history.status.ok()) << history.status.ToString();

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("train_epochs_total"), 6);
  EXPECT_EQ(snapshot.CounterValue("train_steps_total"), 6 * 4);
  EXPECT_EQ(snapshot.CounterValue("train_rollbacks_total"), 0);
  EXPECT_EQ(snapshot.CounterValue("eval_runs_total"), 3);  // Epochs 2, 4, 6.
  bool saw_epoch_ms = false, saw_step_ms = false, saw_eval_ms = false;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name == "train_epoch_ms") {
      saw_epoch_ms = true;
      EXPECT_EQ(hist.count, 6);
    } else if (name == "train_step_ms") {
      saw_step_ms = true;
      EXPECT_EQ(hist.count, 6 * 4);
    } else if (name == "train_eval_ms") {
      saw_eval_ms = true;
      EXPECT_EQ(hist.count, 3);
    }
  }
  EXPECT_TRUE(saw_epoch_ms);
  EXPECT_TRUE(saw_step_ms);
  EXPECT_TRUE(saw_eval_ms);

  // The journal was flushed by Fit: run_start + 6 epochs + run_end.
  const std::vector<std::string> lines = ReadLines(journal_path);
  ASSERT_GE(lines.size(), 8u);
  EXPECT_NE(lines.front().find("\"event\":\"run_start\""),
            std::string::npos);
  EXPECT_NE(lines.back().find("\"event\":\"run_end\""), std::string::npos);
  int64_t epoch_events = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"epoch\"") != std::string::npos) ++epoch_events;
  }
  EXPECT_EQ(epoch_events, 6);

  // --metrics-out equivalent: the JSON dump landed on disk.
  std::stringstream dumped;
  dumped << std::ifstream(metrics_path).rdbuf();
  EXPECT_NE(dumped.str().find("\"train_epochs_total\":6"),
            std::string::npos);
  std::remove(journal_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace imcat
