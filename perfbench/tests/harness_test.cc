// Tests of the benchmark harness's own helpers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/host_probe.h"
#include "harness/loadgen.h"
#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, ReportsValueAndSampleCounts) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(1001 - i);  // Unsorted.
  const Quantile p50 = NearestRank(samples, 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.samples, 1000);
  EXPECT_EQ(p50.beyond, 500);
  const Quantile p99 = NearestRank(samples, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10);
  const Quantile max = NearestRank(samples, 1.0);
  EXPECT_EQ(max.value, 1000.0);
  EXPECT_EQ(max.beyond, 0);
}

TEST(NearestRankTest, SmallAndEmptyInputs) {
  const Quantile one = NearestRank({7.0}, 0.99);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1);
  EXPECT_EQ(one.beyond, 0);
  const Quantile none = NearestRank({}, 0.5);
  EXPECT_EQ(none.samples, 0);
  EXPECT_EQ(none.value, 0.0);
  // p99 of 100 samples leaves exactly one beyond it: too few to trust.
  std::vector<double> hundred(100);
  for (int i = 0; i < 100; ++i) hundred[i] = i;
  EXPECT_EQ(NearestRank(hundred, 0.99).beyond, 1);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(NearestRankTest, InfinityRanksLast) {
  std::vector<double> samples(99, 1.0);
  samples.push_back(std::numeric_limits<double>::infinity());
  EXPECT_EQ(NearestRank(samples, 0.99).value, 1.0);
  EXPECT_TRUE(std::isinf(NearestRank(samples, 1.0).value));
}

TEST(HostProbeTest, ScalesTimesToTheNominalProbe) {
  // Measured while the probe ran twice as slow as nominal: half the time.
  EXPECT_DOUBLE_EQ(AtNominal(10.0, 2.0 * kNominalProbeMs), 5.0);
  EXPECT_DOUBLE_EQ(AtNominal(10.0, kNominalProbeMs), 10.0);
  HostProbe probe;
  EXPECT_GT(probe.Run(), 0.0);
  EXPECT_GT(probe.Burst(3), 0.0);
}

TEST(HostProbeTest, ProbeMsInTakesTheWindowsMedianElseAll) {
  const std::vector<ProbeSample> samples = {
      {0.0, 1.0}, {100.0, 3.0}, {200.0, 2.0}, {1000.0, 9.0}, {1100.0, 8.0}};
  EXPECT_EQ(ProbeMsIn(samples, 0.0, 1000.0), 2.0);   // 1, 3, 2.
  EXPECT_EQ(ProbeMsIn(samples, 1000.0, 2000.0), 8.0);  // 9, 8: lower median.
  EXPECT_EQ(ProbeMsIn(samples, 5000.0, 6000.0), 3.0);  // None: all five.
  EXPECT_EQ(ProbeMsIn({}, 0.0, 1.0), 0.0);
}

TEST(WindowRatesTest, CountsWholeWindowsOnly) {
  const std::vector<double> events = {0.0, 100.0, 999.0, 1000.0, 2500.0, 2999.0};
  const std::vector<double> rates = WindowRates(events, 0.0, 3500.0, 1000.0);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_EQ(rates[0], 3.0);
  EXPECT_EQ(rates[1], 1.0);
  EXPECT_EQ(rates[2], 2.0);
}

TEST(WindowQuantilesTest, OneQuantilePerWholeWindow) {
  std::vector<double> ordered;
  for (int i = 0; i < 250; ++i) ordered.push_back(i % 100);
  const std::vector<double> p99 = WindowQuantiles(ordered, 100, 0.99);
  ASSERT_EQ(p99.size(), 2u);  // The last 50 values make no whole window.
  EXPECT_EQ(p99[0], 98.0);
  EXPECT_EQ(p99[1], 98.0);
  EXPECT_TRUE(WindowQuantiles(ordered, 0, 0.5).empty());
}

Span MakeSpan(int64_t id, int64_t parent, double start, double end) {
  return Span{id, parent, "s", start, end};
}

TEST(SelfTimeTest, SubtractsCoveredChildTimeOnce) {
  // Parent [0, 10]; children overlap each other and one runs past the end.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 1, 3), MakeSpan(3, 1, 2, 5),
      MakeSpan(4, 1, 8, 12), MakeSpan(5, 2, 1, 2)};
  const std::map<int64_t, double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at(1), 10.0 - (4.0 + 2.0));  // [1,5] and [8,10].
  EXPECT_DOUBLE_EQ(self.at(2), 2.0 - 1.0);           // Grandchild [1,2].
  EXPECT_DOUBLE_EQ(self.at(3), 3.0);
  EXPECT_DOUBLE_EQ(self.at(4), 4.0);
  EXPECT_DOUBLE_EQ(self.at(5), 1.0);
}

TEST(SelfTimeTest, TracerRecordsNestedScopes) {
  Tracer tracer(true);
  SpanBuffer* buffer = tracer.NewBuffer();
  {
    ScopedSpan outer(buffer, "outer");
    ScopedSpan inner(buffer, "inner", outer.id());
  }
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  const std::map<int64_t, double> self = SelfTimes(spans);
  for (const Span& s : spans) {
    EXPECT_GE(self.at(s.id), 0.0);
    EXPECT_LE(self.at(s.id), s.duration_ms());
  }
  EXPECT_EQ(Durations(spans, "inner").size(), 1u);

  Tracer off(false);
  SpanBuffer* none = off.NewBuffer();
  {
    ScopedSpan span(none, "ignored");
    EXPECT_EQ(span.id(), 0);
  }
  EXPECT_TRUE(off.Collect().empty());
}

// A fake service on a fake clock: every request takes `service_ms` after it
// is sent, and Send(stall_index) blocks the generator for `stall_ms`.
class FakeClient {
 public:
  FakeClient(double service_ms, int64_t stall_index, double stall_ms)
      : service_ms_(service_ms), stall_index_(stall_index), stall_ms_(stall_ms) {}

  double NowMs() { return now_; }
  void Send(int64_t index) {
    if (index == stall_index_) now_ += stall_ms_;
    pending_.push_back({index, now_ + service_ms_});
  }
  void Wait(double until_ms) {
    double next = until_ms;
    for (const auto& p : pending_) next = std::min(next, p.second);
    now_ = std::max(now_, next);
  }
  void Collect(std::vector<Completion>* out) {
    for (size_t i = 0; i < pending_.size();) {
      if (pending_[i].second <= now_) {
        out->push_back({pending_[i].first, true, now_});
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  int64_t outstanding() const { return static_cast<int64_t>(pending_.size()); }

 private:
  double now_ = 0.0;
  double service_ms_;
  int64_t stall_index_;
  double stall_ms_;
  std::vector<std::pair<int64_t, double>> pending_;
};

TEST(OpenLoopTest, LatencyCountsFromDueTimeThroughAStall) {
  // 100 requests/s for 1 s: due every 10 ms. The generator stalls 55 ms
  // inside the send of request 20.
  FakeClient client(/*service_ms=*/1.0, /*stall_index=*/20, /*stall_ms=*/55.0);
  OpenLoopOptions options;
  options.rate_per_s = 100.0;
  options.duration_ms = 1000.0;
  const std::vector<RequestRecord> records = RunOpenLoop(client, options);
  ASSERT_EQ(records.size(), 100u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].due_ms, 10.0 * static_cast<double>(i));
    ASSERT_TRUE(records[i].completed()) << i;
  }
  // Before the stall: sent on time, latency = service time.
  EXPECT_DOUBLE_EQ(records[19].lag_ms(), 0.0);
  EXPECT_DOUBLE_EQ(records[19].latency_ms(), 1.0);
  // Request 20 was stamped sent before the stall hit inside Send.
  EXPECT_DOUBLE_EQ(records[20].latency_ms(), 56.0);
  // Requests due during the stall go out late, all at once; measured from
  // when they were due, their latency carries the wait the stall imposed.
  EXPECT_DOUBLE_EQ(records[21].lag_ms(), 45.0);
  EXPECT_DOUBLE_EQ(records[21].latency_ms(), 46.0);
  EXPECT_DOUBLE_EQ(records[25].lag_ms(), 5.0);
  EXPECT_DOUBLE_EQ(records[25].latency_ms(), 6.0);
  // Latency from the send time alone would hide the stall entirely.
  EXPECT_DOUBLE_EQ(records[21].done_ms - records[21].sent_ms, 1.0);
  // The schedule recovers once the generator catches up.
  EXPECT_DOUBLE_EQ(records[26].lag_ms(), 0.0);
  EXPECT_DOUBLE_EQ(records[26].latency_ms(), 1.0);
}

TEST(ClosedLoopTest, KeepsConcurrencyOutstanding) {
  FakeClient client(/*service_ms=*/2.0, /*stall_index=*/-1, /*stall_ms=*/0.0);
  ClosedLoopOptions options;
  options.concurrency = 4;
  options.duration_ms = 100.0;
  const std::vector<RequestRecord> records = RunClosedLoop(client, options);
  // Four requests every 2 ms for 100 ms.
  EXPECT_EQ(records.size(), 200u);
  for (const RequestRecord& r : records) {
    ASSERT_TRUE(r.completed());
    EXPECT_DOUBLE_EQ(r.latency_ms(), 2.0);
  }
}

}  // namespace
}  // namespace perfbench
