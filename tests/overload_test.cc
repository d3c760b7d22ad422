// Overload-control suite (ctest labels `overload` + `chaos`; run plain and
// under TSan by scripts/check.sh --overload). Three layers:
//
//  1. OverloadController unit tests on a scripted fake clock: the CoDel
//     control law (sustained sojourn above target for an interval declares
//     overload, one below-target sample or a drained interval clears it),
//     priority-ordered shedding, predicted-late refusal, and the brownout
//     ladder's edge-triggered hysteretic transitions — all bit-identical
//     run to run.
//  2. RecService integration on fake clocks: measured queue sojourn
//     threaded into responses, expired-in-queue refusal, brownout
//     degradation of batch traffic, and the ladder walking identically —
//     journal files byte-for-byte equal — across worker counts.
//  3. Overload chaos: mixed-priority traffic at several times capacity
//     with mid-ramp full-snapshot reloads and delta publishes; every
//     future resolves definite and the 10-outcome accounting identity
//     holds with equality.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/overload.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/online_updater.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

constexpr int64_t kNumUsers = 32;
constexpr int64_t kNumItems = 96;
constexpr int64_t kDim = 8;

Tensor MakeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      values[static_cast<size_t>(r * cols + c)] =
          scale * static_cast<float>((r * 13 + c * 5) % 17 - 8);
    }
  }
  return Tensor(rows, cols, std::move(values));
}

void WriteV2Snapshot(const std::string& path, float scale) {
  std::vector<Tensor> tensors;
  tensors.push_back(MakeTable(kNumUsers, kDim, scale));
  tensors.push_back(MakeTable(kNumItems, kDim, -scale));
  Status status = SaveCheckpoint(path, tensors);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

std::shared_ptr<const PopularityRanker> Fallback() {
  EdgeList train;
  for (int64_t u = 0; u < kNumUsers; ++u) {
    for (int64_t i = 0; i < kNumItems; i += (u % 5) + 1) {
      train.push_back({u, i});
    }
  }
  return std::make_shared<PopularityRanker>(kNumItems, train);
}

int64_t HistogramCount(const MetricsSnapshot& snapshot,
                       const std::string& name) {
  for (const auto& [hist_name, hist] : snapshot.histograms) {
    if (hist_name == name) return hist.count;
  }
  return -1;
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

using Transition = std::pair<int64_t, int64_t>;

/// A transition recorder usable as the brownout listener.
struct LadderTrace {
  std::vector<Transition> transitions;
  void Attach(OverloadController* controller) {
    controller->set_on_brownout([this](int64_t from, int64_t to) {
      transitions.emplace_back(from, to);
    });
  }
};

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// 1. Controller unit tests (scripted fake clock).
// ---------------------------------------------------------------------------

OverloadOptions FakeClockOptions(double* clock) {
  OverloadOptions options;
  options.enabled = true;
  options.target_ms = 5.0;
  options.interval_ms = 100.0;
  options.ladder_up_ms = 400.0;
  options.ladder_down_ms = 800.0;
  options.max_level = 2;
  options.now_ms = [clock] { return *clock; };
  return options;
}

TEST_F(OverloadTest, CoDelDeclaresOverloadOnlyAfterSustainedSojourn) {
  double clock = 0.0;
  OverloadController controller(FakeClockOptions(&clock));

  // Below target: never overloaded, regardless of duration.
  for (int i = 0; i < 10; ++i) {
    controller.OnDequeue(2.0);
    clock += 50.0;
  }
  EXPECT_FALSE(controller.overloaded());

  // Above target, but not yet for a full interval: still fine.
  controller.OnDequeue(9.0);  // Arms first_above at clock + 100.
  clock += 99.0;
  controller.OnDequeue(9.0);
  EXPECT_FALSE(controller.overloaded());

  // A full interval above target: overload declared.
  clock += 1.0;
  controller.OnDequeue(9.0);
  EXPECT_TRUE(controller.overloaded());

  // One below-target sojourn clears it immediately (the queue drained).
  controller.OnDequeue(1.0);
  EXPECT_FALSE(controller.overloaded());
}

TEST_F(OverloadTest, DrainedQueueClearsOverloadWithoutDequeues) {
  double clock = 0.0;
  OverloadController controller(FakeClockOptions(&clock));
  controller.OnDequeue(9.0);
  clock += 100.0;
  controller.OnDequeue(9.0);
  ASSERT_TRUE(controller.overloaded());

  // No dequeues for a full interval: the queue must have emptied, so an
  // arrival on a quiet service is admitted again (checked via Admit's
  // freshness re-evaluation, since nothing else runs the clock forward).
  clock += 101.0;
  EXPECT_EQ(controller.Admit(RequestPriority::kBatch, -1.0),
            OverloadController::Decision::kAdmit);
  EXPECT_FALSE(controller.overloaded());
}

TEST_F(OverloadTest, BatchTrafficShedsFirstUnderOverload) {
  double clock = 0.0;
  OverloadController controller(FakeClockOptions(&clock));
  controller.OnDequeue(9.0);
  clock += 100.0;
  controller.OnDequeue(9.0);
  ASSERT_TRUE(controller.overloaded());

  // Batch sheds; interactive with a generous budget still gets through.
  EXPECT_EQ(controller.Admit(RequestPriority::kBatch, 500.0),
            OverloadController::Decision::kShedQueueDelay);
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, 500.0),
            OverloadController::Decision::kAdmit);
}

TEST_F(OverloadTest, PredictedLateRefusedWhenBudgetBelowEstimate) {
  double clock = 0.0;
  OverloadController controller(FakeClockOptions(&clock));

  // No measurement yet: nothing can be predicted late.
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, 1.0),
            OverloadController::Decision::kAdmit);

  controller.OnDequeue(20.0);
  EXPECT_DOUBLE_EQ(controller.smoothed_wait_ms(), 20.0);

  // Budget below the estimate: refused. Above: admitted. No deadline
  // (budget <= 0): never predicted late.
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, 10.0),
            OverloadController::Decision::kShedPredictedLate);
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, 50.0),
            OverloadController::Decision::kAdmit);
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, -1.0),
            OverloadController::Decision::kAdmit);

  // The estimate is floored by the *latest* sample so a sudden ramp is
  // seen immediately, not after the EWMA catches up.
  controller.OnDequeue(100.0);
  EXPECT_GE(controller.smoothed_wait_ms(), 100.0);
  EXPECT_EQ(controller.Admit(RequestPriority::kInteractive, 50.0),
            OverloadController::Decision::kShedPredictedLate);
}

TEST_F(OverloadTest, LadderStepsUpAndDownHysteretically) {
  double clock = 0.0;
  OverloadController controller(FakeClockOptions(&clock));
  LadderTrace trace;
  trace.Attach(&controller);

  // Sustained pressure: sojourns above target every 50 fake ms.
  // Overload declares at t=100; the ladder steps at +400 and +800 of
  // continuous pressure and then sits at max_level.
  for (int i = 0; i <= 40; ++i) {
    controller.OnDequeue(9.0);
    clock += 50.0;
  }
  EXPECT_EQ(controller.brownout_level(), 2);
  ASSERT_EQ(trace.transitions.size(), 2u);
  EXPECT_EQ(trace.transitions[0], Transition(0, 1));
  EXPECT_EQ(trace.transitions[1], Transition(1, 2));

  // Pressure gone: sojourns below target. Recovery is slower (800 ms per
  // step) and hysteretic — no flapping while calm persists.
  for (int i = 0; i <= 40; ++i) {
    controller.OnDequeue(1.0);
    clock += 50.0;
  }
  EXPECT_EQ(controller.brownout_level(), 0);
  ASSERT_EQ(trace.transitions.size(), 4u);
  EXPECT_EQ(trace.transitions[2], Transition(2, 1));
  EXPECT_EQ(trace.transitions[3], Transition(1, 0));

  // Edge-triggered: replaying the same calm regime fires nothing more.
  for (int i = 0; i < 40; ++i) {
    controller.OnDequeue(1.0);
    clock += 50.0;
  }
  EXPECT_EQ(trace.transitions.size(), 4u);
}

TEST_F(OverloadTest, ScriptedTraceIsBitIdenticalAcrossRuns) {
  // The same scripted (clock, sojourn, admit) trace must produce the same
  // decision and transition sequences every run — determinism is what
  // makes the ladder tunable from a saturation sweep.
  const auto run = [](std::vector<int>* decisions,
                      std::vector<Transition>* transitions) {
    double clock = 0.0;
    OverloadController controller(FakeClockOptions(&clock));
    LadderTrace trace;
    trace.Attach(&controller);
    for (int i = 0; i < 120; ++i) {
      const double sojourn = i < 60 ? 8.0 + (i % 7) : 1.0;
      controller.OnDequeue(sojourn);
      clock += 37.0;
      const RequestPriority priority = (i % 3 == 0)
                                           ? RequestPriority::kBatch
                                           : RequestPriority::kInteractive;
      decisions->push_back(static_cast<int>(
          controller.Admit(priority, (i % 5) * 10.0 - 10.0)));
    }
    *transitions = trace.transitions;
  };
  std::vector<int> decisions_a, decisions_b;
  std::vector<Transition> transitions_a, transitions_b;
  run(&decisions_a, &transitions_a);
  run(&decisions_b, &transitions_b);
  EXPECT_EQ(decisions_a, decisions_b);
  EXPECT_EQ(transitions_a, transitions_b);
  EXPECT_FALSE(transitions_a.empty());
}

// ---------------------------------------------------------------------------
// 2. Service integration.
// ---------------------------------------------------------------------------

TEST_F(OverloadTest, MeasuredQueueWaitIsThreadedIntoResponses) {
  const std::string path = TestTempPath("overload_wait_snapshot.ckpt");
  WriteV2Snapshot(path, 0.125f);

  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.metrics = &metrics;
  RecService service(Fallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  RecRequest request;
  request.user = 3;
  RecResponse response = service.Recommend(std::move(request));
  ASSERT_TRUE(response.status.ok());
  // The wall clock ran between enqueue and dequeue, so the measured
  // sojourn is a real non-negative number, and the histogram saw the same
  // sample count as requests dequeued.
  EXPECT_GE(response.queue_wait_ms, 0.0);
  EXPECT_EQ(response.brownout_level, 0);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(HistogramCount(snapshot, "serve_queue_wait_ms"), 1);
  service.Shutdown();
  std::remove(path.c_str());
}

TEST_F(OverloadTest, RequestExpiredInQueueIsRefusedNotScored) {
  const std::string path = TestTempPath("overload_expired_snapshot.ckpt");
  WriteV2Snapshot(path, 0.125f);

  // The service clock is a fake the test advances by hand; the worker is
  // blocked by a FaultInjector-slowed request (real time) while the fake
  // clock eats the queued request's whole deadline budget.
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.recommender.block_items = 16;
  options.metrics = &metrics;
  options.now_ms = [clock] { return clock->load(); };
  options.overload.enabled = true;
  options.overload.predict_late = false;  // Isolate the dequeue-side check.
  RecService service(Fallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Blocker: scoring sleeps ~200 real ms between blocks, holding the one
  // worker while the queued victim's budget expires on the fake clock.
  FaultInjector::Instance().ArmSlowOps(2, 100.0);
  RecRequest blocker;
  blocker.user = 0;
  std::future<RecResponse> blocked = service.Submit(std::move(blocker));

  RecRequest victim;
  victim.user = 1;
  victim.deadline_ms = 30.0;
  std::future<RecResponse> late = service.Submit(std::move(victim));
  clock->store(50.0);  // The victim has now waited 50 ms of a 30 ms budget.

  RecResponse blocked_response = blocked.get();
  EXPECT_TRUE(IsDefinite(blocked_response));
  RecResponse late_response = late.get();
  EXPECT_EQ(late_response.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(late_response.status.message().find("expired in queue"),
            std::string::npos);
  EXPECT_GE(late_response.queue_wait_ms, 30.0);

  service.Shutdown();
  EXPECT_EQ(service.stats().shed_predicted_late, 1);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(
      snapshot.CounterValue("serve_requests_shed_predicted_late_total"), 1);
  std::remove(path.c_str());
}

TEST_F(OverloadTest, PredictedLateShedAtAdmissionAfterMeasuredWait) {
  const std::string path = TestTempPath("overload_predicted_snapshot.ckpt");
  WriteV2Snapshot(path, 0.125f);

  auto clock = std::make_shared<std::atomic<double>>(0.0);
  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.recommender.block_items = 16;
  options.metrics = &metrics;
  options.now_ms = [clock] { return clock->load(); };
  options.overload.enabled = true;
  RecService service(Fallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Produce one large measured sojourn: the blocker holds the worker for
  // ~100 real ms while the fake clock advances 40 ms, so the follower's
  // dequeue reports a 40 ms wait into the controller's estimate.
  FaultInjector::Instance().ArmSlowOps(2, 50.0);
  RecRequest blocker;
  blocker.user = 0;
  std::future<RecResponse> blocked = service.Submit(std::move(blocker));
  RecRequest follower;
  follower.user = 1;
  std::future<RecResponse> followed = service.Submit(std::move(follower));
  clock->store(40.0);
  EXPECT_TRUE(IsDefinite(blocked.get()));
  EXPECT_TRUE(IsDefinite(followed.get()));

  // Now the smoothed queue-wait estimate is ~40 ms: a 10 ms-deadline
  // arrival is refused at admission, before touching the queue; a
  // generous one is admitted and served.
  RecRequest tight;
  tight.user = 2;
  tight.deadline_ms = 10.0;
  RecResponse refused = service.Recommend(std::move(tight));
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status.message().find("predicted late"),
            std::string::npos);

  RecRequest generous;
  generous.user = 2;
  generous.deadline_ms = 500.0;
  EXPECT_TRUE(service.Recommend(std::move(generous)).status.ok());

  service.Shutdown();
  EXPECT_EQ(service.stats().shed_predicted_late, 1);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(
      snapshot.CounterValue("serve_requests_shed_predicted_late_total"), 1);
  // Identity with equality: 4 submitted, every one accounted.
  EXPECT_EQ(snapshot.CounterValue("serve_requests_total"), 4);
  EXPECT_EQ(
      snapshot.CounterValue("serve_requests_total"),
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

/// Runs a scripted synchronous request sequence against a service whose
/// clock auto-advances a fixed step per reading, and returns the journal
/// file's full contents plus the per-request brownout levels. Because
/// every Recommend is synchronous, the sequence of clock readings — and
/// with it every controller decision — is independent of how many workers
/// the pool has.
struct LadderRunResult {
  std::string journal;
  std::vector<int64_t> levels;
  int64_t transitions = 0;
};

LadderRunResult RunLadderScript(int64_t num_workers,
                                const std::string& snapshot_path,
                                const std::string& journal_path) {
  // Each clock reading advances 2 fake ms in the pressure phase; the
  // sojourn each dequeue measures is one step (stamp then read). Target
  // 1 ms keeps every pressure-phase sojourn above target; the calm phase
  // shrinks the step to zero so sojourns drop below target and time is
  // driven by explicit bumps.
  auto state = std::make_shared<std::pair<std::atomic<double>,
                                          std::atomic<double>>>();
  state->first.store(0.0);   // Clock value.
  state->second.store(2.0);  // Step per reading.
  auto now = [state] {
    return state->first.fetch_add(state->second.load()) +
           state->second.load();
  };

  RunJournal journal(journal_path);
  RecServiceOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = 16;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.recommender.block_items = 1024;  // One block: few clock reads.
  options.now_ms = now;
  options.journal = &journal;
  options.overload.enabled = true;
  options.overload.predict_late = false;  // Sojourn-driven script only.
  options.overload.target_ms = 1.0;
  options.overload.interval_ms = 20.0;
  options.overload.ladder_up_ms = 60.0;
  options.overload.ladder_down_ms = 90.0;
  options.overload.max_level = 2;

  LadderRunResult result;
  {
    RecService service(Fallback(), options);
    Status loaded = service.LoadSnapshot(snapshot_path);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();

    // Pressure phase: every dequeue sees a 2 ms sojourn (> target), the
    // fake clock advances ~10 ms per request, so overload declares after
    // ~2 requests' worth of interval and the ladder climbs to max.
    for (int i = 0; i < 40; ++i) {
      RecRequest request;
      request.user = i % kNumUsers;
      request.priority = (i % 2 == 0) ? RequestPriority::kInteractive
                                      : RequestPriority::kBatch;
      RecResponse response = service.Recommend(std::move(request));
      EXPECT_TRUE(IsDefinite(response));
      result.levels.push_back(response.brownout_level);
    }
    // Calm phase: zero step means zero measured sojourn (< target); time
    // advances only via explicit bumps between requests, long enough for
    // the hysteretic ladder to walk back down.
    state->second.store(0.0);
    for (int i = 0; i < 40; ++i) {
      state->first.fetch_add(10.0);
      RecRequest request;
      request.user = i % kNumUsers;
      RecResponse response = service.Recommend(std::move(request));
      EXPECT_TRUE(IsDefinite(response));
      result.levels.push_back(response.brownout_level);
    }
    result.transitions = service.stats().brownout_transitions;
    service.Shutdown();
  }
  EXPECT_TRUE(journal.Flush().ok());
  std::ifstream in(journal_path);
  std::stringstream contents;
  contents << in.rdbuf();
  result.journal = contents.str();
  return result;
}

TEST_F(OverloadTest, LadderTransitionsBitIdenticalAcrossWorkerCounts) {
  const std::string path = TestTempPath("overload_ladder_snapshot.ckpt");
  WriteV2Snapshot(path, 0.125f);

  const std::string journal_one = TestTempPath("overload_ladder_w1.jsonl");
  const std::string journal_four = TestTempPath("overload_ladder_w4.jsonl");
  LadderRunResult one = RunLadderScript(1, path, journal_one);
  LadderRunResult four = RunLadderScript(4, path, journal_four);

  // The ladder actually moved: up to max_level under pressure, back to 0
  // after recovery, with journaled edges (2 up + 2 down).
  EXPECT_EQ(one.transitions, 4);
  EXPECT_EQ(*std::max_element(one.levels.begin(), one.levels.end()), 2);
  EXPECT_EQ(one.levels.back(), 0);
  EXPECT_NE(one.journal.find("\"event\":\"brownout\""), std::string::npos);

  // Bit-identical across thread counts: the full journal (snapshot_reload
  // + every brownout edge, in order, with sequence numbers) and the
  // per-request brownout levels match byte for byte.
  EXPECT_EQ(one.journal, four.journal);
  EXPECT_EQ(one.levels, four.levels);
  EXPECT_EQ(one.transitions, four.transitions);

  std::remove(path.c_str());
  std::remove(journal_one.c_str());
  std::remove(journal_four.c_str());
}

TEST_F(OverloadTest, BrownoutLevelTwoServesBatchFromPopularityFallback) {
  const std::string path = TestTempPath("overload_brownout_snapshot.ckpt");
  WriteV2Snapshot(path, 0.125f);

  // Drive the ladder to max_level with the same auto-advancing clock as
  // the script above, then check the level-2 policy: batch requests get
  // the popularity fallback (degraded), interactive requests still get
  // real (budget-capped) model scores.
  auto state = std::make_shared<std::pair<std::atomic<double>,
                                          std::atomic<double>>>();
  state->first.store(0.0);
  state->second.store(2.0);
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;
  options.recommender.block_items = 1024;
  options.now_ms = [state] {
    return state->first.fetch_add(state->second.load()) +
           state->second.load();
  };
  options.overload.enabled = true;
  options.overload.predict_late = false;
  options.overload.target_ms = 1.0;
  options.overload.interval_ms = 20.0;
  options.overload.ladder_up_ms = 60.0;
  options.overload.ladder_down_ms = 90.0;
  RecService service(Fallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  for (int i = 0; i < 40 && service.brownout_level() < 2; ++i) {
    RecRequest request;
    request.user = i % kNumUsers;
    service.Recommend(std::move(request));
  }
  ASSERT_EQ(service.brownout_level(), 2);

  // Pressure over: freeze the clock so measured sojourns drop below
  // target. The first calm dequeue clears the overload flag immediately
  // (so batch is admitted again rather than shed), but the hysteretic
  // ladder holds level 2 until ladder_down_ms of calm — the recovery
  // window where the brownout policy, not admission shedding, decides
  // what batch traffic gets.
  state->second.store(0.0);
  RecRequest clearing;
  clearing.user = 0;
  EXPECT_TRUE(IsDefinite(service.Recommend(std::move(clearing))));
  ASSERT_FALSE(service.overloaded());
  ASSERT_EQ(service.brownout_level(), 2);

  RecRequest batch;
  batch.user = 1;
  batch.priority = RequestPriority::kBatch;
  RecResponse batch_response = service.Recommend(std::move(batch));
  ASSERT_TRUE(batch_response.status.ok());
  EXPECT_TRUE(batch_response.degraded);
  EXPECT_EQ(batch_response.brownout_level, 2);

  RecRequest interactive;
  interactive.user = 1;
  RecResponse interactive_response = service.Recommend(std::move(interactive));
  ASSERT_TRUE(interactive_response.status.ok());
  EXPECT_FALSE(interactive_response.degraded);
  EXPECT_EQ(interactive_response.brownout_level, 2);
  EXPECT_FALSE(interactive_response.items.empty());

  service.Shutdown();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 3. Overload chaos: identity under pressure with reload + delta churn.
// ---------------------------------------------------------------------------

TEST_F(OverloadTest, AccountingIdentityExactUnderOverloadWithPublishChurn) {
  const std::string base_path = TestTempPath("overload_chaos_base.snap");
  {
    Tensor users = MakeTable(kNumUsers, kDim, 0.125f);
    Tensor items = MakeTable(kNumItems, kDim, -0.125f);
    ShardedSnapshotOptions snapshot_options;
    snapshot_options.items_per_shard = 16;
    snapshot_options.version = 1;
    ASSERT_TRUE(
        WriteShardedSnapshot(base_path, users, items, snapshot_options).ok());
  }

  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4;  // Tiny queue: queue-full sheds happen too.
  options.default_top_k = 5;
  options.default_deadline_ms = 25.0;
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
  RecService service(Fallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(base_path).ok());

  OnlineUpdaterOptions updater_options;
  auto seeded = OnlineUpdater::FromSnapshot(base_path, {}, updater_options);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  std::unique_ptr<OnlineUpdater> updater = std::move(seeded.value());

  // Client threads fire mixed-priority, mixed-deadline traffic as fast as
  // they can; scoring is periodically slowed by the FaultInjector so the
  // queue actually builds and the controller has real pressure to react
  // to.
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
        request.user = (c * kPerClient + i) % kNumUsers;
        request.priority = (i % 3 == 0) ? RequestPriority::kBatch
                                        : RequestPriority::kInteractive;
        request.deadline_ms = (i % 4 == 0) ? 2.0 : 25.0;
        futures.push_back(service.Submit(std::move(request)));
      }
      for (std::future<RecResponse>& f : futures) {
        if (!IsDefinite(f.get())) ++indefinite;
      }
    });
  }

  go = true;
  // The publisher churns mid-ramp: delta publishes chained by the updater
  // interleave with full-snapshot reloads, while slow-op bursts stall
  // scoring to pile the queue up.
  int64_t next_edge = 0;
  for (int round = 0; round < 6; ++round) {
    FaultInjector::Instance().ArmSlowOps(40, 1.0);
    EdgeList batch;
    for (int e = 0; e < 4; ++e, ++next_edge) {
      batch.push_back({next_edge % kNumUsers,
                       (next_edge / kNumUsers) % kNumItems});
    }
    ASSERT_TRUE(updater->AddInteractions(batch).ok());
    ASSERT_TRUE(updater->ApplyPending().ok());
    const std::string delta_path = TestTempPath(
        ("overload_chaos_" + std::to_string(round) + ".delta").c_str());
    ASSERT_TRUE(updater->PublishDelta(delta_path).ok());
    Status load = service.LoadDelta(delta_path);
    ASSERT_TRUE(load.ok()) << "round " << round << ": " << load.ToString();
    std::remove(delta_path.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // One full-snapshot reload mid-ramp: resync on top of the delta chain
  // (version must advance past the deltas', so re-export the base).
  {
    Tensor users = MakeTable(kNumUsers, kDim, 0.125f);
    Tensor items = MakeTable(kNumItems, kDim, -0.125f);
    ShardedSnapshotOptions snapshot_options;
    snapshot_options.items_per_shard = 16;
    snapshot_options.version = 100;
    ASSERT_TRUE(
        WriteShardedSnapshot(base_path, users, items, snapshot_options).ok());
    ASSERT_TRUE(service.LoadSnapshot(base_path).ok());
  }

  for (std::thread& c : clients) c.join();
  service.Shutdown();
  FaultInjector::Instance().Reset();

  EXPECT_EQ(indefinite.load(), 0);

  // Every submitted future has resolved: the 10-outcome identity holds
  // with equality, whatever mix of sheds the schedule produced.
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

  // The stats mirror agrees with the metrics counters outcome by outcome.
  const RecServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed,
            snapshot.CounterValue("serve_requests_shed_total"));
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
