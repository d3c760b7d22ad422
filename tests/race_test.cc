// Concurrency stress suite (ctest label `race`). These tests exist to be
// run under ThreadSanitizer (`scripts/check.sh --tsan`) as much as under
// the plain build: each one drives a genuinely racy schedule — snapshot
// hot-reload racing scoring racing shutdown churn, Recommend racing
// Shutdown, concurrent FaultInjector arm/fire, pool teardown with tasks in
// flight — and asserts only schedule-independent invariants (every future
// resolves to a definite status, every task is resolved exactly once,
// counters stay consistent). Any data race is TSan's to report; any lost
// or doubly-resolved task is ours.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "serve/circuit_breaker.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "train/online_updater.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

constexpr int64_t kNumUsers = 24;
constexpr int64_t kNumItems = 80;
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

void WriteSnapshot(const std::string& path, float scale) {
  std::vector<Tensor> tensors;
  tensors.push_back(MakeTable(kNumUsers, kDim, scale));
  tensors.push_back(MakeTable(kNumItems, kDim, -scale));
  Status status = SaveCheckpoint(path, tensors);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

std::shared_ptr<const PopularityRanker> RaceFallback() {
  EdgeList train;
  for (int64_t u = 0; u < kNumUsers; ++u) {
    for (int64_t i = 0; i < kNumItems; i += (u % 5) + 1) {
      train.push_back({u, i});
    }
  }
  return std::make_shared<PopularityRanker>(kNumItems, train);
}

RecServiceOptions RaceOptions(int64_t max_batch_size) {
  RecServiceOptions options;
  options.num_workers = 3;
  options.max_batch_size = max_batch_size;
  options.queue_capacity = 8;
  options.default_top_k = 5;
  options.default_deadline_ms = -1.0;  // No deadline: schedules stay racy,
                                       // outcomes stay deterministic.
  options.load_backoff.max_attempts = 1;
  options.sleep_ms = [](double) {};
  return options;
}

bool IsDefinite(const RecResponse& response) {
  // Every response the service hands back must be one of the documented
  // outcomes — a status from the fixed taxonomy, or a degraded answer.
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

class RaceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Satellite 1 + tentpole: Recommend racing Shutdown. Client threads submit
// continuously while the main thread shuts the service down mid-stream.
// Every submitted future must resolve to a definite response — served,
// shed, or cancelled-by-shutdown — and the service's own counters must
// account for every admission decision.
TEST_F(RaceTest, RecommendRacingShutdownResolvesEveryFuture) {
  const std::string path = TestTempPath("race_shutdown_snapshot.ckpt");
  WriteSnapshot(path, 0.125f);

  // Batch size 1 drains one request per ticket; 8 coalesces followers.
  for (const int64_t max_batch_size : {int64_t{1}, int64_t{8}}) {
    SCOPED_TRACE("max_batch_size " + std::to_string(max_batch_size));
    RecService service(RaceFallback(), RaceOptions(max_batch_size));
    ASSERT_TRUE(service.LoadSnapshot(path).ok());

    constexpr int kClients = 4;
    constexpr int kPerClient = 200;
    std::atomic<int64_t> resolved{0};
    std::atomic<int64_t> indefinite{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&service, &resolved, &indefinite, &go, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerClient; ++i) {
          RecRequest request;
          request.user = (t * kPerClient + i) % kNumUsers;
          std::future<RecResponse> future = service.Submit(std::move(request));
          RecResponse response = future.get();  // Must never hang.
          ++resolved;
          if (!IsDefinite(response)) ++indefinite;
        }
      });
    }
    go = true;
    // Shut down somewhere in the middle of the client stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.Shutdown();
    for (std::thread& c : clients) c.join();

    EXPECT_EQ(resolved.load(), kClients * kPerClient);
    EXPECT_EQ(indefinite.load(), 0);
    // Counter consistency: every request was either admitted or shed.
    const RecServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted + stats.shed, kClients * kPerClient);
    // Post-shutdown requests still resolve immediately, with kUnavailable.
    RecRequest late;
    late.user = 0;
    RecResponse after = service.Recommend(std::move(late));
    EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
  }
}

// Tentpole stress: snapshot hot-reload racing scoring racing shutdown
// churn. Scorers hammer Recommend, a reloader flips between two snapshot
// generations, and the whole service is torn down and rebuilt while both
// are running. Invariant: every response definite, every snapshot a
// request scores against is internally consistent (the locked shared_ptr
// publish means a version is visible only fully published).
TEST_F(RaceTest, SnapshotReloadRacingScoringRacingShutdownChurn) {
  const std::string path_a = TestTempPath("race_churn_a.ckpt");
  const std::string path_b = TestTempPath("race_churn_b.ckpt");
  WriteSnapshot(path_a, 0.125f);
  WriteSnapshot(path_b, 0.5f);

  // Even generations drain one request per ticket, odd ones coalesce up
  // to 8; each batch size meets both the shutdown and the no-shutdown
  // teardown.
  constexpr int kGenerations = 8;
  for (int gen = 0; gen < kGenerations; ++gen) {
    const int64_t max_batch_size = (gen / 2) % 2 == 0 ? 1 : 8;
    auto service = std::make_shared<RecService>(RaceFallback(),
                                                RaceOptions(max_batch_size));
    ASSERT_TRUE(service->LoadSnapshot(path_a).ok());

    std::atomic<bool> stop{false};
    std::atomic<int64_t> indefinite{0};
    std::vector<std::thread> threads;
    // Scorers.
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([service, &stop, &indefinite, t] {
        int64_t user = t;
        while (!stop.load()) {
          RecRequest request;
          request.user = user++ % kNumUsers;
          RecResponse response = service->Recommend(std::move(request));
          if (!IsDefinite(response)) ++indefinite;
          // A real answer must carry a published snapshot version.
          if (response.status.ok() && !response.degraded) {
            if (response.snapshot_version < 1) ++indefinite;
          }
        }
      });
    }
    // Reloader: flips between the two snapshot files.
    threads.emplace_back([service, &stop, &path_a, &path_b] {
      int flip = 0;
      while (!stop.load()) {
        (void)service->LoadSnapshot((flip++ % 2) ? path_b : path_a);
        std::this_thread::yield();
      }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (gen % 2 == 0) service->Shutdown();  // Shutdown races the load too.
    stop = true;
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(indefinite.load(), 0)
        << "generation " << gen << ", max_batch_size " << max_batch_size;
    service.reset();  // Destructor races nothing: all threads joined.
  }
}

// Observability under churn: a fully instrumented service hammered by
// scorer threads while one thread reloads snapshots and another reads
// metrics snapshots continuously. TSan must stay clean (relaxed shard
// writes racing the merge are by design), every snapshot must be
// internally monotone versus the previous one, and once every thread has
// joined the full request-accounting identity must hold exactly.
TEST_F(RaceTest, MetricsChurnStaysConsistentUnderConcurrentSnapshots) {
  const std::string path = TestTempPath("race_metrics_snapshot.ckpt");
  WriteSnapshot(path, 0.25f);

  MetricsRegistry metrics;
  RecServiceOptions options = RaceOptions(1);
  options.metrics = &metrics;
  auto service = std::make_shared<RecService>(RaceFallback(), options);
  ASSERT_TRUE(service->LoadSnapshot(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> monotonicity_violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([service, t] {
      int64_t user = t;
      while (user < 400) {
        RecRequest request;
        // Mix valid and invalid ids so several outcome counters move.
        request.user = (user % 9 == 8) ? -user : user % kNumUsers;
        (void)service->Recommend(std::move(request));
        user += 3;
      }
    });
  }
  threads.emplace_back([service, &stop, &path] {
    while (!stop.load()) {
      (void)service->LoadSnapshot(path);
      std::this_thread::yield();
    }
  });
  // Reader: counters are monotone, so each snapshot's totals must
  // dominate the previous one's even while writers race the merge.
  threads.emplace_back([&metrics, &stop, &monotonicity_violations] {
    int64_t last_total = 0;
    while (!stop.load()) {
      MetricsSnapshot snapshot = metrics.Snapshot();
      const int64_t total = snapshot.CounterValue("serve_requests_total");
      if (total < last_total) ++monotonicity_violations;
      last_total = total;
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < 3; ++t) threads[static_cast<size_t>(t)].join();
  stop = true;
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(monotonicity_violations.load(), 0);

  service->Shutdown();
  MetricsSnapshot snapshot = metrics.Snapshot();
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
  EXPECT_EQ(snapshot.CounterValue("serve_requests_total"), accounted);
  EXPECT_GT(snapshot.CounterValue("serve_requests_invalid_total"), 0);
  service.reset();
  std::remove(path.c_str());
}

// Satellite 3: concurrent FaultInjector arm/fire. Armer threads keep
// loading ammunition while consumer threads poll the Consume* hooks.
// Invariant: with no Reset in flight, the number of fires observed by
// consumers equals faults_fired() exactly — no lost or double-counted
// fire under any interleaving.
TEST_F(RaceTest, FaultInjectorConcurrentArmAndFireKeepsCountersConsistent) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();

  constexpr int kArmers = 2;
  constexpr int kArmsPerArmer = 50;
  constexpr int kRoundsPerArm = 3;  // Each arm loads this many fires.
  constexpr int kConsumers = 4;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> observed_fires{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < kArmers; ++a) {
    threads.emplace_back([&injector, a] {
      for (int i = 0; i < kArmsPerArmer; ++i) {
        if ((a + i) % 2 == 0) {
          injector.ArmSlowOps(kRoundsPerArm, 0.25);
        } else {
          injector.ArmLoadFailures(kRoundsPerArm);
        }
        std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&injector, &stop, &observed_fires, c] {
      while (!stop.load()) {
        if (c % 2 == 0) {
          if (injector.ConsumeSlowOp() > 0.0) ++observed_fires;
        } else {
          if (injector.ConsumeLoadFailure()) ++observed_fires;
        }
      }
    });
  }
  // Join the armers, then let consumers drain whatever is still loaded.
  for (int a = 0; a < kArmers; ++a) threads[a].join();
  // No new ammunition is coming; wait for the consumers to drain whatever
  // the final arms loaded before stopping them.
  while (injector.enabled()) std::this_thread::yield();
  stop = true;
  for (size_t t = kArmers; t < threads.size(); ++t) threads[t].join();

  // ArmSlowOps/ArmLoadFailures overwrite any unconsumed count from a
  // previous arm, so the exact fired total is schedule-dependent — but the
  // injector's own ledger and the consumers' observations must agree.
  EXPECT_EQ(observed_fires.load(), injector.faults_fired());
  EXPECT_GE(injector.faults_fired(), kRoundsPerArm);  // At least the last arm.
  EXPECT_FALSE(injector.enabled());
  // A consumer poll on the quiesced injector fires nothing.
  EXPECT_EQ(injector.ConsumeSlowOp(), 0.0);
  EXPECT_FALSE(injector.ConsumeLoadFailure());
}

// Satellite 3 variant: Reset() churn racing arm/fire. With Reset in the
// mix exact counts are unknowable; the invariants are no crash, no TSan
// report, and a clean final state after the last Reset.
TEST_F(RaceTest, FaultInjectorSurvivesResetChurn) {
  FaultInjector& injector = FaultInjector::Instance();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&injector, &stop] {
    while (!stop.load()) {
      injector.ArmSlowOps(2, 0.1);
      injector.ArmNanLoss(1);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&injector, &stop] {
    while (!stop.load()) {
      injector.ConsumeSlowOp();
      injector.ConsumeNanLoss();
    }
  });
  threads.emplace_back([&injector, &stop] {
    while (!stop.load()) {
      injector.Reset();
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop = true;
  for (std::thread& t : threads) t.join();
  injector.Reset();
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.faults_fired(), 0);
  EXPECT_EQ(injector.ConsumeSlowOp(), 0.0);
}

// Tentpole stress: pool teardown with tasks in flight. Submitters race
// Shutdown from the main thread; the exactly-once resolution contract
// (run XOR cancelled, counted via one shared counter) must hold for every
// task that was admitted, across many construct/destroy generations.
TEST_F(RaceTest, PoolTeardownWithInFlightTasksResolvesEveryAdmittedTask) {
  constexpr int kGenerations = 8;
  for (int gen = 0; gen < kGenerations; ++gen) {
    ThreadPoolOptions options;
    options.num_threads = 3;
    options.queue_capacity = 16;
    auto pool = std::make_unique<ThreadPool>(options);

    std::atomic<int64_t> admitted{0};
    std::atomic<int64_t> resolved{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&pool, &admitted, &resolved, &stop] {
        while (!stop.load()) {
          Status st = pool->TrySubmit([&resolved] { ++resolved; },
                                      [&resolved] { ++resolved; });
          if (st.ok()) {
            ++admitted;
          } else {
            // Rejection must be one of the two documented reasons.
            ASSERT_EQ(st.code(), StatusCode::kUnavailable);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(gen % 3 + 1));
    pool->Shutdown();  // Races active submitters.
    stop = true;
    for (std::thread& t : submitters) t.join();
    pool.reset();  // Destructor after Shutdown: idempotent.
    EXPECT_EQ(resolved.load(), admitted.load()) << "generation " << gen;
  }
}

// Tentpole (online fold-in): an OnlineUpdater cycling
// ingest -> apply -> PublishDelta -> LoadDelta on its own thread while
// client threads hammer Recommend. Each LoadDelta atomically swaps the
// live snapshot under the scorers. Invariants: every response definite,
// never degraded (every delta in the chain is valid), every publish
// accepted, and the full request-accounting identity holds after join.
TEST_F(RaceTest, UpdaterPublishingDeltasWhileServingStaysConsistent) {
  const std::string base_path = TestTempPath("race_delta_base.snap");
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
  RecServiceOptions options = RaceOptions(1);
  options.metrics = &metrics;
  RecService service(RaceFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(base_path).ok());

  OnlineUpdaterOptions updater_options;
  auto seeded = OnlineUpdater::FromSnapshot(base_path, {}, updater_options);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  std::unique_ptr<OnlineUpdater> updater = std::move(seeded.value());

  constexpr int kRounds = 8;
  constexpr int kEdgesPerRound = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> indefinite{0};
  std::atomic<int64_t> degraded{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&service, &stop, &indefinite, &degraded, t] {
      int64_t user = t;
      while (!stop.load()) {
        RecRequest request;
        request.user = user++ % kNumUsers;
        RecResponse response = service.Recommend(std::move(request));
        if (!IsDefinite(response)) ++indefinite;
        if (response.degraded) ++degraded;
      }
    });
  }

  // The updater runs on the main thread: Recommend races LoadDelta's
  // snapshot swap, which is the schedule TSan needs to see.
  int64_t next_edge = 0;
  for (int round = 0; round < kRounds; ++round) {
    EdgeList batch;
    for (int e = 0; e < kEdgesPerRound; ++e, ++next_edge) {
      batch.push_back({next_edge % kNumUsers,
                       (next_edge / kNumUsers) % kNumItems});
    }
    ASSERT_TRUE(updater->AddInteractions(batch).ok());
    ASSERT_TRUE(updater->ApplyPending().ok());
    const std::string delta_path =
        TestTempPath(("race_delta_" + std::to_string(round) + ".delta").c_str());
    ASSERT_TRUE(updater->PublishDelta(delta_path).ok());
    Status load = service.LoadDelta(delta_path);
    ASSERT_TRUE(load.ok()) << "round " << round << ": " << load.ToString();
    std::remove(delta_path.c_str());
  }
  stop = true;
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(indefinite.load(), 0);
  EXPECT_EQ(degraded.load(), 0);
  EXPECT_EQ(service.snapshot()->version(), 1 + kRounds);

  service.Shutdown();
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serve_delta_publishes_total"), kRounds);
  EXPECT_EQ(snapshot.CounterValue("serve_delta_rejected_total"), 0);
  const int64_t accounted =
      snapshot.CounterValue("serve_requests_ok_total") +
      snapshot.CounterValue("serve_requests_degraded_total") +
      snapshot.CounterValue("serve_requests_partial_degraded_total") +
      snapshot.CounterValue("serve_requests_shed_total") +
      snapshot.CounterValue("serve_requests_shed_queue_delay_total") +
      snapshot.CounterValue("serve_requests_shed_predicted_late_total") +
      snapshot.CounterValue("serve_requests_deadline_exceeded_total") +
      snapshot.CounterValue("serve_requests_invalid_total") +
      snapshot.CounterValue("serve_requests_error_total") +
      snapshot.CounterValue("serve_requests_cancelled_total");
  EXPECT_EQ(snapshot.CounterValue("serve_requests_total"), accounted);
  std::remove(base_path.c_str());
}

/// Trips a breaker on a fake clock and records every transition under a
/// mutex (the breaker fires its listener on whichever thread caused the
/// change). Shared by the two half-open probe race tests below.
struct TrippedBreaker {
  std::shared_ptr<std::atomic<double>> clock =
      std::make_shared<std::atomic<double>>(0.0);
  std::unique_ptr<CircuitBreaker> breaker;
  std::mutex mu;
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>>
      transitions;

  TrippedBreaker() {
    CircuitBreaker::Options options;
    options.failure_threshold = 3;
    options.cooldown_ms = 50.0;
    auto clock_copy = clock;
    breaker = std::make_unique<CircuitBreaker>(
        options, [clock_copy] { return clock_copy->load(); });
    breaker->set_on_transition(
        [this](CircuitBreaker::State from, CircuitBreaker::State to) {
          std::lock_guard<std::mutex> lock(mu);
          transitions.emplace_back(from, to);
        });
    for (int i = 0; i < 3; ++i) breaker->RecordFailure();
    EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
    clock->store(60.0);  // Past the cooldown: next AllowRequest probes.
  }
};

// Half-open probe race: after the cooldown, many threads race
// AllowRequest. Exactly one must win the probe slot — and the open →
// half-open edge must be a single transition event no matter how many
// threads pile onto the cooldown boundary at once.
TEST_F(RaceTest, HalfOpenAdmitsExactlyOneProbeUnderContention) {
  TrippedBreaker fixture;
  constexpr int kThreads = 8;
  std::atomic<int> admitted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &admitted, &go] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 100; ++i) {
        if (fixture.breaker->AllowRequest()) ++admitted;
      }
    });
  }
  go = true;
  for (std::thread& t : threads) t.join();

  // One probe admitted, everyone else rejected until it reports back.
  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(fixture.breaker->state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_EQ(fixture.transitions.size(), 2u);
  EXPECT_EQ(fixture.transitions[0],
            std::make_pair(CircuitBreaker::State::kClosed,
                           CircuitBreaker::State::kOpen));
  EXPECT_EQ(fixture.transitions[1],
            std::make_pair(CircuitBreaker::State::kOpen,
                           CircuitBreaker::State::kHalfOpen));

  // The probe succeeds — reported by many racing threads at once (e.g. a
  // snapshot reload broadcasting recovery). The half-open → closed edge
  // must still be exactly one transition event.
  constexpr int kReporters = 8;
  std::atomic<bool> report{false};
  std::vector<std::thread> reporters;
  for (int t = 0; t < kReporters; ++t) {
    reporters.emplace_back([&fixture, &report] {
      while (!report.load()) std::this_thread::yield();
      fixture.breaker->RecordSuccess();
    });
  }
  report = true;
  for (std::thread& t : reporters) t.join();

  EXPECT_EQ(fixture.breaker->state(), CircuitBreaker::State::kClosed);
  ASSERT_EQ(fixture.transitions.size(), 3u);
  EXPECT_EQ(fixture.transitions[2],
            std::make_pair(CircuitBreaker::State::kHalfOpen,
                           CircuitBreaker::State::kClosed));
}

// The unlucky variant: the admitted probe fails while other threads are
// failing too. The half-open → open re-trip must be one transition event,
// and the breaker must end open (no ghost half-open flapping).
TEST_F(RaceTest, HalfOpenProbeFailureReopensWithSingleTransition) {
  TrippedBreaker fixture;
  ASSERT_TRUE(fixture.breaker->AllowRequest());  // The probe slot.
  ASSERT_EQ(fixture.breaker->state(), CircuitBreaker::State::kHalfOpen);

  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &go] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) fixture.breaker->RecordFailure();
    });
  }
  go = true;
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fixture.breaker->state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(fixture.transitions.size(), 3u);
  EXPECT_EQ(fixture.transitions[2],
            std::make_pair(CircuitBreaker::State::kHalfOpen,
                           CircuitBreaker::State::kOpen));

  // And the cycle still works afterwards: cooldown again, one probe,
  // success closes — no state corruption from the racing failures.
  fixture.clock->store(200.0);
  EXPECT_TRUE(fixture.breaker->AllowRequest());
  fixture.breaker->RecordSuccess();
  EXPECT_EQ(fixture.breaker->state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(fixture.transitions.size(), 5u);
}

// ParallelFor under submission pressure from other threads: helper
// requests may be rejected by a full queue at any moment, and the loop
// must still cover every index exactly once.
TEST_F(RaceTest, ParallelForUnderConcurrentSubmissionPressure) {
  ThreadPoolOptions options;
  options.num_threads = 3;
  options.queue_capacity = 4;  // Tiny: helpers fight external tasks.
  ThreadPool pool(options);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> noise{0};
  std::thread noisemaker([&pool, &stop, &noise] {
    while (!stop.load()) {
      (void)pool.TrySubmit([&noise] { ++noise; });
    }
  });

  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(2000);
    Status st = pool.ParallelFor(0, 2000, [&hits](int64_t i) { ++hits[i]; });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
  stop = true;
  noisemaker.join();
  pool.Shutdown();
}

/// Best-effort one-shot scrape client: a single connect attempt (the
/// server may be mid-restart), then read until EOF. Returns "" on any
/// failure — the restart churn makes refused connections a legal outcome.
std::string TryScrape(const std::string& socket_path,
                      const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return "";
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  // MSG_NOSIGNAL: the server restarting mid-request closes the connection,
  // and a plain write() into it would SIGPIPE the whole test binary.
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Scrape-server lifecycle churn: client threads hammer /healthz while the
// main thread cycles Stop()/Start() on the same socket path. Every client
// outcome must be definite (a complete response or a cleanly failed
// connect — never a torn read or a crash), the socket file must be gone
// after every Stop (unlinked exactly once, by the server), and the final
// restart must still serve. TSan polices the provider/accept-thread and
// Start/Stop handoffs.
TEST_F(RaceTest, ScrapeRestartRacingInFlightHealthz) {
  MetricsRegistry registry;
  MetricsScrapeServer server(&registry);
  std::atomic<int64_t> provider_calls{0};
  server.set_health_provider([&provider_calls] {
    provider_calls.fetch_add(1, std::memory_order_relaxed);
    return std::string("{\"status\":\"churning\"}");
  });
  const std::string path = TestTempPath("race_scrape_restart.sock");
  ASSERT_TRUE(server.Start(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string response =
            TryScrape(path, "GET /healthz HTTP/1.0\r\n\r\n");
        if (response.empty()) continue;  // Refused mid-restart: legal.
        if (response.find("HTTP/1.0 200 OK") != std::string::npos &&
            response.find("\"status\":\"churning\"}") != std::string::npos) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int cycle = 0; cycle < 10; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.Stop();
    // Only the server ever creates or unlinks the socket file, so right
    // here — stopped, not yet restarted — it must be gone.
    ASSERT_FALSE(::access(path.c_str(), F_OK) == 0) << "cycle " << cycle;
    ASSERT_TRUE(server.Start(path).ok()) << "cycle " << cycle;
  }
  // Let the clients land at least one complete response on the final
  // incarnation, so the test demonstrably exercised the served path.
  while (served.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_GE(provider_calls.load(), served.load());
  EXPECT_FALSE(::access(path.c_str(), F_OK) == 0);
}

}  // namespace
}  // namespace imcat
