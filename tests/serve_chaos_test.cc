// Chaos tests for the serving layer: concurrent request threads hammer the
// RecService while a driver thread injects snapshot corruption (read-side
// bit flips), load failures and forced-slow scoring through the
// FaultInjector. The acceptance invariants, checked on every single
// response:
//
//  1. the service never crashes and every request resolves to a definite
//     Status (OK / kInvalidArgument / kDeadlineExceeded / kUnavailable) or
//     a degraded popularity fallback;
//  2. once the faults stop and a good snapshot is reloaded, the breaker
//     closes again and the service serves real scores bit-identical to a
//     fault-free run.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "tensor/checkpoint.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace imcat {
namespace {

constexpr int64_t kNumUsers = 40;
constexpr int64_t kNumItems = 120;
constexpr int64_t kDim = 8;
constexpr int64_t kTopK = 10;

RecRequest Req(int64_t user, double deadline_ms = 0.0) {
  RecRequest request;
  request.user = user;
  request.deadline_ms = deadline_ms;
  return request;
}

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

void WriteGoodSnapshot(const std::string& path) {
  std::vector<Tensor> tensors;
  tensors.push_back(MakeTable(kNumUsers, kDim, 0.125f));
  tensors.push_back(MakeTable(kNumItems, kDim, -0.25f));
  Status status = SaveCheckpoint(path, tensors);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

std::shared_ptr<const PopularityRanker> ChaosFallback() {
  EdgeList train;
  for (int64_t u = 0; u < kNumUsers; ++u) {
    // Item degree decays with id so the popularity order is known.
    for (int64_t i = 0; i < kNumItems; i += (u % 7) + 1) {
      train.push_back({u, i});
    }
  }
  return std::make_shared<PopularityRanker>(kNumItems, train);
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(ServeChaosTest, ConcurrentRequestsSurviveInjectedFaultsAndRecover) {
  const std::string path = TestTempPath("chaos_snapshot.ckpt");
  WriteGoodSnapshot(path);

  RecServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = 16;
  options.default_top_k = kTopK;
  options.default_deadline_ms = 8.0;
  options.recommender.block_items = 16;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_ms = 5.0;
  options.load_backoff.max_attempts = 2;
  options.load_backoff.initial_delay_ms = 0.1;
  RecService service(ChaosFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());

  // Fault-free reference: the real-path answer for every user, captured
  // before any fault is armed.
  std::vector<RecResponse> reference(static_cast<size_t>(kNumUsers));
  for (int64_t u = 0; u < kNumUsers; ++u) {
    reference[static_cast<size_t>(u)] =
        service.Recommend(Req(u, -1.0));
    ASSERT_TRUE(reference[static_cast<size_t>(u)].status.ok());
    ASSERT_FALSE(reference[static_cast<size_t>(u)].degraded);
    ASSERT_EQ(reference[static_cast<size_t>(u)].items.size(),
              static_cast<size_t>(kTopK));
  }

  // --- Chaos phase -------------------------------------------------------
  // Request threads mix valid users with malformed ids while the driver
  // injects corruption and failure below.
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int64_t> definite_responses{0};
  std::atomic<int64_t> bad_statuses{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &definite_responses, &bad_statuses, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RecRequest request;
        const int kind = (t * kRequestsPerThread + i) % 10;
        if (kind == 8) {
          request.user = -1 - i;  // Malformed: negative id.
        } else if (kind == 9) {
          request.user = kNumUsers + 1000 + i;  // Malformed: unknown id.
        } else {
          request.user = (t * 13 + i * 7) % kNumUsers;
        }
        RecResponse response = service.Recommend(request);
        definite_responses.fetch_add(1);
        // Invariant 1: every response is definite and self-consistent.
        switch (response.status.code()) {
          case StatusCode::kOk:
            if (response.degraded) {
              if (response.snapshot_version != 0) bad_statuses.fetch_add(1);
            } else if (response.snapshot_version <= 0 ||
                       response.items.empty()) {
              bad_statuses.fetch_add(1);
            }
            break;
          case StatusCode::kInvalidArgument:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kUnavailable:
            if (!response.items.empty()) bad_statuses.fetch_add(1);
            break;
          default:
            bad_statuses.fetch_add(1);  // No other code may escape.
        }
      }
    });
  }

  // Driver: sustained injected chaos while the clients run. Read-side bit
  // flips corrupt reloads of a byte inside the tensor payload (offset 32 is
  // the first float of the user table), load failures reject other reloads
  // outright, and forced-slow scoring burns request deadlines.
  FaultInjector& injector = FaultInjector::Instance();
  for (int round = 0; round < 6; ++round) {
    injector.ArmSlowOps(20, 4.0);
    if (round % 2 == 0) {
      injector.ArmReadBitFlip(/*offset=*/32, /*mask=*/0x08, /*count=*/4);
    } else {
      injector.ArmLoadFailures(4);
    }
    Status reload = service.LoadSnapshot(path);
    // Reloads under injected corruption must fail with a definite error,
    // never publish a corrupt snapshot.
    EXPECT_FALSE(reload.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(definite_responses.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(bad_statuses.load(), 0);
  const RecServiceStats mid_chaos = service.stats();
  EXPECT_GE(mid_chaos.snapshot_load_failures, 6);

  // --- Recovery phase ----------------------------------------------------
  // Faults stop; one good reload must close the breaker and restore real,
  // bit-identical serving.
  injector.Reset();
  Status recovered = service.LoadSnapshot(path);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);

  for (int64_t u = 0; u < kNumUsers; ++u) {
    RecResponse response =
        service.Recommend(Req(u, -1.0));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.degraded);
    const RecResponse& expected = reference[static_cast<size_t>(u)];
    ASSERT_EQ(response.items.size(), expected.items.size()) << "user " << u;
    for (size_t i = 0; i < expected.items.size(); ++i) {
      // Invariant 2: bit-identical to the fault-free run.
      EXPECT_EQ(response.items[i].item, expected.items[i].item)
          << "user " << u << " rank " << i;
      EXPECT_EQ(response.items[i].score, expected.items[i].score)
          << "user " << u << " rank " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeChaosTest, SnapshotlessChaosAlwaysAnswersFromFallback) {
  // No snapshot is ever loadable: every load fails, yet concurrent clients
  // always get the degraded popularity answer, never an error or a hang.
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 32;
  options.default_top_k = 5;
  options.load_backoff.max_attempts = 1;
  RecService service(ChaosFallback(), options);

  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmLoadFailures(1000);
  std::atomic<int64_t> degraded{0};
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&service, &degraded, &violations, t] {
      for (int i = 0; i < 25; ++i) {
        RecResponse response =
            service.Recommend(Req((t * 11 + i) % kNumUsers));
        if (response.status.ok() && response.degraded &&
            !response.items.empty()) {
          degraded.fetch_add(1);
        } else if (response.status.code() != StatusCode::kUnavailable) {
          violations.fetch_add(1);
        }
      }
    });
  }
  const std::string path = TestTempPath("chaos_never_loads.ckpt");
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(service.LoadSnapshot(path).ok());
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(degraded.load(), 0);
  EXPECT_EQ(service.snapshot(), nullptr);
}

TEST_F(ServeChaosTest, MetricsAccountingIdentityHoldsExactlyUnderChaos) {
  // Drives the four fault-visible outcomes — ok, shed, deadline-exceeded
  // and degraded — with controlled injected faults, then asserts the
  // exact-accounting identity on the live counters:
  //   serve_requests_total == ok + shed + deadline_exceeded + degraded
  // (no invalid/error/cancelled/partial-degraded traffic is generated, so
  // those stay zero and the four-term identity must hold with equality;
  // the partial-degraded term is exercised in shard_fault_test.cc).
  const std::string path = TestTempPath("chaos_metrics_snapshot.ckpt");
  WriteGoodSnapshot(path);

  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 1;  // Single worker: a stalled task backs up the
  options.queue_capacity = 2;  // tiny queue deterministically.
  options.default_top_k = kTopK;
  options.default_deadline_ms = 1.0;
  options.recommender.block_items = 16;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 1e9;  // Once open, stays open.
  options.load_backoff.max_attempts = 1;
  options.metrics = &metrics;
  RecService service(ChaosFallback(), options);
  ASSERT_TRUE(service.LoadSnapshot(path).ok());
  FaultInjector& injector = FaultInjector::Instance();

  // Phase 1 — ok: fault-free real-path requests with no deadline.
  for (int64_t u = 0; u < 10; ++u) {
    RecResponse response = service.Recommend(Req(u, -1.0));
    ASSERT_TRUE(response.status.ok());
    ASSERT_FALSE(response.degraded);
  }

  // Phase 2 — shed: forced-slow scoring stalls the worker, the queue
  // (capacity 2) fills, and every further Submit is shed immediately.
  injector.ArmSlowOps(1000, 2.0);
  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 13; ++i) {
    futures.push_back(service.Submit(Req(i % kNumUsers, -1.0)));
  }
  int64_t shed_seen = 0;
  for (auto& future : futures) {
    RecResponse response = future.get();
    if (response.status.code() == StatusCode::kUnavailable) ++shed_seen;
  }
  EXPECT_GE(shed_seen, 10);  // 13 submitted, 1 running + 2 queued at most.
  injector.Reset();

  // Phase 3 — deadline: slow scoring against a 1 ms budget. The two
  // consecutive failures also trip the breaker (threshold 2).
  injector.ArmSlowOps(50, 5.0);
  for (int i = 0; i < 2; ++i) {
    RecResponse response = service.Recommend(Req(3, 1.0));
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  }
  injector.Reset();
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);

  // Phase 4 — degraded: the open breaker routes everything to fallback.
  for (int i = 0; i < 5; ++i) {
    RecResponse response = service.Recommend(Req(5, -1.0));
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.degraded);
  }

  // Every submitted future has resolved, so the relaxed counters are
  // exact. The issue's acceptance identity, with equality:
  MetricsSnapshot snapshot = metrics.Snapshot();
  const int64_t total = snapshot.CounterValue("serve_requests_total");
  const int64_t ok = snapshot.CounterValue("serve_requests_ok_total");
  const int64_t shed = snapshot.CounterValue("serve_requests_shed_total");
  const int64_t deadline =
      snapshot.CounterValue("serve_requests_deadline_exceeded_total");
  const int64_t degraded =
      snapshot.CounterValue("serve_requests_degraded_total");
  const int64_t partial =
      snapshot.CounterValue("serve_requests_partial_degraded_total");
  const int64_t shed_queue_delay =
      snapshot.CounterValue("serve_requests_shed_queue_delay_total");
  const int64_t shed_predicted_late =
      snapshot.CounterValue("serve_requests_shed_predicted_late_total");
  EXPECT_EQ(total, ok + shed + shed_queue_delay + shed_predicted_late +
                       deadline + degraded + partial);
  EXPECT_EQ(total, 10 + 13 + 2 + 5);
  EXPECT_GE(ok, 10);
  EXPECT_EQ(shed, shed_seen);
  EXPECT_EQ(deadline, 2);
  EXPECT_EQ(degraded, 5);
  // The outcomes not driven here stayed exactly zero (the monolithic v2
  // snapshot has no shards to quarantine, so partial-degraded cannot
  // occur, and the overload controller is disabled so neither adaptive
  // shed outcome can fire).
  EXPECT_EQ(partial, 0);
  EXPECT_EQ(shed_queue_delay, 0);
  EXPECT_EQ(shed_predicted_late, 0);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_invalid_total"), 0);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_error_total"), 0);
  EXPECT_EQ(snapshot.CounterValue("serve_requests_cancelled_total"), 0);
  // Breaker observability: at least closed->open was recorded, and the
  // state gauge reads open (1).
  EXPECT_GE(snapshot.CounterValue("serve_breaker_transitions_total"), 1);
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "serve_breaker_state") {
      EXPECT_DOUBLE_EQ(
          value, static_cast<double>(CircuitBreaker::State::kOpen));
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeChaosTest, ShutdownDuringChaosResolvesEveryQueuedRequest) {
  const std::string path = TestTempPath("chaos_shutdown.ckpt");
  WriteGoodSnapshot(path);
  RecServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  options.default_deadline_ms = -1.0;
  options.recommender.block_items = 4;
  auto service = std::make_unique<RecService>(ChaosFallback(), options);
  ASSERT_TRUE(service->LoadSnapshot(path).ok());

  // Stall the single worker so requests pile up, then shut down with the
  // queue non-empty: every future must still resolve definitively.
  FaultInjector::Instance().ArmSlowOps(1000, 5.0);
  std::vector<std::future<RecResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service->Submit(Req(i % kNumUsers)));
  }
  service->Shutdown();
  int64_t resolved = 0;
  for (auto& future : futures) {
    RecResponse response = future.get();
    ++resolved;
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(resolved, 12);
  service.reset();  // Destructor after explicit Shutdown: no double join.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imcat
