// Production traffic harness for the serving stack (DESIGN.md §10,
// docs/OPERATIONS.md §6): replays power-law user traffic against a real
// RecService and measures how goodput degrades — or doesn't — as offered
// load crosses capacity.
//
// Protocol, per mode (controller = adaptive overload control on with
// request coalescing into multi-user scoring batches, controller_nobatch
// = controller on but max_batch_size 1, baseline = controller and
// batching disabled, everything else identical):
//
//   1. measure capacity with a closed loop (one request in flight; the
//      completion rate is the service's intrinsic throughput);
//   2. sweep open-loop offered load at fixed multiples of that capacity
//      (arrivals fire on a wall-clock schedule whether or not earlier
//      requests finished — the regime where queues actually explode);
//   3. during every sweep run, a churn thread hot-reloads the serving
//      snapshot, so the numbers include reload interference, and the
//      request mix spans priorities (interactive/batch) and deadlines.
//
// Goodput counts a request only when the *client-observed* latency
// (submit to future-resolved, queue wait included) beat its deadline —
// a late OK is not good. The interesting contrasts are at >= 1x
// capacity: the baseline keeps accepting work it cannot finish in time,
// so its queue grows until almost every answer is late (classic
// metastable collapse); the controller sheds the excess at admission and
// keeps the accepted requests' p99 inside the deadline; and coalescing
// (controller vs controller_nobatch) drains the built-up queue in
// multi-user batches whose per-request cost is amortised by the blocked
// kernel (DESIGN.md §12), lifting goodput at the saturated points.
//
// Output: BENCH_serving.json (schema "imcat-bench-serving/1", validated
// by scripts/validate_bench_serving.py in the check.sh --docs leg), with
// per-run outcome taxonomy read from the serve_* metrics counters so the
// accounting identity can be re-checked offline.
//
// Usage: load_gen [output.json]      (default BENCH_serving.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace imcat {
namespace {

// Catalogue sized so one full-range scoring pass costs a fraction of a
// millisecond: large enough that a saturated queue is a real queue, small
// enough that the whole sweep finishes in well under a minute.
constexpr int64_t kNumUsers = 2048;
constexpr int64_t kNumItems = 60000;
constexpr int64_t kDim = 32;
constexpr int64_t kTopK = 10;
constexpr int64_t kQueueCapacity = 128;

constexpr double kInteractiveDeadlineMs = 30.0;
constexpr double kBatchDeadlineMs = 60.0;
constexpr double kBatchFraction = 0.3;
constexpr double kZipfExponent = 1.1;

constexpr int64_t kMaxBatchSize = 8;

constexpr double kCapacitySeconds = 0.5;
constexpr double kRunSeconds = 1.5;
constexpr double kReloadPeriodMs = 300.0;
const std::vector<double> kMultipliers = {0.25, 0.5, 1.0, 1.5, 2.0};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tensor MakeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = scale * static_cast<float>(static_cast<int64_t>(i) % 97 - 48);
  }
  return Tensor(rows, cols, std::move(values));
}

std::shared_ptr<const PopularityRanker> Fallback() {
  EdgeList train;
  for (int64_t u = 0; u < 256; ++u) {
    for (int64_t i = u; i < kNumItems; i += 997) train.push_back({u, i});
  }
  return std::make_shared<PopularityRanker>(kNumItems, train);
}

/// Deterministic 64-bit LCG (same constants as MMIX); the harness must
/// replay the identical arrival schedule in both modes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  double NextUnit() {
    return static_cast<double>(Next() % (1ULL << 40)) /
           static_cast<double>(1ULL << 40);
  }

 private:
  uint64_t state_;
};

/// Power-law user sampler: CDF of rank^-s over the user universe, sampled
/// by binary search. Head users dominate, the tail stays warm — the shape
/// that makes caching lies and uniform-load assumptions fail.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int64_t Sample(double unit) const {
    return static_cast<int64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), unit) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct SentRecord {
  double send_ms = 0.0;
  double deadline_ms = 0.0;
  bool batch = false;
  std::future<RecResponse> future;
};

struct RunResult {
  std::string mode;
  double multiplier = 0.0;
  double offered_qps = 0.0;
  int64_t sent = 0;
  int64_t good = 0;
  double goodput_qps = 0.0;
  double goodput_fraction = 0.0;
  double shed_rate = 0.0;
  double accepted_p50_ms = 0.0;
  double accepted_p95_ms = 0.0;
  double accepted_p99_ms = 0.0;
  double accepted_interactive_p99_ms = 0.0;
  double accepted_batch_p99_ms = 0.0;
  int64_t max_brownout_level = 0;
  int64_t brownout_transitions = 0;
  int64_t reloads = 0;
  MetricsSnapshot metrics;
};

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[std::min(index, values->size() - 1)];
}

RecServiceOptions ServiceOptions(bool controller, int64_t max_batch_size,
                                 MetricsRegistry* metrics) {
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = kQueueCapacity;
  options.default_top_k = kTopK;
  options.default_deadline_ms = kInteractiveDeadlineMs;
  options.max_batch_size = max_batch_size;
  options.metrics = metrics;
  options.overload.enabled = controller;
  // Saturated at 2x capacity the queue-wait signal moves in milliseconds;
  // a tight target + interval reacts within a few tens of requests.
  options.overload.target_ms = 5.0;
  options.overload.interval_ms = 50.0;
  options.overload.ladder_up_ms = 100.0;
  options.overload.ladder_down_ms = 200.0;
  return options;
}

/// Closed-loop capacity: completions per second with exactly one request
/// in flight, i.e. 1 / mean service time. Run on a controller-less
/// service so the measurement is pure scoring cost.
double MeasureCapacityQps(const std::string& snapshot_path) {
  MetricsRegistry metrics;
  RecService service(Fallback(), ServiceOptions(false, 1, &metrics));
  Status loaded = service.LoadSnapshot(snapshot_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "capacity load failed: %s\n",
                 loaded.ToString().c_str());
    return -1.0;
  }
  Rng rng(1);
  ZipfSampler zipf(kNumUsers, kZipfExponent);
  // Warm up caches and the pool before timing.
  for (int i = 0; i < 50; ++i) {
    RecRequest request;
    request.user = zipf.Sample(rng.NextUnit());
    request.deadline_ms = -1.0;
    service.Recommend(std::move(request));
  }
  const double start = NowMs();
  int64_t completed = 0;
  while (NowMs() - start < kCapacitySeconds * 1000.0) {
    RecRequest request;
    request.user = zipf.Sample(rng.NextUnit());
    request.deadline_ms = -1.0;
    service.Recommend(std::move(request));
    ++completed;
  }
  const double elapsed_ms = NowMs() - start;
  service.Shutdown();
  return static_cast<double>(completed) / (elapsed_ms / 1000.0);
}

struct ModeSpec {
  const char* name;
  bool controller;
  int64_t max_batch_size;
};

RunResult RunSweepPoint(const std::string& snapshot_path,
                        const ModeSpec& mode, double capacity_qps,
                        double multiplier) {
  RunResult result;
  result.mode = mode.name;
  result.multiplier = multiplier;
  result.offered_qps = capacity_qps * multiplier;

  MetricsRegistry metrics;
  RecService service(
      Fallback(),
      ServiceOptions(mode.controller, mode.max_batch_size, &metrics));
  Status loaded = service.LoadSnapshot(snapshot_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "sweep load failed: %s\n", loaded.ToString().c_str());
    return result;
  }

  // Churn thread: hot-reloads the snapshot during the run, as a real
  // fleet's publisher would mid-incident.
  std::atomic<bool> stop_churn{false};
  std::atomic<int64_t> reloads{0};
  std::thread churn([&service, &snapshot_path, &stop_churn, &reloads] {
    while (!stop_churn.load()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kReloadPeriodMs));
      if (stop_churn.load()) break;
      if (service.LoadSnapshot(snapshot_path).ok()) ++reloads;
    }
  });

  // Open-loop dispatch: arrivals fire on schedule in 2 ms ticks; a
  // concurrent FIFO harvester blocks on the oldest future and stamps its
  // client-observed completion, so latency is measured when the answer
  // lands, not when the run ends. (Completions are near-FIFO — one queue,
  // two workers — so charging max(own, predecessor) completion is
  // faithful.) The seed is shared across modes so both replay the same
  // trace.
  std::mutex harvest_mu;
  std::condition_variable harvest_cv;
  std::deque<SentRecord> in_flight;
  bool dispatch_done = false;
  std::vector<double> accepted_latencies;
  std::vector<double> accepted_interactive;
  std::vector<double> accepted_batch;
  std::thread harvester([&] {
    while (true) {
      SentRecord record;
      {
        std::unique_lock<std::mutex> lock(harvest_mu);
        harvest_cv.wait(lock, [&] {
          return !in_flight.empty() || dispatch_done;
        });
        if (in_flight.empty()) return;
        record = std::move(in_flight.front());
        in_flight.pop_front();
      }
      RecResponse response = record.future.get();
      const double latency_ms = NowMs() - record.send_ms;
      if (response.status.ok()) {
        accepted_latencies.push_back(latency_ms);
        (record.batch ? accepted_batch : accepted_interactive)
            .push_back(latency_ms);
        if (latency_ms <= record.deadline_ms) ++result.good;
      }
    }
  });

  Rng rng(42);
  ZipfSampler zipf(kNumUsers, kZipfExponent);
  const double interarrival_ms = 1000.0 / result.offered_qps;
  int64_t max_level = 0;
  const double start = NowMs();
  double next_send = start;
  while (true) {
    const double now = NowMs();
    if (now - start >= kRunSeconds * 1000.0) break;
    while (next_send <= now) {
      RecRequest request;
      request.user = zipf.Sample(rng.NextUnit());
      const bool batch = rng.NextUnit() < kBatchFraction;
      request.priority =
          batch ? RequestPriority::kBatch : RequestPriority::kInteractive;
      request.deadline_ms = batch ? kBatchDeadlineMs : kInteractiveDeadlineMs;
      SentRecord record;
      record.send_ms = NowMs();
      record.deadline_ms = request.deadline_ms;
      record.batch = batch;
      record.future = service.Submit(std::move(request));
      {
        std::lock_guard<std::mutex> lock(harvest_mu);
        in_flight.push_back(std::move(record));
      }
      harvest_cv.notify_one();
      ++result.sent;
      next_send += interarrival_ms;
    }
    max_level = std::max(max_level, service.brownout_level());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(harvest_mu);
    dispatch_done = true;
  }
  harvest_cv.notify_one();
  harvester.join();
  stop_churn = true;
  churn.join();
  max_level = std::max(max_level, service.brownout_level());
  service.Shutdown();

  result.goodput_qps = static_cast<double>(result.good) / kRunSeconds;
  result.goodput_fraction =
      result.sent > 0
          ? static_cast<double>(result.good) / static_cast<double>(result.sent)
          : 0.0;
  result.accepted_p50_ms = Percentile(&accepted_latencies, 0.50);
  result.accepted_p95_ms = Percentile(&accepted_latencies, 0.95);
  result.accepted_p99_ms = Percentile(&accepted_latencies, 0.99);
  result.accepted_interactive_p99_ms = Percentile(&accepted_interactive, 0.99);
  result.accepted_batch_p99_ms = Percentile(&accepted_batch, 0.99);
  result.max_brownout_level = max_level;
  result.brownout_transitions = service.stats().brownout_transitions;
  result.reloads = reloads.load();
  result.metrics = metrics.Snapshot();

  const int64_t total = result.metrics.CounterValue("serve_requests_total");
  const int64_t shed =
      result.metrics.CounterValue("serve_requests_shed_total") +
      result.metrics.CounterValue("serve_requests_shed_queue_delay_total") +
      result.metrics.CounterValue("serve_requests_shed_predicted_late_total");
  result.shed_rate =
      total > 0 ? static_cast<double>(shed) / static_cast<double>(total) : 0.0;
  return result;
}

void AppendOutcome(std::ostringstream* out, const MetricsSnapshot& metrics,
                   const char* json_key, const char* counter,
                   bool* first) {
  if (!*first) *out << ",";
  *first = false;
  *out << "\"" << json_key << "\":" << metrics.CounterValue(counter);
}

std::string RunJson(const RunResult& run) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "    {\"mode\":\"" << run.mode << "\","
      << "\"qps_multiplier\":" << run.multiplier << ","
      << "\"offered_qps\":" << run.offered_qps << ","
      << "\"sent\":" << run.sent << ","
      << "\"requests_total\":"
      << run.metrics.CounterValue("serve_requests_total") << ","
      << "\"outcomes\":{";
  bool first = true;
  AppendOutcome(&out, run.metrics, "ok", "serve_requests_ok_total", &first);
  AppendOutcome(&out, run.metrics, "degraded",
                "serve_requests_degraded_total", &first);
  AppendOutcome(&out, run.metrics, "partial_degraded",
                "serve_requests_partial_degraded_total", &first);
  AppendOutcome(&out, run.metrics, "shed", "serve_requests_shed_total",
                &first);
  AppendOutcome(&out, run.metrics, "shed_queue_delay",
                "serve_requests_shed_queue_delay_total", &first);
  AppendOutcome(&out, run.metrics, "shed_predicted_late",
                "serve_requests_shed_predicted_late_total", &first);
  AppendOutcome(&out, run.metrics, "deadline_exceeded",
                "serve_requests_deadline_exceeded_total", &first);
  AppendOutcome(&out, run.metrics, "invalid", "serve_requests_invalid_total",
                &first);
  AppendOutcome(&out, run.metrics, "error", "serve_requests_error_total",
                &first);
  AppendOutcome(&out, run.metrics, "cancelled",
                "serve_requests_cancelled_total", &first);
  out << "},"
      << "\"goodput_qps\":" << run.goodput_qps << ","
      << "\"goodput_fraction\":" << run.goodput_fraction << ","
      << "\"shed_rate\":" << run.shed_rate << ","
      << "\"accepted_p50_ms\":" << run.accepted_p50_ms << ","
      << "\"accepted_p95_ms\":" << run.accepted_p95_ms << ","
      << "\"accepted_p99_ms\":" << run.accepted_p99_ms << ","
      << "\"accepted_interactive_p99_ms\":" << run.accepted_interactive_p99_ms
      << ","
      << "\"accepted_batch_p99_ms\":" << run.accepted_batch_p99_ms << ","
      << "\"max_brownout_level\":" << run.max_brownout_level << ","
      << "\"brownout_transitions\":" << run.brownout_transitions << ","
      << "\"reloads\":" << run.reloads << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  const std::string output_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const std::string snapshot_path = "bench_load_gen_snapshot.ims3";
  {
    Status status = WriteShardedSnapshot(snapshot_path,
                                         MakeTable(kNumUsers, kDim, 0.02f),
                                         MakeTable(kNumItems, kDim, -0.02f));
    if (!status.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "measuring closed-loop capacity...\n");
  const double capacity_qps = MeasureCapacityQps(snapshot_path);
  if (capacity_qps <= 0.0) return 1;
  std::fprintf(stderr, "capacity: %.0f qps\n", capacity_qps);

  std::vector<RunResult> runs;
  const ModeSpec modes[] = {
      {"controller", true, kMaxBatchSize},
      {"controller_nobatch", true, 1},
      {"baseline", false, 1},
  };
  for (const ModeSpec& mode : modes) {
    for (double multiplier : kMultipliers) {
      std::fprintf(stderr, "sweep %s x%.2f (%.0f qps)...\n", mode.name,
                   multiplier, capacity_qps * multiplier);
      runs.push_back(
          RunSweepPoint(snapshot_path, mode, capacity_qps, multiplier));
      const RunResult& run = runs.back();
      std::fprintf(stderr,
                   "  sent=%lld good=%lld goodput=%.0f qps (%.0f%%) "
                   "shed_rate=%.2f p99=%.1f ms brownout_max=%lld\n",
                   static_cast<long long>(run.sent),
                   static_cast<long long>(run.good), run.goodput_qps,
                   100.0 * run.goodput_fraction, run.shed_rate,
                   run.accepted_p99_ms,
                   static_cast<long long>(run.max_brownout_level));
    }
  }

  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\n"
      << "  \"schema\": \"imcat-bench-serving/1\",\n"
      << "  \"generated_by\": \"bench/load_gen\",\n"
      << "  \"config\": {\"users\":" << kNumUsers << ",\"items\":" << kNumItems
      << ",\"dim\":" << kDim << ",\"workers\":2,\"queue_capacity\":"
      << kQueueCapacity
      << ",\"interactive_deadline_ms\":" << kInteractiveDeadlineMs
      << ",\"batch_deadline_ms\":" << kBatchDeadlineMs
      << ",\"batch_fraction\":" << kBatchFraction
      << ",\"zipf_exponent\":" << kZipfExponent
      << ",\"run_seconds\":" << kRunSeconds
      << ",\"max_batch_size\":" << kMaxBatchSize << "},\n"
      << "  \"capacity_qps\": " << capacity_qps << ",\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << RunJson(runs[i]) << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";

  std::ofstream file(output_path);
  file << out.str();
  file.close();
  std::remove(snapshot_path.c_str());
  std::fprintf(stderr, "wrote %s\n", output_path.c_str());
  return 0;
}

}  // namespace
}  // namespace imcat

int main(int argc, char** argv) { return imcat::Main(argc, argv); }
