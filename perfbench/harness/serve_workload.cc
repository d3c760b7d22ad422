// serve_read and serve_publish: a RecService (2 workers, coalescing batches
// of up to 8, overload controller on) over a v3 sharded snapshot of seeded
// random factor tables, 20k users x 100k items x 64 dims. Requests ask for
// the top 20 of a Zipf(1.1)-distributed user.
//
// Phases, after a repeated set-up:
//   closed loop  one generator thread keeps 4 requests outstanding;
//   open loop    the same thread sends at a fixed absolute rate and times
//                each request from when it was due.
// serve_publish loads the snapshot through a SnapshotStore and runs one
// writer thread during both phases: every period it folds a fixed-size
// micro-batch in with OnlineUpdater and publishes it as a delta that the
// service loads (AddInteractions -> ApplyPending -> PublishDelta(store) ->
// RecService::LoadDelta), with retention GC every few publishes.
//
// The generator thread also runs the HostProbe every kProbePeriodMs, and
// set-ups are bracketed by probe bursts. Throughput, latency and set-up
// time are reported scaled by the probe's median over the phase (or
// around the set-up) to the nominal host speed (see host_probe.h).

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness/host_probe.h"
#include "harness/loadgen.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "obs/metrics.h"
#include "serve/popularity.h"
#include "serve/rec_service.h"
#include "serve/recommender.h"
#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "tensor/tensor.h"
#include "train/online_updater.h"

namespace perfbench {
namespace {

constexpr int64_t kUsers = 20000;
constexpr int64_t kItems = 100000;
constexpr int64_t kDim = 64;
constexpr int64_t kItemsPerShard = 4096;
constexpr int64_t kTopK = 20;
constexpr double kZipfExponent = 1.1;
constexpr int64_t kSeenPerUser = 8;
constexpr int64_t kStreamLength = int64_t{1} << 18;
constexpr double kDeadlineMs = 500.0;

constexpr int kSetups = 3;
constexpr int kSetupProbes = 9;  // Probe runs before and after each set-up.
constexpr double kProbePeriodMs = 100.0;  // Probe runs in the timed phases.
// A fixed request count, so the warm-up's share of setup_s moves with the
// service's speed.
constexpr int64_t kWarmupRequests = 40;
constexpr int64_t kClosedConcurrency = 4;
// Fixed absolute open-loop rate, about half the closed-loop capacity
// measured on a 4-core host. Never derived from a probe at run time.
constexpr double kOpenRatePerS = 150.0;
constexpr double kClosedShare = 0.5;  // Of --seconds; the rest is open.
// Open-loop p50 is the median of 1 s windows' p50s, so a host-contention
// phase of a few seconds moves one window, not the run. p99 is taken over
// the whole phase, so a stall in any part of it shows.
constexpr int64_t kSampleEvery = 79;        // Responses kept for checking.

constexpr double kWriterPeriodMs = 1000.0;
constexpr int64_t kBatchEdges = 256;
constexpr int64_t kNewUsersPerBatch = 2;
constexpr int64_t kNewItemsPerBatch = 2;
constexpr int64_t kHotShards[] = {3, 7, 11, 19};
constexpr int64_t kGcEveryPublishes = 10;
constexpr int64_t kChecks = 100;
constexpr int64_t kProbeCalls = 300;

// The 10 outcome counters of RecService's accounting identity.
const char* const kOutcomes[] = {
    "ok",   "degraded",          "partial_degraded", "shed",
    "shed_queue_delay",          "shed_predicted_late",
    "deadline_exceeded",         "invalid",          "error",
    "cancelled"};

double Uniform01(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * (1.0 / 9007199254740992.0);
}

// Draws ids in [0, n) with P(rank r) ~ 1 / (r + 1)^s; ranks are mapped to
// ids through a seeded permutation so popular ids spread over the range.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s, std::mt19937_64* rng)
      : cdf_(static_cast<size_t>(n)), ids_(static_cast<size_t>(n)) {
    double sum = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[static_cast<size_t>(r)] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (int64_t i = 0; i < n; ++i) ids_[static_cast<size_t>(i)] = i;
    for (int64_t i = n - 1; i > 0; --i) {
      const int64_t j = static_cast<int64_t>((*rng)() % static_cast<uint64_t>(i + 1));
      std::swap(ids_[static_cast<size_t>(i)], ids_[static_cast<size_t>(j)]);
    }
  }
  int64_t Draw(std::mt19937_64* rng) const {
    const double u = Uniform01(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const size_t rank = std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return ids_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> ids_;
};

// Everything the library receives, generated from the workload seed.
struct Inputs {
  std::vector<float> users;  // kUsers x kDim, row-major.
  std::vector<float> items;  // kItems x kDim.
  imcat::EdgeList seen;      // Interactions behind popularity and fold-in.
  std::vector<int64_t> stream;  // Request users, in order.
};

Inputs Generate(uint64_t seed) {
  Inputs in;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  in.users.resize(static_cast<size_t>(kUsers * kDim));
  in.items.resize(static_cast<size_t>(kItems * kDim));
  for (float& v : in.users) v = static_cast<float>(Uniform01(&rng) - 0.5);
  for (float& v : in.items) v = static_cast<float>(Uniform01(&rng) - 0.5) * 0.5f;
  ZipfSampler user_zipf(kUsers, kZipfExponent, &rng);
  ZipfSampler item_zipf(kItems, kZipfExponent, &rng);
  for (int64_t u = 0; u < kUsers; ++u) {
    for (int64_t k = 0; k < kSeenPerUser; ++k) {
      in.seen.push_back({u, item_zipf.Draw(&rng)});
    }
  }
  std::sort(in.seen.begin(), in.seen.end());
  in.seen.erase(std::unique(in.seen.begin(), in.seen.end()), in.seen.end());
  in.stream.resize(static_cast<size_t>(kStreamLength));
  for (int64_t& u : in.stream) u = user_zipf.Draw(&rng);
  return in;
}

imcat::Tensor ToTensor(const std::vector<float>& values, int64_t rows) {
  return imcat::Tensor(rows, kDim, values);
}

// Brute-force top-k over raw rows: fp32 dot products accumulated in
// ascending dimension order, ranked by score desc then item id asc.
std::vector<imcat::ScoredItem> BruteTopK(const float* user, const float* items,
                                         int64_t num_items, int64_t k) {
  std::vector<imcat::ScoredItem> all(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) {
    const float* row = items + i * kDim;
    float s = 0.0f;
    for (int64_t d = 0; d < kDim; ++d) s += user[d] * row[d];
    all[static_cast<size_t>(i)] = {i, s};
  }
  auto better = [](const imcat::ScoredItem& a, const imcat::ScoredItem& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  };
  const int64_t keep = std::min(k, num_items);
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), better);
  all.resize(static_cast<size_t>(keep));
  return all;
}

bool SameItems(const std::vector<imcat::ScoredItem>& a,
               const std::vector<imcat::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

struct SampledResponse {
  int64_t user = 0;
  std::vector<imcat::ScoredItem> items;
};

// Drives RecService::Submit for the load loops (see loadgen.h). The
// generator thread both sends and collects, so no harvester thread is
// needed. Given a probe, Wait runs it once every kProbePeriodMs, and only
// when nothing is outstanding (so in the open loop it delays no observed
// completion) or all kClosedConcurrency requests are (so in the closed loop
// the service still has queued work while it runs).
class ServiceClient {
 public:
  ServiceClient(imcat::RecService* service, const std::vector<int64_t>* stream,
                SpanBuffer* spans, HostProbe* probe = nullptr)
      : service_(service), stream_(stream), spans_(spans), probe_(probe) {}

  double NowMs() const { return perfbench::NowMs(); }

  void Send(int64_t index) {
    imcat::RecRequest request;
    request.user = (*stream_)[static_cast<size_t>(cursor_++ % kStreamLength)];
    request.top_k = kTopK;
    request.deadline_ms = kDeadlineMs;
    Pending p;
    p.index = index;
    p.user = request.user;
    {
      ScopedSpan span(spans_, "serve.submit");
      p.future = service_->Submit(std::move(request));
    }
    pending_.push_back(std::move(p));
    ++sent_;
  }

  void Wait(double until_ms) {
    const bool idle_or_full =
        pending_.empty() || outstanding() >= kClosedConcurrency;
    if (probe_ != nullptr && idle_or_full && NowMs() >= next_probe_ms_) {
      ScopedSpan span(spans_, "host.probe");
      const double at = NowMs();
      probes_.push_back({at, probe_->Run()});
      next_probe_ms_ = at + kProbePeriodMs;
    }
    const auto until = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(until_ms)));
    if (pending_.empty()) {
      std::this_thread::sleep_until(until);
    } else {
      pending_.front().future.wait_until(until);
    }
  }

  void Collect(std::vector<Completion>* out) {
    for (size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const double now = NowMs();
      imcat::RecResponse response = p.future.get();
      const bool ok = response.status.ok() && !response.degraded &&
                      !response.partial_degraded;
      out->push_back({p.index, ok, now});
      if (static_cast<int64_t>(queue_wait_ms_.size()) <= p.index) {
        queue_wait_ms_.resize(static_cast<size_t>(p.index) + 1, 0.0);
      }
      queue_wait_ms_[static_cast<size_t>(p.index)] = response.queue_wait_ms;
      if (ok && ++ok_seen_ % kSampleEvery == 0) {
        samples_.push_back({p.user, std::move(response.items)});
      }
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  int64_t outstanding() const { return static_cast<int64_t>(pending_.size()); }

  /// Starts a new phase: per-request queue waits are indexed per phase.
  std::vector<double> TakeQueueWaits() {
    std::vector<double> out;
    out.swap(queue_wait_ms_);
    return out;
  }
  std::vector<SampledResponse>& samples() { return samples_; }
  const std::vector<ProbeSample>& probes() const { return probes_; }
  int64_t sent() const { return sent_; }

 private:
  struct Pending {
    int64_t index = 0;
    int64_t user = 0;
    std::future<imcat::RecResponse> future;
  };
  imcat::RecService* service_;
  const std::vector<int64_t>* stream_;
  SpanBuffer* spans_;
  HostProbe* probe_;
  double next_probe_ms_ = 0.0;
  std::vector<ProbeSample> probes_;
  int64_t cursor_ = 0;
  int64_t sent_ = 0;
  int64_t ok_seen_ = 0;
  std::vector<Pending> pending_;
  std::vector<double> queue_wait_ms_;
  std::vector<SampledResponse> samples_;
};

// One serving stack: service plus (serve_publish) its store and updater.
struct Stack {
  std::unique_ptr<imcat::MetricsRegistry> registry;
  std::unique_ptr<imcat::SnapshotStore> store;
  std::unique_ptr<imcat::RecService> service;
  std::unique_ptr<imcat::OnlineUpdater> updater;
};

imcat::RecServiceOptions ServiceOptions(imcat::MetricsRegistry* registry) {
  imcat::RecServiceOptions options;
  options.num_workers = 2;
  options.max_batch_size = 8;
  options.queue_capacity = 64;
  options.default_top_k = kTopK;
  options.default_deadline_ms = kDeadlineMs;
  options.overload.enabled = true;
  options.metrics = registry;
  return options;
}

std::string Check(const imcat::Status& status, const char* what) {
  return status.ok() ? std::string() : std::string(what) + ": " + status.ToString();
}

// Builds a loaded, warmed-up stack from scratch. Returns an error message,
// or "" on success.
std::string SetUp(const RunConfig& config, bool with_writes, SpanBuffer* spans,
                  Inputs* inputs, Stack* stack, int64_t* warmup_sent) {
  ScopedSpan setup(spans, "serve.setup");
  {
    ScopedSpan s(spans, "data.generate", setup.id());
    *inputs = Generate(config.seed);
  }
  const Inputs& in = *inputs;
  const imcat::Tensor users = ToTensor(in.users, kUsers);
  const imcat::Tensor items = ToTensor(in.items, kItems);
  imcat::ShardedSnapshotOptions snapshot_options;
  snapshot_options.items_per_shard = kItemsPerShard;
  snapshot_options.version = 1;

  stack->registry = std::make_unique<imcat::MetricsRegistry>();
  auto fallback = std::make_shared<imcat::PopularityRanker>(kItems, in.seen);
  std::string full_path;
  if (with_writes) {
    const std::string dir = config.work_dir + "/store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    {
      // The published state a restarted server finds: one full snapshot.
      ScopedSpan s(spans, "snapshot.write", setup.id());
      auto created = imcat::SnapshotStore::Open(dir);
      if (!created.ok()) return Check(created.status(), "store create");
      full_path = created.value()->FullPath(1);
      std::string err = Check(imcat::WriteShardedSnapshot(full_path, users, items,
                                                          snapshot_options),
                              "snapshot write");
      if (err.empty()) err = Check(created.value()->CommitFull(1), "commit");
      if (!err.empty()) return err;
    }
    imcat::SnapshotStoreOptions store_options;
    store_options.gc_on_commit = false;  // GC runs on its own period.
    {
      ScopedSpan s(spans, "store.open", setup.id());
      auto opened = imcat::SnapshotStore::Open(dir, store_options);
      if (!opened.ok()) return Check(opened.status(), "store open");
      stack->store = std::move(opened).value();
    }
    stack->service = std::make_unique<imcat::RecService>(
        fallback, ServiceOptions(stack->registry.get()));
    {
      ScopedSpan s(spans, "store.load", setup.id());
      const std::string err = Check(stack->store->LoadInto(stack->service.get()),
                                    "store load");
      if (!err.empty()) return err;
    }
    stack->store->set_live_version(1);
    {
      ScopedSpan s(spans, "updater.seed", setup.id());
      auto seeded = imcat::OnlineUpdater::FromSnapshot(
          full_path, in.seen, imcat::OnlineUpdaterOptions{});
      if (!seeded.ok()) return Check(seeded.status(), "updater seed");
      stack->updater = std::move(seeded).value();
    }
  } else {
    full_path = config.work_dir + "/snapshot.ims3";
    {
      ScopedSpan s(spans, "snapshot.write", setup.id());
      const std::string err = Check(
          imcat::WriteShardedSnapshot(full_path, users, items, snapshot_options),
          "snapshot write");
      if (!err.empty()) return err;
    }
    stack->service = std::make_unique<imcat::RecService>(
        fallback, ServiceOptions(stack->registry.get()));
    {
      ScopedSpan s(spans, "snapshot.load", setup.id());
      const std::string err =
          Check(stack->service->LoadSnapshot(full_path), "snapshot load");
      if (!err.empty()) return err;
    }
  }
  {
    ScopedSpan s(spans, "serve.warmup", setup.id());
    ServiceClient client(stack->service.get(), &in.stream, nullptr);
    std::vector<Completion> done;
    int64_t collected = 0;
    while (collected < kWarmupRequests) {
      while (client.sent() < kWarmupRequests &&
             client.outstanding() < kClosedConcurrency) {
        client.Send(client.sent());
      }
      client.Wait(NowMs() + 1.0);
      done.clear();
      client.Collect(&done);
      collected += static_cast<int64_t>(done.size());
    }
    *warmup_sent += client.sent();
  }
  return "";
}

struct WriterStats {
  std::vector<double> add_ms, apply_ms, publish_ms, load_delta_ms,
      freshness_ms, gc_ms, delta_bytes, dirty_shards;
  std::string error;
};

// The writer: one fold-in -> publish -> load cycle per period until stopped.
void WriterLoop(const RunConfig& config, const std::vector<int64_t>& stream,
                Stack* stack, SpanBuffer* spans, const std::atomic<bool>* stop,
                WriterStats* stats) {
  imcat::OnlineUpdater* updater = stack->updater.get();
  double next_ms = NowMs();
  for (int64_t tick = 0;; ++tick) {
    while (!stop->load() && NowMs() < next_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (stop->load()) return;
    next_ms += kWriterPeriodMs;

    // A micro-batch clustered on two hot item shards, with brand-new users
    // (linked to hot items) and brand-new items (linked to known users).
    std::mt19937_64 rng(config.seed * 1000003ULL + static_cast<uint64_t>(tick));
    imcat::EdgeList batch;
    const int64_t shard_a = kHotShards[tick % 4];
    const int64_t shard_b = kHotShards[(tick + 1) % 4];
    auto hot_item = [&](int64_t n) {
      const int64_t shard = n % 2 == 0 ? shard_a : shard_b;
      return shard * kItemsPerShard +
             static_cast<int64_t>(rng() % static_cast<uint64_t>(kItemsPerShard));
    };
    auto known_user = [&]() {
      return stream[static_cast<size_t>(rng() % static_cast<uint64_t>(kStreamLength))];
    };
    const int64_t fresh_edges = kNewUsersPerBatch * 4 + kNewItemsPerBatch * 2;
    for (int64_t e = 0; e < kBatchEdges - fresh_edges; ++e) {
      batch.push_back({known_user(), hot_item(e)});
    }
    for (int64_t j = 0; j < kNewUsersPerBatch; ++j) {
      for (int64_t e = 0; e < 4; ++e) {
        batch.push_back({updater->num_users() + j, hot_item(e)});
      }
    }
    for (int64_t j = 0; j < kNewItemsPerBatch; ++j) {
      for (int64_t e = 0; e < 2; ++e) {
        batch.push_back({known_user(), updater->num_items() + j});
      }
    }

    ScopedSpan tick_span(spans, "publish.tick");
    const double t0 = NowMs();
    imcat::Status st;
    {
      ScopedSpan s(spans, "updater.add", tick_span.id());
      st = updater->AddInteractions(batch);
    }
    const double t1 = NowMs();
    if (st.ok()) {
      ScopedSpan s(spans, "updater.apply", tick_span.id());
      st = updater->ApplyPending();
    }
    const double t2 = NowMs();
    const int64_t dirty = updater->dirty_shard_count();
    if (st.ok()) {
      ScopedSpan s(spans, "updater.publish_delta", tick_span.id());
      st = updater->PublishDelta(stack->store.get());
    }
    const double t3 = NowMs();
    const int64_t version = updater->published_version();
    const std::string delta = stack->store->DeltaPath(version - 1, version);
    if (st.ok()) {
      ScopedSpan s(spans, "serve.load_delta", tick_span.id());
      st = stack->service->LoadDelta(delta);
    }
    const double t4 = NowMs();
    if (!st.ok()) {
      stats->error = "publish tick " + std::to_string(tick) + ": " + st.ToString();
      return;
    }
    stack->store->set_live_version(version);
    struct stat info {};
    stat(delta.c_str(), &info);
    stats->add_ms.push_back(t1 - t0);
    stats->apply_ms.push_back(t2 - t1);
    stats->publish_ms.push_back(t3 - t2);
    stats->load_delta_ms.push_back(t4 - t3);
    stats->freshness_ms.push_back(t4 - t0);
    stats->delta_bytes.push_back(static_cast<double>(info.st_size));
    stats->dirty_shards.push_back(static_cast<double>(dirty));
    if ((tick + 1) % kGcEveryPublishes == 0) {
      ScopedSpan s(spans, "store.gc", tick_span.id());
      const double g0 = NowMs();
      st = stack->store->RunGC();
      stats->gc_ms.push_back(NowMs() - g0);
      if (!st.ok()) {
        stats->error = "gc: " + st.ToString();
        return;
      }
    }
  }
}

struct PhaseResult {
  std::vector<RequestRecord> records;
  std::vector<double> queue_wait_ms;
  int64_t ok = 0;
  int64_t failed = 0;
};

PhaseResult Summarize(std::vector<RequestRecord> records,
                      std::vector<double> queue_wait_ms) {
  PhaseResult out;
  queue_wait_ms.resize(records.size(), 0.0);
  for (const RequestRecord& r : records) {
    if (r.completed() && r.ok) {
      ++out.ok;
    } else {
      ++out.failed;
    }
  }
  out.records = std::move(records);
  out.queue_wait_ms = std::move(queue_wait_ms);
  return out;
}

// Every request's latency from when it was due; a failed or unanswered
// request counts as infinitely late.
std::vector<double> DueLatencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.records.size());
  for (const RequestRecord& r : phase.records) {
    out.push_back(r.completed() && r.ok ? r.latency_ms()
                                        : std::numeric_limits<double>::infinity());
  }
  return out;
}

void RecordRequestSpans(const PhaseResult& phase, SpanBuffer* spans) {
  if (!spans->enabled()) return;
  for (size_t i = 0; i < phase.records.size(); ++i) {
    const RequestRecord& r = phase.records[i];
    if (!r.completed()) continue;
    // The service reports how long the request queued; as a child span it
    // leaves the request's self time = client latency - queue wait.
    const int64_t id = spans->NextId();
    spans->Add(id, 0, "serve.request", r.sent_ms, r.done_ms);
    spans->Add(spans->NextId(), id, "serve.queue_wait", r.sent_ms,
               r.sent_ms + phase.queue_wait_ms[i]);
  }
}

int64_t Counter(imcat::MetricsRegistry* registry, const std::string& name) {
  return registry->GetCounter(name)->value();
}

}  // namespace

void RunServe(const RunConfig& config, bool with_writes, Report* report) {
  Tracer tracer(config.trace);
  SpanBuffer* spans = tracer.NewBuffer();
  SpanBuffer* writer_spans = tracer.NewBuffer();

  // Set-up, several times; the last stack is the one measured. Each is
  // scaled by the mean of the probe medians taken before and after it.
  HostProbe probe;
  std::vector<double> setup_s, setup_wall_s;
  Inputs in;
  Stack stack;
  int64_t warmup_sent = 0;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous stack down service-first: it holds registry handles.
    stack.updater.reset();
    stack.service.reset();
    stack.store.reset();
    stack.registry.reset();
    warmup_sent = 0;
    const double probe_before = probe.Burst(kSetupProbes);
    const double t0 = NowMs();
    const std::string err =
        SetUp(config, with_writes, spans, &in, &stack, &warmup_sent);
    const double wall_s = (NowMs() - t0) / 1000.0;
    if (!err.empty()) {
      report->Fail("setup", err);
      report->attempted = 1;
      report->failed = 1;
      return;
    }
    const double probe_ms = (probe_before + probe.Burst(kSetupProbes)) / 2.0;
    setup_wall_s.push_back(wall_s);
    setup_s.push_back(AtNominal(wall_s, probe_ms));
  }
  report->Set("setup_s", Median(setup_s));
  char line[512];

  // Timed phases, with the writer running throughout for serve_publish.
  std::atomic<bool> stop{false};
  WriterStats writer_stats;
  std::thread writer;
  if (with_writes) {
    writer = std::thread(WriterLoop, std::cref(config), std::cref(in.stream),
                         &stack, writer_spans, &stop, &writer_stats);
  }
  ServiceClient client(stack.service.get(), &in.stream, spans, &probe);
  const double measured_ms = config.seconds * 1000.0;
  const double closed_begin = NowMs();
  ClosedLoopOptions closed_options;
  closed_options.concurrency = kClosedConcurrency;
  closed_options.duration_ms = measured_ms * kClosedShare;
  std::vector<RequestRecord> closed_records = RunClosedLoop(client, closed_options);
  const double closed_end = closed_begin + closed_options.duration_ms;
  const PhaseResult closed = Summarize(std::move(closed_records), client.TakeQueueWaits());

  OpenLoopOptions open_options;
  open_options.rate_per_s = kOpenRatePerS;
  open_options.duration_ms = measured_ms * (1.0 - kClosedShare);
  std::vector<RequestRecord> open_records = RunOpenLoop(client, open_options);
  const PhaseResult open = Summarize(std::move(open_records), client.TakeQueueWaits());
  stop.store(true);
  if (writer.joinable()) writer.join();

  // Closed loop: completed OK requests per second, median over 1 s windows.
  // Open loop: median over 1 s windows of the window's p50. Each is scaled
  // by the probe's median over its phase: a window holds ~10 probe runs,
  // too few to scale it alone, and a phase median leaves only the host's
  // slow phases in the correction.
  std::vector<double> ok_done;
  for (const RequestRecord& r : closed.records) {
    if (r.completed() && r.ok) ok_done.push_back(r.done_ms);
  }
  const std::vector<ProbeSample>& probes = client.probes();
  const double closed_probe_ms = ProbeMsIn(probes, closed_begin, closed_end);
  const double open_probe_ms = ProbeMsIn(probes, closed_end, NowMs());
  const std::vector<double> rates = WindowRates(ok_done, closed_begin, closed_end, 1000.0);
  // A rate is the inverse of a time, so it scales the other way.
  report->Set("throughput_per_s", Median(rates) * closed_probe_ms / kNominalProbeMs);
  const std::vector<double> latencies = DueLatencies(open);
  const int64_t p50_window = static_cast<int64_t>(kOpenRatePerS);
  const std::vector<double> p50s = WindowQuantiles(latencies, p50_window, 0.50);
  report->Set("latency_ms", AtNominal(Median(p50s), open_probe_ms));
  const double probe_ms = ProbeMsIn(probes, 0.0, std::numeric_limits<double>::infinity());
  std::snprintf(line, sizeof(line),
                "wall clock: setup_s=%.6g throughput_per_s=%.6g latency_ms=%.6g; "
                "%zu probe runs, median %.4g ms",
                Median(setup_wall_s), Median(rates), Median(p50s), probes.size(),
                probe_ms);
  report->Note(line);
  if (config.trace) report->Set("host.probe_ms", probe_ms);

  const int64_t phase_sent = static_cast<int64_t>(closed.records.size() + open.records.size());
  report->attempted = phase_sent;
  report->failed = closed.failed + open.failed;
  std::snprintf(line, sizeof(line),
                "phase closed: sent=%zu ok=%lld failed=%lld windows=%zu",
                closed.records.size(), static_cast<long long>(closed.ok),
                static_cast<long long>(closed.failed), rates.size());
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "phase open: rate=%g/s sent=%zu ok=%lld failed=%lld; p50 over "
                "%zu windows of %lld requests",
                kOpenRatePerS, open.records.size(), static_cast<long long>(open.ok),
                static_cast<long long>(open.failed), p50s.size(),
                static_cast<long long>(p50_window));
  report->Note(line);
  report->SetQuantile("serve.latency_p99_ms", NearestRank(latencies, 0.99));
  if (with_writes) {
    // The writer stops at its first failed publish.
    const size_t published = writer_stats.freshness_ms.size();
    const size_t failed_publishes = writer_stats.error.empty() ? 0 : 1;
    std::snprintf(line, sizeof(line),
                  "phase writer: publishes sent=%zu ok=%zu failed=%zu; "
                  "gc_runs=%zu",
                  published + failed_publishes, published, failed_publishes,
                  writer_stats.gc_ms.size());
    report->Note(line);
    if (!writer_stats.error.empty()) report->Fail("writer", writer_stats.error);
    if (writer_stats.freshness_ms.empty()) report->Fail("writer", "no publishes");
    const auto& w = writer_stats;
    report->Set("updater.add_ms", Median(w.add_ms));
    report->Set("updater.apply_ms", Median(w.apply_ms));
    report->Set("updater.publish_delta_ms", Median(w.publish_ms));
    report->Set("serve.load_delta_ms", Median(w.load_delta_ms));
    report->Set("publish.freshness_ms", Median(w.freshness_ms));
    report->Set("store.gc_ms", Median(w.gc_ms));
    report->Set("updater.delta_bytes", Median(w.delta_bytes));
    report->Set("updater.dirty_shards", Median(w.dirty_shards));
  }

  {
    std::vector<double> lag;
    for (const RequestRecord& r : open.records) lag.push_back(r.lag_ms());
    report->SetQuantile("harness.generator_lag_ms.p99", NearestRank(lag, 0.99));
    report->Set("serve.failed_fraction",
                static_cast<double>(report->failed) / static_cast<double>(phase_sent));
  }

  if (config.trace) {
    // Direct TopKBatch calls on the live snapshot, outside the timed phases.
    const auto live = stack.service->snapshot();
    imcat::Recommender recommender;
    for (int batch : {1, 8}) {
      std::vector<double> ms;
      for (int64_t c = 0; c < kProbeCalls; ++c) {
        std::vector<imcat::Recommender::BatchQuery> queries(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
          queries[static_cast<size_t>(b)].user =
              in.stream[static_cast<size_t>((c * batch + b) % kStreamLength)];
          queries[static_cast<size_t>(b)].k = kTopK;
        }
        std::vector<imcat::Recommender::BatchQueryResult> results;
        ScopedSpan s(spans, batch == 1 ? "recommender.topk.b1" : "recommender.topk.b8");
        const double t0 = NowMs();
        recommender.TopKBatch(*live, queries, 0, live->num_items(), 0, &results);
        ms.push_back(NowMs() - t0);
      }
      report->Set(batch == 1 ? "recommender.topk_ms.b1" : "recommender.topk_ms.b8",
                  Median(ms));
    }
  }

  // Correctness.
  imcat::MetricsRegistry* registry = stack.registry.get();
  int64_t check_sent = 0;
  if (!with_writes) {
    // Sampled responses equal a brute-force top-k over the generated tables.
    int64_t mismatches = 0;
    const auto& samples = client.samples();
    for (const SampledResponse& s : samples) {
      const auto expected = BruteTopK(in.users.data() + s.user * kDim,
                                      in.items.data(), kItems, kTopK);
      if (!SameItems(expected, s.items)) ++mismatches;
    }
    std::snprintf(line, sizeof(line), "%zu sampled responses, %lld mismatches",
                  samples.size(), static_cast<long long>(mismatches));
    if (mismatches == 0 && !samples.empty()) {
      report->Pass("serve_bruteforce", line);
    } else {
      report->Fail("serve_bruteforce", line);
    }
  } else {
    // The service serves what the updater published, and the delta chain
    // ranks exactly like a full publish of the same updater state.
    const auto live = stack.service->snapshot();
    const int64_t published = stack.updater->published_version();
    std::snprintf(line, sizeof(line), "served version %lld, published %lld",
                  static_cast<long long>(live->version()),
                  static_cast<long long>(published));
    if (live->version() == published) {
      report->Pass("served_version", line);
    } else {
      report->Fail("served_version", line);
    }
    const std::string resync = config.work_dir + "/resync-full.ims3";
    imcat::Status st = stack.updater->PublishFull(resync);
    auto full = st.ok() ? imcat::EmbeddingSnapshot::Load(resync)
                        : imcat::StatusOr<std::shared_ptr<imcat::EmbeddingSnapshot>>(st);
    if (!full.ok()) {
      report->Fail("delta_vs_full", full.status().ToString());
    } else {
      const imcat::EmbeddingSnapshot& f = *full.value();
      imcat::Recommender recommender;
      int64_t mismatches = 0;
      for (int64_t c = 0; c < kChecks; ++c) {
        const int64_t user = in.stream[static_cast<size_t>(c * 131 % kStreamLength)];
        std::vector<imcat::ScoredItem> chain, whole;
        imcat::Status a = recommender.TopK(*live, user, kTopK, 0.0, {}, &chain);
        imcat::Status b = recommender.TopK(f, user, kTopK, 0.0, {}, &whole);
        imcat::RecRequest request;
        request.user = user;
        request.top_k = kTopK;
        request.deadline_ms = kDeadlineMs;
        const imcat::RecResponse served = stack.service->Recommend(request);
        ++check_sent;
        const auto brute = BruteTopK(f.user(user), f.item(0), f.num_items(), kTopK);
        if (!a.ok() || !b.ok() || !served.status.ok() || !SameItems(chain, whole) ||
            !SameItems(chain, served.items) || !SameItems(chain, brute)) {
          ++mismatches;
        }
      }
      std::snprintf(line, sizeof(line),
                    "%lld users: delta chain vs full publish vs brute force, "
                    "%lld mismatches (catalogue %lld items)",
                    static_cast<long long>(kChecks), static_cast<long long>(mismatches),
                    static_cast<long long>(f.num_items()));
      if (mismatches == 0) {
        report->Pass("delta_vs_full", line);
      } else {
        report->Fail("delta_vs_full", line);
      }
    }
    std::remove(resync.c_str());
  }

  // Exact accounting: every request sent is counted once, in one outcome.
  const int64_t total = Counter(registry, "serve_requests_total");
  int64_t outcomes = 0;
  for (const char* outcome : kOutcomes) {
    const int64_t v = Counter(registry, std::string("serve_requests_") + outcome + "_total");
    outcomes += v;
    if (config.trace) report->Set(std::string("serve.outcome.") + outcome, static_cast<double>(v));
  }
  const int64_t harness_sent = warmup_sent + client.sent() + check_sent;
  std::snprintf(line, sizeof(line),
                "serve_requests_total=%lld sum(outcomes)=%lld harness_sent=%lld",
                static_cast<long long>(total), static_cast<long long>(outcomes),
                static_cast<long long>(harness_sent));
  if (total == outcomes && total == harness_sent) {
    report->Pass("serve_accounting", line);
  } else {
    report->Fail("serve_accounting", line);
  }

  if (config.trace) {
    const imcat::HistogramSnapshot batches =
        registry->GetHistogram("serve_batch_size")->Snapshot();
    if (batches.count > 0) {
      report->Set("serve.batch_size_mean", batches.sum / static_cast<double>(batches.count));
    }
    RecordRequestSpans(closed, spans);
    RecordRequestSpans(open, spans);
    const std::vector<Span> all = tracer.Collect();
    const std::map<int64_t, double> self = SelfTimes(all);
    std::vector<double> waits = Durations(all, "serve.queue_wait");
    report->SetQuantile("serve.queue_wait_ms.p50", NearestRank(waits, 0.50));
    report->SetQuantile("serve.queue_wait_ms.p99", NearestRank(waits, 0.99));
    report->Set("serve.service_ms", Median(SelfDurations(all, self, "serve.request")));
    report->Set("serve.submit_ms", Median(Durations(all, "serve.submit")));
    for (const char* name : {"snapshot.load", "store.open", "store.load"}) {
      const std::vector<double> d = Durations(all, name);
      if (!d.empty()) report->Set(std::string(name) + "_ms", Median(d));
    }
    const std::string path = config.work_dir + "/trace-" + config.workload + ".jsonl";
    if (!WriteSpansJsonl(all, path)) report->Fail("trace_write", path);
    report->Note("trace: " + std::to_string(all.size()) + " spans in " + path);
  }

  stack.service->Shutdown();
  if (with_writes) {
    std::error_code ec;
    std::filesystem::remove_all(config.work_dir + "/store", ec);
  }
}

}  // namespace perfbench
