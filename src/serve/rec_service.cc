#include "serve/rec_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.h"

namespace imcat {

namespace {

void DefaultSleepMs(double millis) {
  if (millis <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(millis));
}

ThreadPoolOptions ServicePoolOptions(const RecServiceOptions& options,
                                     MetricsRegistry* metrics) {
  IMCAT_CHECK(options.num_workers >= 1);
  IMCAT_CHECK(options.queue_capacity >= 1);
  ThreadPoolOptions popts;
  popts.num_threads = options.num_workers;
  popts.queue_capacity = options.queue_capacity;
  popts.metrics = metrics;
  popts.metrics_prefix = "serve_pool";
  return popts;
}

}  // namespace

RecService::RecService(std::shared_ptr<const PopularityRanker> fallback,
                       const RecServiceOptions& options)
    : options_(options),
      own_metrics_(options.metrics == nullptr
                       ? std::make_unique<MetricsRegistry>()
                       : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : own_metrics_.get()),
      fallback_(std::move(fallback)),
      recommender_([&] {
        RecommenderOptions ropts = options.recommender;
        if (!ropts.now_ms && options.now_ms) ropts.now_ms = options.now_ms;
        return ropts;
      }()),
      breaker_(options.breaker, options.now_ms),
      now_ms_(options.now_ms ? options.now_ms : SteadyNowMs),
      sleep_ms_(options.sleep_ms ? options.sleep_ms : DefaultSleepMs),
      requests_total_(metrics_->GetCounter("serve_requests_total")),
      requests_accepted_(metrics_->GetCounter("serve_requests_accepted_total")),
      requests_ok_(metrics_->GetCounter("serve_requests_ok_total")),
      requests_degraded_(metrics_->GetCounter("serve_requests_degraded_total")),
      requests_partial_degraded_(
          metrics_->GetCounter("serve_requests_partial_degraded_total")),
      requests_shed_(metrics_->GetCounter("serve_requests_shed_total")),
      requests_shed_queue_delay_(
          metrics_->GetCounter("serve_requests_shed_queue_delay_total")),
      requests_shed_predicted_late_(
          metrics_->GetCounter("serve_requests_shed_predicted_late_total")),
      requests_deadline_(
          metrics_->GetCounter("serve_requests_deadline_exceeded_total")),
      requests_invalid_(metrics_->GetCounter("serve_requests_invalid_total")),
      requests_error_(metrics_->GetCounter("serve_requests_error_total")),
      requests_cancelled_(
          metrics_->GetCounter("serve_requests_cancelled_total")),
      snapshot_reloads_total_(
          metrics_->GetCounter("serve_snapshot_reloads_total")),
      snapshot_load_failures_total_(
          metrics_->GetCounter("serve_snapshot_load_failures_total")),
      snapshot_rejected_publishes_total_(
          metrics_->GetCounter("serve_snapshot_rejected_publishes_total")),
      snapshot_shards_quarantined_total_(
          metrics_->GetCounter("serve_snapshot_shards_quarantined_total")),
      staleness_trips_total_(
          metrics_->GetCounter("serve_staleness_trips_total")),
      breaker_transitions_total_(
          metrics_->GetCounter("serve_breaker_transitions_total")),
      delta_publishes_total_(
          metrics_->GetCounter("serve_delta_publishes_total")),
      delta_rejected_total_(metrics_->GetCounter("serve_delta_rejected_total")),
      brownout_transitions_total_(
          metrics_->GetCounter("serve_brownout_transitions_total")),
      brownout_level_gauge_(metrics_->GetGauge("serve_brownout_level")),
      breaker_state_gauge_(metrics_->GetGauge("serve_breaker_state")),
      quarantined_shards_gauge_(
          metrics_->GetGauge("serve_snapshot_quarantined_shards")),
      staleness_ms_gauge_(metrics_->GetGauge("serve_snapshot_staleness_ms")),
      stale_shards_gauge_(metrics_->GetGauge("serve_snapshot_stale_shards")),
      delta_lag_ms_gauge_(metrics_->GetGauge("serve_snapshot_delta_lag_ms")),
      request_latency_ms_(metrics_->GetHistogram("serve_request_latency_ms")),
      queue_wait_ms_(metrics_->GetHistogram("serve_queue_wait_ms")),
      batch_size_(metrics_->GetHistogram("serve_batch_size")),
      batched_requests_total_(
          metrics_->GetCounter("serve_batched_requests_total")),
      journal_(options.journal),
      pool_(ServicePoolOptions(options, metrics_)) {
  IMCAT_CHECK(fallback_ != nullptr);
  IMCAT_CHECK(options_.default_top_k >= 1);
  IMCAT_CHECK(options_.max_batch_size >= 1);
  if (options_.overload.enabled) {
    OverloadOptions oopts = options_.overload;
    if (!oopts.now_ms) oopts.now_ms = now_ms_;
    overload_ = std::make_unique<OverloadController>(oopts);
  }
  // Observe breaker transitions for the gauge / counter / journal. The
  // listener runs outside the breaker lock, on the transitioning thread.
  breaker_.set_on_transition(
      [this](CircuitBreaker::State from, CircuitBreaker::State to) {
        breaker_transitions_total_->Increment();
        breaker_state_gauge_->Set(static_cast<double>(to));
        if (journal_ != nullptr) {
          journal_->Append(JournalEvent("breaker")
                               .Set("from", CircuitBreaker::StateName(from))
                               .Set("to", CircuitBreaker::StateName(to)));
        }
      });
  if (overload_ != nullptr) {
    // Brownout ladder transitions are observable exactly like breaker
    // transitions: one counter bump + gauge + journal event per edge,
    // fired outside the controller lock on the transitioning thread.
    overload_->set_on_brownout([this](int64_t from, int64_t to) {
      brownout_transitions_total_->Increment();
      brownout_level_gauge_->Set(static_cast<double>(to));
      if (journal_ != nullptr) {
        journal_->Append(
            JournalEvent("brownout").Set("from", from).Set("to", to));
      }
    });
  }
}

RecService::~RecService() { Shutdown(); }

Status RecService::LoadSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> load_lock(load_mu_);
  Backoff backoff(options_.load_backoff);
  Status last;
  while (true) {
    auto result = EmbeddingSnapshot::Load(path, options_.snapshot_load);
    if (result.ok()) {
      std::shared_ptr<EmbeddingSnapshot> loaded = std::move(result).value();
      // Version: the exporter's manifest version when assigned, else the
      // service's own monotonic counter (unversioned exports).
      const std::shared_ptr<const EmbeddingSnapshot> live = snapshot();
      const int64_t version =
          loaded->parent_version() > 0
              ? loaded->parent_version()
              : next_snapshot_version_.fetch_add(1,
                                                 std::memory_order_relaxed);
      if (live != nullptr && version <= live->version()) {
        // Monotonicity refusal: publishing this snapshot would roll the
        // service backwards (a stale export re-pushed, a duplicate
        // publish). The file itself is intact, so the breaker is not fed
        // and no retry can help.
        snapshot_rejected_publishes_total_->Increment();
        if (journal_ != nullptr) {
          journal_->Append(JournalEvent("snapshot_rejected")
                               .Set("path", path)
                               .Set("live_version", live->version())
                               .Set("candidate_version", version));
        }
        return Status::FailedPrecondition(
            path + ": snapshot version " + std::to_string(version) +
            " is not greater than live version " +
            std::to_string(live->version()) + "; publish refused");
      }
      loaded->set_version(version);
      const int64_t quarantined = loaded->quarantined_count();
      const int64_t shards = loaded->num_shards();
      const int64_t parent_version = loaded->parent_version();
      // Keep counter-assigned versions ahead of manifest-assigned ones so
      // the two sources interleave monotonically.
      int64_t next = next_snapshot_version_.load(std::memory_order_relaxed);
      while (next <= version &&
             !next_snapshot_version_.compare_exchange_weak(
                 next, version + 1, std::memory_order_relaxed)) {
      }
      // Atomic publish: readers holding the old snapshot keep it alive
      // until their request completes.
      PublishSnapshot(std::move(loaded));
      breaker_.RecordSuccess();
      snapshot_reloads_total_->Increment();
      snapshot_shards_quarantined_total_->Add(quarantined);
      quarantined_shards_gauge_->Set(static_cast<double>(quarantined));
      stale_shards_gauge_->Set(0.0);
      if (journal_ != nullptr) {
        journal_->Append(JournalEvent("snapshot_reload")
                             .Set("ok", true)
                             .Set("path", path)
                             .Set("version", version)
                             .Set("parent_version", parent_version)
                             .Set("shards", shards)
                             .Set("quarantined_shards", quarantined));
      }
      return Status::OK();
    }
    last = result.status();
    const double delay_ms = backoff.NextDelayMs();
    if (!backoff.ShouldRetry()) break;
    sleep_ms_(delay_ms);
  }
  breaker_.RecordFailure();
  snapshot_load_failures_total_->Increment();
  if (journal_ != nullptr) {
    journal_->Append(JournalEvent("snapshot_reload")
                         .Set("ok", false)
                         .Set("path", path)
                         .Set("error", last.message()));
  }
  return Status(last.code(),
                "snapshot load failed after " +
                    std::to_string(options_.load_backoff.max_attempts) +
                    " attempts: " + last.message());
}

void RecService::RecordDeltaRejected(const std::string& path,
                                     int64_t live_version,
                                     int64_t base_version,
                                     const std::string& reason) {
  delta_rejected_total_->Increment();
  if (journal_ != nullptr) {
    journal_->Append(JournalEvent("delta_rejected")
                         .Set("path", path)
                         .Set("live_version", live_version)
                         .Set("base_version", base_version)
                         .Set("reason", reason));
  }
}

Status RecService::LoadDelta(const std::string& path) {
  std::lock_guard<std::mutex> load_lock(load_mu_);
  const std::shared_ptr<const EmbeddingSnapshot> live = snapshot();
  if (live == nullptr) {
    RecordDeltaRejected(path, 0, 0, "no live snapshot to chain onto");
    return Status::FailedPrecondition(
        path + ": no live snapshot to apply a delta onto; publish a full "
               "snapshot first");
  }
  Backoff backoff(options_.load_backoff);
  Status last;
  while (true) {
    auto result =
        EmbeddingSnapshot::ApplyDelta(live, path, options_.snapshot_load);
    if (result.ok()) {
      std::shared_ptr<EmbeddingSnapshot> applied = std::move(result).value();
      const int64_t version = applied->version();
      const int64_t base_version = applied->base_version();
      const int64_t quarantined = applied->quarantined_count();
      const int64_t stale = applied->stale_count();
      const int64_t shards = applied->num_shards();
      // Keep counter-assigned versions ahead of delta-assigned ones, same
      // contract as LoadSnapshot.
      int64_t next = next_snapshot_version_.load(std::memory_order_relaxed);
      while (next <= version &&
             !next_snapshot_version_.compare_exchange_weak(
                 next, version + 1, std::memory_order_relaxed)) {
      }
      PublishSnapshot(std::move(applied));
      last_delta_publish_ms_.store(now_ms_(), std::memory_order_relaxed);
      delta_lag_ms_gauge_->Set(0.0);
      breaker_.RecordSuccess();
      delta_publishes_total_->Increment();
      snapshot_shards_quarantined_total_->Add(quarantined);
      quarantined_shards_gauge_->Set(static_cast<double>(quarantined));
      stale_shards_gauge_->Set(static_cast<double>(stale));
      if (journal_ != nullptr) {
        journal_->Append(JournalEvent("delta_publish")
                             .Set("ok", true)
                             .Set("path", path)
                             .Set("version", version)
                             .Set("base_version", base_version)
                             .Set("shards", shards)
                             .Set("quarantined_shards", quarantined)
                             .Set("stale_shards", stale));
      }
      return Status::OK();
    }
    last = result.status();
    if (last.code() == StatusCode::kFailedPrecondition) {
      // Out-of-order / stale / duplicate delta: refused, not failed — the
      // file is intact and retrying cannot change its base_version, so no
      // backoff and no breaker feedback.
      int64_t delta_base = -1;
      auto manifest = ReadDeltaSnapshotManifest(path);
      if (manifest.ok()) delta_base = manifest.value().base_version;
      RecordDeltaRejected(path, live->version(), delta_base, last.message());
      return last;
    }
    const double delay_ms = backoff.NextDelayMs();
    if (!backoff.ShouldRetry()) break;
    sleep_ms_(delay_ms);
  }
  // Unrecoverable delta (corrupt manifest/user table, bad geometry, every
  // changed shard corrupt): the base snapshot stays live.
  breaker_.RecordFailure();
  snapshot_load_failures_total_->Increment();
  if (journal_ != nullptr) {
    journal_->Append(JournalEvent("delta_publish")
                         .Set("ok", false)
                         .Set("path", path)
                         .Set("live_version", live->version())
                         .Set("error", last.message()));
  }
  return Status(last.code(),
                "delta publish failed after " +
                    std::to_string(options_.load_backoff.max_attempts) +
                    " attempts: " + last.message());
}

std::future<RecResponse> RecService::Submit(RecRequest request) {
  auto task = std::make_shared<Task>();
  task->request = std::move(request);
  std::future<RecResponse> future = task->promise.get_future();
  requests_total_->Increment();
  // Adaptive admission control: the overload controller sheds *before*
  // enqueue — batch traffic while the CoDel law declares overload, any
  // request whose deadline budget the smoothed queue-wait estimate already
  // exceeds. Both resolve immediately with kUnavailable, same contract as
  // a queue-full shed.
  if (overload_ != nullptr) {
    const RecRequest& req = task->request;
    const double deadline_ms = req.deadline_ms == 0.0
                                   ? options_.default_deadline_ms
                                   : req.deadline_ms;
    const OverloadController::Decision decision =
        overload_->Admit(req.priority, deadline_ms);
    if (decision != OverloadController::Decision::kAdmit) {
      RecResponse shed;
      if (decision == OverloadController::Decision::kShedQueueDelay) {
        shed.status = Status::Unavailable(
            "overloaded: queue delay above target; " +
            std::string(PriorityName(req.priority)) +
            " request shed, retry later");
        requests_shed_queue_delay_->Increment();
      } else {
        shed.status = Status::Unavailable(
            "overloaded: deadline budget " + std::to_string(deadline_ms) +
            " ms below queue-wait estimate " +
            std::to_string(overload_->smoothed_wait_ms()) +
            " ms; refused as predicted late");
        requests_shed_predicted_late_->Increment();
      }
      task->promise.set_value(std::move(shed));
      return future;
    }
  }
  // Admission rides on the pool's bounded queue: the task goes onto the
  // request queue and a drain ticket bound to it onto the pool, one ticket
  // per request. The ticket's cancel callback is the shutdown contract: a
  // request still queued when Shutdown() runs is resolved to kUnavailable
  // — its future is always eventually satisfied, never hung, never
  // dropped.
  task->enqueue_ms = now_ms_();
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch_queue_.push_back(task);
  }
  Status admitted = pool_.TrySubmit([this, task] { DrainAndProcess(task); },
                                    [this, task] { CancelQueued(task); });
  // Ticket refused: reclaim the task so it can be shed — unless a running
  // drain already took it as a follower, in which case it is admitted and
  // that drain answers it.
  if (!admitted.ok() && !TakeQueued(task)) admitted = Status::OK();
  if (admitted.ok()) {
    requests_accepted_->Increment();
    return future;
  }
  // Load shedding: reject immediately with a definite status instead of
  // queueing unboundedly.
  RecResponse shed;
  shed.status = Status::Unavailable(
      pool_.stopped() ? "service is shut down"
                      : "work queue full (" +
                            std::to_string(options_.queue_capacity) +
                            " requests); load shed, retry later");
  requests_shed_->Increment();
  task->promise.set_value(std::move(shed));
  return future;
}

RecResponse RecService::Recommend(RecRequest request) {
  return Submit(std::move(request)).get();
}

void RecService::Shutdown() { pool_.Shutdown(); }

void RecService::PublishSnapshot(
    std::shared_ptr<const EmbeddingSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  // A fresh publish restarts the staleness budget and re-arms the
  // edge-triggered watchdog journal event.
  last_publish_ms_.store(now_ms_(), std::memory_order_relaxed);
  stale_tripped_.store(false, std::memory_order_relaxed);
  staleness_ms_gauge_->Set(0.0);
}

std::shared_ptr<const EmbeddingSnapshot> RecService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

RecServiceStats RecService::stats() const {
  RecServiceStats stats;
  stats.accepted = requests_accepted_->value();
  stats.shed = requests_shed_->value();
  stats.shed_queue_delay = requests_shed_queue_delay_->value();
  stats.shed_predicted_late = requests_shed_predicted_late_->value();
  stats.brownout_transitions = brownout_transitions_total_->value();
  stats.served_real = requests_ok_->value();
  stats.served_degraded = requests_degraded_->value();
  stats.served_partial_degraded = requests_partial_degraded_->value();
  stats.deadline_exceeded = requests_deadline_->value();
  stats.invalid_requests = requests_invalid_->value();
  stats.snapshot_reloads = snapshot_reloads_total_->value();
  stats.snapshot_load_failures = snapshot_load_failures_total_->value();
  stats.rejected_publishes = snapshot_rejected_publishes_total_->value();
  stats.staleness_trips = staleness_trips_total_->value();
  stats.delta_publishes = delta_publishes_total_->value();
  stats.rejected_deltas = delta_rejected_total_->value();
  return stats;
}

int64_t RecService::brownout_level() const {
  return overload_ != nullptr ? overload_->brownout_level() : 0;
}

bool RecService::overloaded() const {
  return overload_ != nullptr && overload_->overloaded();
}

std::string RecService::HealthJson() const {
  const std::shared_ptr<const EmbeddingSnapshot> snap = snapshot();
  const int64_t level = brownout_level();
  const bool over = overloaded();
  const double published = last_publish_ms_.load(std::memory_order_relaxed);
  const double staleness_ms =
      (snap != nullptr && published >= 0.0)
          ? std::max(0.0, now_ms_() - published)
          : 0.0;
  const bool stale =
      options_.max_snapshot_staleness_ms > 0.0 &&
      staleness_ms > options_.max_snapshot_staleness_ms;
  const CircuitBreaker::State breaker = breaker_.state();
  // Coarse triage verdict, most severe first: "shut_down" (every request
  // is refused), "degraded" (no real scores for at least some traffic),
  // "browned_out" (reduced quality), "ok".
  const char* status = "ok";
  if (pool_.stopped()) {
    status = "shut_down";
  } else if (snap == nullptr || breaker == CircuitBreaker::State::kOpen ||
             stale) {
    status = "degraded";
  } else if (level > 0 || over) {
    status = "browned_out";
  }
  std::ostringstream out;
  out << "{\"status\":\"" << status << "\""
      << ",\"breaker\":\"" << CircuitBreaker::StateName(breaker) << "\""
      << ",\"brownout_level\":" << level
      << ",\"overloaded\":" << (over ? "true" : "false")
      << ",\"smoothed_queue_wait_ms\":"
      << (overload_ != nullptr ? overload_->smoothed_wait_ms() : 0.0)
      << ",\"batching\":{"
      << "\"max_batch_size\":" << options_.max_batch_size
      << ",\"block_items\":" << recommender_.block_items() << "}"
      << ",\"snapshot\":{"
      << "\"loaded\":" << (snap != nullptr ? "true" : "false")
      << ",\"version\":" << (snap != nullptr ? snap->version() : 0)
      << ",\"staleness_ms\":" << staleness_ms
      << ",\"stale\":" << (stale ? "true" : "false")
      << ",\"quarantined_shards\":"
      << (snap != nullptr ? snap->quarantined_count() : 0)
      << ",\"stale_shards\":" << (snap != nullptr ? snap->stale_count() : 0)
      << "}}";
  return out.str();
}

RecService::ScorePlan RecService::PlanRequest(
    const RecRequest& request, double queue_wait_ms,
    const std::shared_ptr<const EmbeddingSnapshot>& snapshot,
    int64_t brownout_level) {
  ScorePlan plan;
  const int64_t top_k =
      request.top_k > 0 ? request.top_k : options_.default_top_k;
  const double deadline_ms = request.deadline_ms == 0.0
                                 ? options_.default_deadline_ms
                                 : request.deadline_ms;

  // Validation: out-of-range ids are a clean error, never UB. The upper
  // bound is checked against the snapshot when one is published; in
  // snapshotless degraded mode any non-negative user is servable (the
  // popularity ranking is user-independent).
  Status invalid;
  if (request.user < 0) {
    invalid = Status::InvalidArgument("negative user id " +
                                      std::to_string(request.user));
  } else if (snapshot != nullptr && request.user >= snapshot->num_users()) {
    invalid = Status::InvalidArgument(
        "unknown user id " + std::to_string(request.user) + " (snapshot has " +
        std::to_string(snapshot->num_users()) + " users)");
  }
  if (invalid.ok() && request.top_k < 0) {
    invalid = Status::InvalidArgument("negative top_k " +
                                      std::to_string(request.top_k));
  }
  if (invalid.ok() &&
      (request.item_begin != 0 || request.item_end != 0)) {
    // Range restriction: validated against the snapshot catalogue when one
    // is live, else against the fallback ranking it will be served from.
    const int64_t catalogue = snapshot != nullptr ? snapshot->num_items()
                                                  : fallback_->num_items();
    if (request.item_begin < 0 || request.item_end <= request.item_begin ||
        request.item_end > catalogue) {
      invalid = Status::InvalidArgument(
          "item range [" + std::to_string(request.item_begin) + ", " +
          std::to_string(request.item_end) + ") invalid for catalogue of " +
          std::to_string(catalogue) + " items");
    }
  }
  if (!invalid.ok()) {
    requests_invalid_->Increment();
    plan.done = true;
    plan.response.status = std::move(invalid);
    return plan;
  }

  // Deadline already burned in the queue: with the controller on, a
  // request whose measured sojourn ate its whole budget is refused here —
  // scoring it would waste a worker on an answer nobody can use, the
  // wasted-work path that turns overload into collapse. Same
  // `shed_predicted_late` outcome as the admission-time prediction; only
  // the timing of the refusal differs.
  if (overload_ != nullptr && deadline_ms > 0.0 &&
      queue_wait_ms >= deadline_ms) {
    requests_shed_predicted_late_->Increment();
    plan.done = true;
    plan.response.status = Status::Unavailable(
        "overloaded: deadline budget " + std::to_string(deadline_ms) +
        " ms expired in queue (waited " + std::to_string(queue_wait_ms) +
        " ms); refused instead of scored");
    return plan;
  }

  // Delta lag: time since the live snapshot last advanced via a delta
  // publish. Exported on every request so a scraper watches the lag grow
  // live while deltas are rejected or failing.
  const double last_delta =
      last_delta_publish_ms_.load(std::memory_order_relaxed);
  if (last_delta >= 0.0) delta_lag_ms_gauge_->Set(now_ms_() - last_delta);

  // Staleness watchdog: repeated reload failures leave the live snapshot
  // older than the bounded-staleness budget; past it the model scores are
  // no longer trustworthy and the popularity fallback takes over until a
  // fresh snapshot publishes.
  if (snapshot != nullptr && options_.max_snapshot_staleness_ms > 0.0) {
    const double published = last_publish_ms_.load(std::memory_order_relaxed);
    const double staleness_ms = published >= 0.0 ? now_ms_() - published : 0.0;
    staleness_ms_gauge_->Set(staleness_ms);
    if (staleness_ms > options_.max_snapshot_staleness_ms) {
      if (!stale_tripped_.exchange(true, std::memory_order_relaxed)) {
        // Edge-triggered: one journal event + trip count per episode, not
        // one per request in the storm.
        staleness_trips_total_->Increment();
        if (journal_ != nullptr) {
          journal_->Append(
              JournalEvent("staleness")
                  .Set("staleness_ms", staleness_ms)
                  .Set("budget_ms", options_.max_snapshot_staleness_ms)
                  .Set("snapshot_version", snapshot->version()));
        }
      }
      plan.done = true;
      plan.response = DegradedResponse(top_k, request.exclude,
                                       request.item_begin, request.item_end);
      return plan;
    }
  }

  // Degraded path: no loadable snapshot, or the breaker refuses the real
  // path. Either way the caller gets an answer.
  if (snapshot == nullptr || !breaker_.AllowRequest()) {
    plan.done = true;
    plan.response = DegradedResponse(top_k, request.exclude,
                                     request.item_begin, request.item_end);
    return plan;
  }

  // Brownout level >= 2: batch-priority traffic is served from the
  // popularity fallback so the remaining scoring capacity goes to
  // interactive requests. Same `degraded` outcome as the breaker path —
  // the response's brownout_level tells the two apart.
  if (brownout_level >= 2 && request.priority == RequestPriority::kBatch) {
    plan.done = true;
    plan.response = DegradedResponse(top_k, request.exclude,
                                     request.item_begin, request.item_end);
    return plan;
  }

  // Overload-aware budgets. Scoring gets the *remaining* deadline (total
  // minus measured queue wait) so the client-observed latency honours the
  // deadline the client set; with the controller off the legacy semantics
  // (full budget from scoring start) are preserved bit-for-bit. Brownout
  // level >= 1 additionally caps how much of the catalogue is scored:
  // fraction^level of the requested range.
  plan.top_k = top_k;
  plan.scoring_deadline_ms = deadline_ms;
  if (overload_ != nullptr && deadline_ms > 0.0) {
    plan.scoring_deadline_ms = deadline_ms - queue_wait_ms;
  }
  if (overload_ != nullptr && brownout_level > 0) {
    const int64_t range_begin = request.item_begin;
    const int64_t range_end =
        request.item_end > 0 ? request.item_end : snapshot->num_items();
    double fraction = 1.0;
    for (int64_t l = 0; l < brownout_level; ++l) {
      fraction *= overload_->options().scoring_fraction;
    }
    plan.max_scored_items = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(range_end - range_begin) * fraction));
  }
  return plan;
}

RecResponse RecService::FinishScored(const RecRequest& request,
                                     const EmbeddingSnapshot& snapshot,
                                     int64_t top_k, Status status,
                                     std::vector<ScoredItem> items,
                                     int64_t quarantined_skipped) {
  RecResponse response;
  response.status = std::move(status);
  response.items = std::move(items);
  if (response.status.ok()) {
    response.snapshot_version = snapshot.version();
    response.quarantined_shards = snapshot.quarantined_count();
    breaker_.RecordSuccess();
    if (quarantined_skipped > 0) {
      // kPartialDegraded: healthy shards scored normally; items the
      // quarantine excluded are backfilled from the popularity ranking,
      // restricted to the quarantined slice of the requested range so a
      // healthy item can never be displaced by a fallback one.
      response.partial_degraded = true;
      if (static_cast<int64_t>(response.items.size()) < top_k) {
        std::vector<int64_t> already = request.exclude;
        already.reserve(already.size() + response.items.size());
        for (const ScoredItem& chosen : response.items) {
          already.push_back(chosen.item);
        }
        const int64_t begin = request.item_begin;
        const int64_t end = request.item_end > 0 ? request.item_end
                                                 : snapshot.num_items();
        std::vector<ScoredItem> backfill;
        fallback_->TopKFiltered(
            top_k - static_cast<int64_t>(response.items.size()), already,
            [&snapshot, begin, end](int64_t item) {
              return item >= begin && item < end &&
                     !snapshot.item_available(item);
            },
            &backfill);
        response.items.insert(response.items.end(), backfill.begin(),
                              backfill.end());
      }
      requests_partial_degraded_->Increment();
      return response;
    }
    // Stale shards (a delta failed to replace them; old rows kept): the
    // scores are real but one publish behind, so a request whose range
    // touches a stale shard is surfaced as partial_degraded — no backfill,
    // just the flag.
    const int64_t range_begin = request.item_begin;
    const int64_t range_end =
        request.item_end > 0 ? request.item_end : snapshot.num_items();
    if (snapshot.RangeTouchesStale(range_begin, range_end)) {
      response.partial_degraded = true;
      requests_partial_degraded_->Increment();
      return response;
    }
    requests_ok_->Increment();
    return response;
  }
  // Scoring failure: feed the breaker and surface the definite status.
  breaker_.RecordFailure();
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    requests_deadline_->Increment();
  } else {
    requests_error_->Increment();
  }
  response.items.clear();
  return response;
}

RecResponse RecService::DegradedResponse(
    int64_t top_k, const std::vector<int64_t>& exclude, int64_t item_begin,
    int64_t item_end) {
  RecResponse response;
  response.degraded = true;
  if (item_end > 0) {
    fallback_->TopKFiltered(
        top_k, exclude,
        [item_begin, item_end](int64_t item) {
          return item >= item_begin && item < item_end;
        },
        &response.items);
  } else {
    fallback_->TopK(top_k, exclude, &response.items);
  }
  requests_degraded_->Increment();
  return response;
}

bool RecService::TakeQueued(const std::shared_ptr<Task>& task) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  auto it = std::find(batch_queue_.begin(), batch_queue_.end(), task);
  if (it == batch_queue_.end()) return false;
  batch_queue_.erase(it);
  return true;
}

void RecService::DrainAndProcess(const std::shared_ptr<Task>& task) {
  std::vector<std::shared_ptr<Task>> batch;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    auto it = std::find(batch_queue_.begin(), batch_queue_.end(), task);
    // An earlier drain took this ticket's request as a follower; the
    // wakeup is a no-op.
    if (it == batch_queue_.end()) return;
    it = batch_queue_.erase(it);
    batch.push_back(task);
    // Compatibility rule: a batch shares one TopKBatch call, so every
    // member must share the head's (item_begin, item_end). The scan is a
    // FIFO prefix — an incompatible request ends the batch rather than
    // being jumped over, preserving per-range ordering.
    const RecRequest& head = task->request;
    while (static_cast<int64_t>(batch.size()) < options_.max_batch_size &&
           it != batch_queue_.end() &&
           (*it)->request.item_begin == head.item_begin &&
           (*it)->request.item_end == head.item_end) {
      batch.push_back(std::move(*it));
      it = batch_queue_.erase(it);
    }
  }
  ProcessBatch(batch);
}

void RecService::CancelQueued(const std::shared_ptr<Task>& task) {
  // Not queued: a drain took it as a follower and answers it.
  if (!TakeQueued(task)) return;
  requests_cancelled_->Increment();
  RecResponse response;
  response.status = Status::Unavailable("service is shut down");
  task->promise.set_value(std::move(response));
}

void RecService::ProcessBatch(
    const std::vector<std::shared_ptr<Task>>& batch) {
  const double start_ms = now_ms_();
  batch_size_->Record(static_cast<double>(batch.size()));
  batched_requests_total_->Add(static_cast<int64_t>(batch.size()));
  // Snapshot and ladder level are pinned once per batch: every member
  // scores against the same snapshot and reports one consistent level.
  const int64_t level =
      overload_ != nullptr ? overload_->brownout_level() : 0;
  std::shared_ptr<const EmbeddingSnapshot> snapshot = this->snapshot();

  // Per-member pre-scoring pass: measured sojourns feed the controller,
  // and PlanRequest resolves everything that must not reach the kernel —
  // invalid requests, deadline-expired-in-queue refusals, degraded and
  // brownout fallbacks.
  std::vector<double> waits(batch.size());
  std::vector<ScorePlan> plans(batch.size());
  std::vector<size_t> scored;
  std::vector<Recommender::BatchQuery> queries;
  for (size_t i = 0; i < batch.size(); ++i) {
    waits[i] = std::max(0.0, start_ms - batch[i]->enqueue_ms);
    if (overload_ != nullptr) overload_->OnDequeue(waits[i]);
    queue_wait_ms_->Record(waits[i]);
    plans[i] = PlanRequest(batch[i]->request, waits[i], snapshot, level);
    if (plans[i].done) continue;
    Recommender::BatchQuery query;
    query.user = batch[i]->request.user;
    query.k = plans[i].top_k;
    query.deadline_ms = plans[i].scoring_deadline_ms;
    query.exclude = &batch[i]->request.exclude;
    queries.push_back(query);
    scored.push_back(i);
  }

  // The survivors share one blocked multi-user kernel pass. All plans of
  // a batch agree on max_scored_items: the brownout budget is a function
  // of the shared item range and the pinned level.
  std::vector<Recommender::BatchQueryResult> results;
  if (!queries.empty()) {
    const RecRequest& head = batch[scored.front()]->request;
    // The scan spans the service's idle workers: this worker scores the
    // first chunk and any a helper has not claimed yet.
    const Status batch_status = recommender_.TopKBatch(
        *snapshot, queries, head.item_begin, head.item_end,
        plans[scored.front()].max_scored_items, &results, &pool_);
    if (!batch_status.ok()) {
      // A malformed shared range (PlanRequest validated against this same
      // snapshot, so only reachable through a racing catalogue change):
      // every scored member carries the definite batch status.
      for (Recommender::BatchQueryResult& result : results) {
        result.status = batch_status;
        result.items.clear();
        result.quarantined_skipped = 0;
      }
    }
    for (size_t s = 0; s < scored.size(); ++s) {
      const size_t i = scored[s];
      plans[i].response = FinishScored(
          batch[i]->request, *snapshot, plans[i].top_k,
          std::move(results[s].status), std::move(results[s].items),
          results[s].quarantined_skipped);
    }
  }

  const double handle_ms = std::max(0.0, now_ms_() - start_ms);
  for (size_t i = 0; i < batch.size(); ++i) {
    RecResponse response = std::move(plans[i].response);
    response.queue_wait_ms = waits[i];
    response.brownout_level = level;
    request_latency_ms_->Record(handle_ms);
    batch[i]->promise.set_value(std::move(response));
  }
}

}  // namespace imcat
