#ifndef IMCAT_SERVE_REC_SERVICE_H_
#define IMCAT_SERVE_REC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/circuit_breaker.h"
#include "serve/overload.h"
#include "serve/popularity.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"
#include "serve/types.h"
#include "util/backoff.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file rec_service.h
/// The fault-tolerant recommendation service front end. Robustness
/// properties, each individually testable and chaos-tested together:
///
///  - request validation: malformed requests (negative/unknown user ids,
///    non-positive k) get a clean kInvalidArgument, never UB;
///  - bounded work queue with load shedding: when the queue is full a
///    request is rejected immediately with kUnavailable instead of
///    queueing unboundedly and blowing latency for everyone (admission
///    control and workers ride on the shared ThreadPool substrate, so the
///    enqueue-vs-shutdown contract is the pool's tested contract);
///  - adaptive overload control (opt-in, overload.h): a CoDel-style
///    controller on measured queue sojourn sheds batch-priority traffic
///    early instead of at queue-full, refuses requests predicted to miss
///    their deadline in the queue (`shed_predicted_late`), and under
///    sustained pressure walks a hysteretic brownout ladder — reduced
///    scoring budgets, then popularity fallback for batch traffic — so
///    goodput holds instead of collapsing metastably;
///  - deadline budgets: scoring checks the per-request deadline between
///    blocks and returns kDeadlineExceeded instead of hanging;
///  - snapshot loading retries with exponential backoff + jitter;
///  - a circuit breaker trips after consecutive snapshot/scoring failures
///    so a broken dependency is not hammered;
///  - graceful degradation: while the breaker is open or no snapshot is
///    loadable, requests are answered from the precomputed popularity
///    ranking with `degraded=true` — the service keeps answering;
///  - partial degradation: when the live snapshot is sharded (v3) and some
///    item shards are quarantined, requests touching those item ranges
///    still get real model scores for healthy shards, backfilled from the
///    popularity ranking for the quarantined ranges, and are surfaced with
///    `partial_degraded=true`; requests confined to healthy ranges are
///    served normally;
///  - snapshot version monotonicity: a snapshot whose version is not
///    strictly greater than the live one is refused (kFailedPrecondition,
///    "snapshot_rejected" journal event), so a stale file republished by a
///    confused deployer can never roll the service backwards;
///  - bounded staleness: an optional watchdog compares the age of the live
///    snapshot against a budget and trips the degraded path when repeated
///    reload failures leave the snapshot too stale to trust;
///  - hot snapshot reload via an atomically published shared_ptr: a
///    mid-flight request keeps scoring against the snapshot it started
///    with.

namespace imcat {

/// Monotonic counters describing service activity, read from the
/// service's `serve_*` metrics (each field is one counter; a field is exact
/// once the writers it counts have synchronised with the reader, e.g. via
/// a resolved future).
struct RecServiceStats {
  int64_t accepted = 0;          ///< Requests admitted to the queue.
  int64_t shed = 0;              ///< Rejected kUnavailable: queue full.
  /// Rejected kUnavailable by the overload controller: queue sojourn above
  /// the CoDel target for a full interval, batch-priority arrival shed.
  int64_t shed_queue_delay = 0;
  /// Rejected kUnavailable by the overload controller: remaining deadline
  /// budget below the smoothed queue-wait estimate (at admission), or the
  /// deadline already expired in the queue (at dequeue) — either way the
  /// request is refused instead of scored-then-expired.
  int64_t shed_predicted_late = 0;
  /// Brownout ladder level changes (each step up or down counts one).
  int64_t brownout_transitions = 0;
  int64_t served_real = 0;       ///< Answered with real model scores.
  int64_t served_degraded = 0;   ///< Answered from the popularity fallback.
  /// Answered with real scores for healthy shards plus popularity backfill
  /// for quarantined item ranges (kPartialDegraded outcome).
  int64_t served_partial_degraded = 0;
  int64_t deadline_exceeded = 0; ///< Scoring passes cut off by deadline.
  int64_t invalid_requests = 0;  ///< Validation rejections.
  int64_t snapshot_reloads = 0;  ///< Successful snapshot (re)loads.
  int64_t snapshot_load_failures = 0;  ///< LoadSnapshot calls that gave up.
  /// Loads refused because the candidate's version was not strictly
  /// greater than the live snapshot's.
  int64_t rejected_publishes = 0;
  /// Times the staleness watchdog tripped (edge-triggered; resets on a
  /// successful publish).
  int64_t staleness_trips = 0;
  /// Successful delta publishes (LoadDelta applied and swapped in).
  int64_t delta_publishes = 0;
  /// Deltas refused with kFailedPrecondition: base-version mismatch
  /// (stale/out-of-order delta) or no live snapshot to chain onto.
  int64_t rejected_deltas = 0;
};

/// Service configuration.
struct RecServiceOptions {
  int64_t num_workers = 2;
  int64_t queue_capacity = 32;
  /// Request coalescing (DESIGN.md §12): a worker wakeup scores its own
  /// request plus up to this many minus one compatible requests queued
  /// behind it — same (item_begin, item_end) range, FIFO prefix — through
  /// the multi-user batched kernel against one pinned snapshot and one
  /// brownout-ladder level. Per-request deadlines, exclusions, validation
  /// and the full response taxonomy are preserved per batch member;
  /// deadline-expired and predicted-late requests are still refused at
  /// dequeue, before scoring. 1 (the default) scores one request per
  /// wakeup, a batch of one; 8 is a good starting point for
  /// throughput-bound deployments (see docs/PERFORMANCE.md for tuning).
  int64_t max_batch_size = 1;
  int64_t default_top_k = 20;
  /// Deadline applied when a request does not set one.
  double default_deadline_ms = 50.0;
  RecommenderOptions recommender;
  CircuitBreaker::Options breaker;
  /// Retry policy for LoadSnapshot (attempts, exponential envelope,
  /// jitter).
  BackoffOptions load_backoff;
  /// Loader policy for snapshot files (partial loads, per-shard re-reads).
  SnapshotLoadOptions snapshot_load;
  /// Adaptive overload control (overload.h). Disabled by default — the
  /// service then sheds only at queue-full, exactly the pre-controller
  /// behaviour. When `overload.enabled` is true and `overload.now_ms` is
  /// empty, the controller shares the service clock below.
  OverloadOptions overload;
  /// Bounded-staleness budget: when > 0 and the live snapshot was
  /// published more than this many milliseconds ago (repeated reload
  /// failures), requests are answered from the popularity fallback until a
  /// fresh snapshot publishes. 0 disables the watchdog.
  double max_snapshot_staleness_ms = 0.0;
  /// Monotonic millisecond clock shared by the breaker and deadline
  /// checks; empty uses steady_clock. Tests inject a fake clock.
  std::function<double()> now_ms;
  /// Sleeper for backoff delays; empty uses this_thread::sleep_for. Tests
  /// inject a no-op to keep retry loops instant.
  std::function<void(double)> sleep_ms;
  /// Registry for the service's metrics (DESIGN.md §9); null gives the
  /// service a private one, so instrumentation is always on and stats()
  /// reads the same counters either way. The service maintains the
  /// `serve_*` request-accounting counters (which satisfy
  /// `serve_requests_total` == sum of the per-outcome counters once every
  /// submitted future has resolved; `serve_requests_accepted_total` counts
  /// the requests admitted to the queue), the `serve_request_latency_ms`
  /// histogram (each batch member records its batch's handling time),
  /// `serve_queue_wait_ms` (measured per-request sojourn, the overload
  /// controller's input signal), the `serve_batch_size` histogram and
  /// `serve_batched_requests_total` counter (one sample per worker drain,
  /// one count per request scored via a drain), the `serve_breaker_state`
  /// / `serve_brownout_level` gauges, the snapshot reload counters, and
  /// the worker pool's `serve_pool_*` metrics. The names carry no
  /// per-service prefix, so one registry serves one RecService: two
  /// services on one registry share counters, and each one's stats() and
  /// `/metrics` then count both.
  MetricsRegistry* metrics = nullptr;
  /// Optional run journal: snapshot (re)loads and circuit-breaker state
  /// transitions are appended as "snapshot_reload" / "breaker" events.
  RunJournal* journal = nullptr;
};

/// The serving front end. Thread-safe; owns its worker pool.
class RecService {
 public:
  /// `fallback` is the precomputed popularity ranking used in degraded
  /// mode; it must be non-null so the service can always answer.
  RecService(std::shared_ptr<const PopularityRanker> fallback,
             const RecServiceOptions& options);
  ~RecService();

  RecService(const RecService&) = delete;
  RecService& operator=(const RecService&) = delete;

  /// Loads (or hot-reloads) the serving snapshot from `path`, retrying
  /// with exponential backoff + jitter. On success the new snapshot is
  /// swapped in atomically (mid-flight requests keep the old one) and the
  /// breaker records a success; after the final failed attempt the breaker
  /// records a failure and the previous snapshot, if any, stays live.
  ///
  /// Version monotonicity: the candidate's version is the manifest's
  /// parent_version when assigned (> 0), otherwise the service's own
  /// monotonic counter. A candidate whose version is not strictly greater
  /// than the live snapshot's is refused with kFailedPrecondition (journal
  /// event "snapshot_rejected"; no breaker feedback — the file is intact,
  /// the publish is just stale).
  ///
  /// Self-healing: a sharded snapshot with quarantined shards publishes
  /// partially (healthy ranges serve normally); the next LoadSnapshot of a
  /// clean file replaces it wholesale, un-quarantining everything.
  Status LoadSnapshot(const std::string& path);

  /// Applies a delta snapshot file (shard_format.h, "IMD3") on top of the
  /// live snapshot and publishes the result atomically — requests see the
  /// old snapshot until the swap, then the new one; a delta is never
  /// half-applied.
  ///
  /// Refusals with kFailedPrecondition (journal event "delta_rejected",
  /// `serve_delta_rejected_total`; no breaker feedback, no retries — a
  /// stale delta cannot become fresh by retrying): no live snapshot to
  /// chain onto, or the delta's base_version does not match the live
  /// version (out-of-order / stale / duplicate delta).
  ///
  /// Corruption containment follows EmbeddingSnapshot::ApplyDelta: a
  /// corrupt changed shard keeps the base's old rows (stale — requests
  /// touching it are flagged partial_degraded) or quarantines when the
  /// base cannot cover it; a corrupt manifest or user table fails the
  /// publish after the load-backoff retries, the base stays live, and the
  /// breaker records the failure.
  Status LoadDelta(const std::string& path);

  /// Enqueues a request. Returns a future that is always eventually
  /// satisfied with a definite RecResponse; when the queue is full the
  /// future is ready immediately with kUnavailable (load shed).
  std::future<RecResponse> Submit(RecRequest request);

  /// Synchronous convenience wrapper around Submit.
  RecResponse Recommend(RecRequest request);

  /// Stops the workers; queued-but-unprocessed requests resolve to
  /// kUnavailable. Idempotent; also run by the destructor.
  void Shutdown();

  /// The currently published snapshot (may be null before the first
  /// successful load).
  std::shared_ptr<const EmbeddingSnapshot> snapshot() const;

  CircuitBreaker::State breaker_state() const { return breaker_.state(); }
  RecServiceStats stats() const;

  /// Current brownout ladder level (0 when the controller is disabled).
  int64_t brownout_level() const;
  /// True while the overload controller declares CoDel overload.
  bool overloaded() const;

  /// One-line JSON health report: a `status` verdict (most severe first:
  /// shut_down, degraded, browned_out, ok), breaker state, brownout ladder
  /// level, overload flag, smoothed queue-wait estimate, snapshot health
  /// (version, staleness, quarantined/stale shards), and the effective
  /// batch configuration (max_batch_size, kernel block_items). Wire it
  /// into MetricsScrapeServer::set_health_provider to serve `GET /healthz`.
  std::string HealthJson() const;

 private:
  struct Task {
    RecRequest request;
    std::promise<RecResponse> promise;
    /// now_ms_ reading when the request entered the work queue; the worker
    /// measures the sojourn against it (satellite of the overload layer:
    /// controller and client see the same number).
    double enqueue_ms = 0.0;
  };

  /// Everything a batch member needs decided *before* scoring: validation,
  /// expired-in-queue refusal, staleness/degraded/brownout early-outs, and
  /// the scoring budgets. When `done` is set the response is final without
  /// touching the recommender (its outcome counters are already bumped);
  /// otherwise top_k / scoring_deadline_ms / max_scored_items parameterise
  /// the batched scoring call.
  struct ScorePlan {
    bool done = false;
    RecResponse response;
    int64_t top_k = 0;
    double scoring_deadline_ms = 0.0;
    int64_t max_scored_items = 0;
  };
  ScorePlan PlanRequest(const RecRequest& request, double queue_wait_ms,
                        const std::shared_ptr<const EmbeddingSnapshot>& snap,
                        int64_t brownout_level);
  /// Everything after scoring: partial-degraded backfill, stale-range
  /// flagging, outcome counters and breaker feedback.
  RecResponse FinishScored(const RecRequest& request,
                           const EmbeddingSnapshot& snap, int64_t top_k,
                           Status status, std::vector<ScoredItem> items,
                           int64_t quarantined_skipped);

  /// Worker body of the pool ticket bound to `task`: when `task` is still
  /// queued it heads a batch, followed by the compatible FIFO prefix queued
  /// behind it (same item range, up to max_batch_size), scored as one
  /// TopKBatch call. When an earlier drain already took `task` as a
  /// follower the ticket is a no-op. Each queued task has exactly one
  /// ticket, so every future resolves once: run by a drain, or cancelled.
  void DrainAndProcess(const std::shared_ptr<Task>& task);
  /// Cancel path of the same ticket (pool shutdown): resolves `task` to
  /// kUnavailable when it is still queued; no-op when a drain took it.
  void CancelQueued(const std::shared_ptr<Task>& task);
  /// Removes `task` from batch_queue_ if it is still there; false when a
  /// drain already took it.
  bool TakeQueued(const std::shared_ptr<Task>& task);
  void ProcessBatch(const std::vector<std::shared_ptr<Task>>& batch);
  /// Full-fallback response; when `item_end` > 0 the popularity ranking is
  /// restricted to [item_begin, item_end).
  RecResponse DegradedResponse(int64_t top_k,
                               const std::vector<int64_t>& exclude,
                               int64_t item_begin, int64_t item_end);

  RecServiceOptions options_;
  /// Registry of every handle below: options.metrics, else own_metrics_.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  std::shared_ptr<const PopularityRanker> fallback_;
  Recommender recommender_;
  CircuitBreaker breaker_;
  /// Overload controller; null when options.overload.enabled is false.
  std::unique_ptr<OverloadController> overload_;
  std::function<double()> now_ms_;
  std::function<void(double)> sleep_ms_;

  /// The published snapshot, guarded by its own mutex. Readers copy the
  /// shared_ptr under the lock and then score lock-free against their
  /// copy, which stays alive across a concurrent hot swap. (A plain
  /// mutex instead of std::atomic<shared_ptr>: the libstdc++ lock-bit
  /// implementation is opaque to ThreadSanitizer, and the uncontended
  /// lock is negligible next to scoring.)
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EmbeddingSnapshot> snapshot_;
  /// Atomically replaces the published snapshot.
  void PublishSnapshot(std::shared_ptr<const EmbeddingSnapshot> snapshot);

  std::mutex load_mu_;  ///< Serialises LoadSnapshot calls.
  std::atomic<int64_t> next_snapshot_version_{1};

  /// Staleness watchdog state: when the live snapshot was published
  /// (now_ms_ clock; negative = nothing published yet) and whether the
  /// watchdog already journalled the current trip (edge-triggering keeps a
  /// request storm from flooding the journal).
  std::atomic<double> last_publish_ms_{-1.0};
  std::atomic<bool> stale_tripped_{false};

  /// Request-accounting metric handles, resolved once at construction in
  /// metrics_. The exact-accounting identity, asserted by the chaos suite:
  ///   requests_total == ok + degraded + partial_degraded + shed
  ///                     + shed_queue_delay + shed_predicted_late
  ///                     + deadline_exceeded + invalid + error + cancelled
  /// once every submitted future has resolved.
  Counter* requests_total_;
  Counter* requests_accepted_;
  Counter* requests_ok_;
  Counter* requests_degraded_;
  Counter* requests_partial_degraded_;
  Counter* requests_shed_;
  Counter* requests_shed_queue_delay_;
  Counter* requests_shed_predicted_late_;
  Counter* requests_deadline_;
  Counter* requests_invalid_;
  Counter* requests_error_;
  Counter* requests_cancelled_;
  Counter* snapshot_reloads_total_;
  Counter* snapshot_load_failures_total_;
  Counter* snapshot_rejected_publishes_total_;
  Counter* snapshot_shards_quarantined_total_;
  Counter* staleness_trips_total_;
  Counter* breaker_transitions_total_;
  Counter* delta_publishes_total_;
  Counter* delta_rejected_total_;
  Counter* brownout_transitions_total_;
  Gauge* brownout_level_gauge_;
  Gauge* breaker_state_gauge_;
  Gauge* quarantined_shards_gauge_;
  Gauge* staleness_ms_gauge_;
  Gauge* stale_shards_gauge_;
  Gauge* delta_lag_ms_gauge_;
  Histogram* request_latency_ms_;
  /// Measured per-request queue sojourn (the controller's input signal),
  /// recorded for every dequeued request whether or not the controller is
  /// enabled.
  Histogram* queue_wait_ms_;
  /// One serve_batch_size sample per worker drain, one
  /// serve_batched_requests_total count per request scored via a drain.
  Histogram* batch_size_;
  Counter* batched_requests_total_;
  RunJournal* journal_ = nullptr;

  /// Records a delta refusal (counter + "delta_rejected" journal).
  void RecordDeltaRejected(const std::string& path, int64_t live_version,
                           int64_t base_version, const std::string& reason);

  /// When >= 0, the now_ms_ time of the last successful delta publish;
  /// `serve_snapshot_delta_lag_ms` measures against it on every request so
  /// a scraper sees delta lag grow live while publishes fail.
  std::atomic<double> last_delta_publish_ms_{-1.0};

  /// The request queue. Each Submit pushes its task here and enqueues one
  /// drain ticket bound to it on the pool, whose bounded queue does
  /// admission; a running ticket drains its task plus a compatible FIFO
  /// prefix. Declared before pool_ so it outlives the pool's shutdown
  /// cancellations.
  std::mutex batch_mu_;
  std::deque<std::shared_ptr<Task>> batch_queue_;

  /// Workers + bounded queue + shutdown contract. Declared last so the
  /// pool (and with it every in-flight drain referencing this service)
  /// is torn down before any other member.
  ThreadPool pool_;
};

}  // namespace imcat

#endif  // IMCAT_SERVE_REC_SERVICE_H_
