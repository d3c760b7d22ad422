#ifndef IMCAT_UTIL_THREAD_POOL_H_
#define IMCAT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

/// \file thread_pool.h
/// The concurrency substrate shared by the parallel evaluator, the serving
/// front end and the parallel negative sampler. One implementation, three
/// consumers, so every threading bug has exactly one place to live and one
/// place to be fixed — and the whole thing is required to pass the `race`
/// test suite under ThreadSanitizer (`scripts/check.sh --tsan`).
///
/// Design contracts, each individually tested:
///
///  - **Bounded queue.** Pending (not yet running) tasks are capped at
///    `queue_capacity`. `TrySubmit` never blocks: it admits the task or
///    returns kUnavailable immediately ("queue full" — load shedding, or
///    "shut down"). `Submit` applies backpressure instead: it waits for
///    space, failing only on shutdown.
///
///  - **Shutdown semantics.** `Shutdown()` stops admission, wakes every
///    worker, joins them, and then *cancels* the queued-but-unstarted
///    tasks by invoking their cancel callbacks (never their run
///    callbacks). A task is therefore always resolved exactly once: run
///    by a worker, or cancelled at shutdown. Tasks already running when
///    Shutdown is called complete normally. Idempotent; also run by the
///    destructor.
///
///  - **Exception-to-Status capture.** A task that throws does not take
///    down the worker or the process: the exception is captured, counted,
///    and surfaced via `first_task_error()`. ParallelFor additionally
///    returns the captured Status directly.
///
///  - **Deterministic parallel iteration.** `ParallelFor(begin, end,
///    body)` partitions the index range into fixed chunks computed from
///    the range alone (never from thread timing), and `body(i)` may write
///    only to state owned by index i. Reductions built on top (see
///    `ParallelMap`, `Evaluator::Evaluate`) commit results in **index
///    order, never completion order**, so the result — including its
///    floating-point summation order — is bit-identical at any thread
///    count, including zero (a null/empty pool degrades to the serial
///    loop). The calling thread participates in the work and waits only
///    for chunks that running threads have already claimed, so ParallelFor
///    cannot deadlock even when every worker is busy, the queue is full,
///    or the pool is already shut down.
namespace imcat {

struct ThreadPoolOptions {
  /// Worker count; 0 uses std::thread::hardware_concurrency (min 1).
  int64_t num_threads = 0;
  /// Upper bound on queued (not yet running) tasks.
  int64_t queue_capacity = 1024;
  /// Registry for the pool's metrics (DESIGN.md §9); null gives the pool
  /// a private one. The pool maintains `<metrics_prefix>_tasks_run_total`,
  /// `<metrics_prefix>_tasks_cancelled_total`, a
  /// `<metrics_prefix>_queue_wait_ms` histogram (admission to execution)
  /// and a `<metrics_prefix>_queue_depth` gauge.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "pool";
};

class ThreadPool {
 public:
  explicit ThreadPool(const ThreadPoolOptions& options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// A process-wide pool sized to the hardware, created on first use and
  /// joined at exit. Intended for callers without a natural pool owner
  /// (benchmarks, examples); subsystems with lifecycle requirements (the
  /// serving front end) own their pools.
  static ThreadPool* Shared();

  int64_t num_threads() const { return num_threads_; }

  /// True once Shutdown() has begun; no further tasks are admitted.
  bool stopped() const;

  /// Pending (queued, not running) task count — a point-in-time snapshot.
  int64_t queue_depth() const;

  /// Enqueues `run`, blocking while the queue is at capacity. Fails only
  /// with kUnavailable once the pool is shut down; `cancel` (optional) is
  /// invoked instead of `run` if the task is still queued at shutdown.
  Status Submit(std::function<void()> run, std::function<void()> cancel = {});

  /// Non-blocking admission: kUnavailable with "queue full" when at
  /// capacity (load shedding) or "shut down" after Shutdown().
  Status TrySubmit(std::function<void()> run,
                   std::function<void()> cancel = {});

  /// Stops admission, joins workers, cancels queued-but-unstarted tasks
  /// (their cancel callbacks run on the calling thread). Idempotent.
  void Shutdown();

  /// Runs body(i) for every i in [begin, end), spread across the pool with
  /// the calling thread participating. Chunking is a pure function of the
  /// range (deterministic); `grain` <= 0 picks a chunk size automatically.
  /// Exceptions thrown by `body` are captured; the returned Status is OK,
  /// or the error from the lowest-indexed failing chunk (every chunk still
  /// runs). Returns once every chunk has finished: it never waits for a
  /// helper that has not started, and never runs unrelated queued tasks.
  /// Helpers that start after the chunks are gone return without calling
  /// `body`. Safe to call on a shut-down pool or from inside a pool task
  /// (the caller then degrades toward running the chunks itself; from one
  /// of this pool's workers it asks for at most num_threads() - 1 helpers).
  Status ParallelFor(int64_t begin, int64_t end,
                     const std::function<void(int64_t)>& body,
                     int64_t grain = 0);

  /// Maps fn over [0, n) into `out`, committed in index order: slot i is
  /// written only by index i, and `out` is sized up front, so the result
  /// never depends on completion order. T must be default-constructible.
  template <typename T>
  Status ParallelMap(int64_t n, const std::function<T(int64_t)>& fn,
                     std::vector<T>* out) {
    out->assign(static_cast<size_t>(n), T{});
    return ParallelFor(0, n, [&fn, out](int64_t i) {
      (*out)[static_cast<size_t>(i)] = fn(i);
    });
  }

  /// First exception captured from a plain Submit/TrySubmit task since
  /// construction (OK when none). ParallelFor errors are returned to the
  /// caller instead and do not land here.
  Status first_task_error() const;

  /// Number of tasks whose exceptions were captured.
  int64_t task_exceptions() const;

 private:
  struct QueuedTask {
    std::function<void()> run;
    std::function<void()> cancel;
    /// Admission time (MetricsNowMs).
    double enqueued_ms = 0.0;
  };

  void WorkerLoop();
  Status SubmitLocked(std::function<void()> run, std::function<void()> cancel,
                      bool blocking);
  void RunCaptured(const std::function<void()>& run);
  /// Records queue wait + run count for a task about to execute.
  void NoteTaskDequeued(const QueuedTask& task, int64_t depth_after);

  int64_t num_threads_ = 0;
  int64_t queue_capacity_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< Signals workers: task or shutdown.
  std::condition_variable space_cv_;  ///< Signals blocked Submit: space freed.
  std::deque<QueuedTask> queue_;
  bool stopped_ = false;
  std::vector<std::thread> workers_;

  Status first_task_error_;
  int64_t task_exceptions_ = 0;

  /// Private registry when ThreadPoolOptions::metrics is null.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  /// Instrumentation handles, resolved once at construction.
  Counter* tasks_run_total_ = nullptr;
  Counter* tasks_cancelled_total_ = nullptr;
  Histogram* queue_wait_ms_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
};

}  // namespace imcat

#endif  // IMCAT_UTIL_THREAD_POOL_H_
