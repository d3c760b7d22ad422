#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "util/check.h"

namespace imcat {

namespace {

Status StatusFromCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    return Status(StatusCode::kFailedPrecondition,
                  std::string("task threw: ") + e.what());
  } catch (...) {
    return Status(StatusCode::kFailedPrecondition,
                  "task threw a non-std::exception object");
  }
}

}  // namespace

ThreadPool::ThreadPool(const ThreadPoolOptions& options) {
  num_threads_ = options.num_threads;
  if (num_threads_ <= 0) {
    num_threads_ = static_cast<int64_t>(std::thread::hardware_concurrency());
    if (num_threads_ <= 0) num_threads_ = 1;
  }
  IMCAT_CHECK_GT(options.queue_capacity, 0);
  queue_capacity_ = options.queue_capacity;
  if (options.metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
  }
  MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : own_metrics_.get();
  const std::string& p = options.metrics_prefix;
  tasks_run_total_ = metrics->GetCounter(p + "_tasks_run_total");
  tasks_cancelled_total_ = metrics->GetCounter(p + "_tasks_cancelled_total");
  queue_wait_ms_ = metrics->GetHistogram(p + "_queue_wait_ms");
  queue_depth_gauge_ = metrics->GetGauge(p + "_queue_depth");
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int64_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

ThreadPool* ThreadPool::Shared() {
  // Function-local static: created on first use, joined at normal exit.
  static ThreadPool pool{ThreadPoolOptions{}};
  return &pool;
}

bool ThreadPool::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopped_;
}

int64_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

Status ThreadPool::first_task_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_task_error_;
}

int64_t ThreadPool::task_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return task_exceptions_;
}

Status ThreadPool::SubmitLocked(std::function<void()> run,
                                std::function<void()> cancel, bool blocking) {
  std::unique_lock<std::mutex> lock(mu_);
  if (blocking) {
    space_cv_.wait(lock, [this] {
      return stopped_ ||
             static_cast<int64_t>(queue_.size()) < queue_capacity_;
    });
  }
  if (stopped_) return Status::Unavailable("thread pool is shut down");
  if (static_cast<int64_t>(queue_.size()) >= queue_capacity_) {
    return Status::Unavailable("thread pool queue full (" +
                               std::to_string(queue_capacity_) + " tasks)");
  }
  queue_.push_back(QueuedTask{std::move(run), std::move(cancel),
                              MetricsNowMs()});
  queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  work_cv_.notify_one();
  return Status::OK();
}

Status ThreadPool::Submit(std::function<void()> run,
                          std::function<void()> cancel) {
  return SubmitLocked(std::move(run), std::move(cancel), /*blocking=*/true);
}

Status ThreadPool::TrySubmit(std::function<void()> run,
                             std::function<void()> cancel) {
  return SubmitLocked(std::move(run), std::move(cancel), /*blocking=*/false);
}

void ThreadPool::RunCaptured(const std::function<void()>& run) {
  try {
    run();
  } catch (...) {
    Status st = StatusFromCurrentException();
    std::lock_guard<std::mutex> lock(mu_);
    if (first_task_error_.ok()) first_task_error_ = std::move(st);
    ++task_exceptions_;
  }
}

void ThreadPool::NoteTaskDequeued(const QueuedTask& task,
                                  int64_t depth_after) {
  tasks_run_total_->Increment();
  queue_wait_ms_->Record(MetricsNowMs() - task.enqueued_ms);
  queue_depth_gauge_->Set(static_cast<double>(depth_after));
}

bool ThreadPool::RunOneQueuedTask() {
  QueuedTask task;
  int64_t depth_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    depth_after = static_cast<int64_t>(queue_.size());
  }
  NoteTaskDequeued(task, depth_after);
  space_cv_.notify_one();
  RunCaptured(task.run);
  return true;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueuedTask task;
    int64_t depth_after = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      // On shutdown, abandon the queue immediately: leftovers are
      // cancelled (not run) by Shutdown() after the join.
      if (stopped_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      depth_after = static_cast<int64_t>(queue_.size());
    }
    NoteTaskDequeued(task, depth_after);
    space_cv_.notify_one();
    RunCaptured(task.run);
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Workers are gone; resolve everything still queued through its cancel
  // callback so no task is silently dropped.
  std::deque<QueuedTask> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  queue_depth_gauge_->Set(0.0);
  for (QueuedTask& task : leftover) {
    tasks_cancelled_total_->Increment();
    if (task.cancel) RunCaptured(task.cancel);
  }
}

Status ThreadPool::ParallelFor(int64_t begin, int64_t end,
                               const std::function<void(int64_t)>& body,
                               int64_t grain) {
  const int64_t n = end - begin;
  if (n <= 0) return Status::OK();
  if (grain <= 0) {
    // Aim for a few chunks per thread so stragglers rebalance, without
    // drowning tiny ranges in per-chunk overhead. Pure function of the
    // range and the (fixed) thread count — never of runtime timing.
    grain = std::max<int64_t>(int64_t{1}, n / (num_threads_ * 4));
  }
  const int64_t num_chunks = (n + grain - 1) / grain;

  // Shared iteration state. Helpers pull chunk ids from an atomic counter;
  // each index is visited exactly once, by exactly one thread. The state
  // outlives any helper via shared_ptr (a helper cancelled at shutdown
  // still decrements the outstanding count through its cancel callback).
  struct ForState {
    std::atomic<int64_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t outstanding_helpers = 0;
    Status error;  // From the lowest-indexed failing chunk.
    int64_t error_chunk = -1;
  };
  auto state = std::make_shared<ForState>();

  auto drain = [state, begin, end, grain, num_chunks, &body] {
    int64_t chunk;
    while ((chunk = state->next_chunk.fetch_add(
                1, std::memory_order_relaxed)) < num_chunks) {
      const int64_t lo = begin + chunk * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        for (int64_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        Status st = StatusFromCurrentException();
        std::lock_guard<std::mutex> lock(state->mu);
        // Keep the lowest-indexed error; every chunk still runs, so the
        // reported failure is deterministic regardless of scheduling.
        if (state->error_chunk < 0 || chunk < state->error_chunk) {
          state->error_chunk = chunk;
          state->error = std::move(st);
        }
      }
    }
  };

  auto helper_done = [state] {
    std::lock_guard<std::mutex> lock(state->mu);
    --state->outstanding_helpers;
    state->done_cv.notify_all();
  };

  // Launch at most one helper per worker beyond the calling thread.
  // TrySubmit keeps this non-blocking: if the queue is full or the pool is
  // shut down the helper simply never exists and the caller picks up the
  // chunks itself — slower, never stuck.
  const int64_t max_helpers = std::min<int64_t>(num_threads_, num_chunks - 1);
  for (int64_t h = 0; h < max_helpers; ++h) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->outstanding_helpers;
    }
    // The helper references `body` via `drain`; the wait below keeps the
    // caller's frame (and `body`) alive until every helper has resolved.
    Status st = TrySubmit(
        [drain, helper_done] {
          drain();
          helper_done();
        },
        helper_done);
    if (!st.ok()) {
      helper_done();
      break;
    }
  }

  drain();  // The caller is always a worker for its own loop.

  // Wait for the helpers — actively. A helper may be parked in the queue
  // behind other work (including another loop's helpers when ParallelFor
  // calls nest from inside pool tasks); if every thread waited passively
  // here, nobody would be left to run those queued helpers and the loops
  // would deadlock. So while helpers are outstanding the caller keeps
  // executing queued tasks, falling back to a short timed wait only when
  // the queue is momentarily empty.
  while (true) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->outstanding_helpers == 0) return state->error;
    }
    if (RunOneQueuedTask()) continue;
    std::unique_lock<std::mutex> lock(state->mu);
    if (state->done_cv.wait_for(
            lock, std::chrono::milliseconds(1),
            [&state] { return state->outstanding_helpers == 0; })) {
      return state->error;
    }
  }
}

}  // namespace imcat
