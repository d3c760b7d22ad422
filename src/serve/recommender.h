#ifndef IMCAT_SERVE_RECOMMENDER_H_
#define IMCAT_SERVE_RECOMMENDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/snapshot.h"
#include "serve/types.h"
#include "util/status.h"

/// \file recommender.h
/// Deadline-aware top-k scoring over an EmbeddingSnapshot: the full item
/// catalogue is scored in fixed-size blocks with the per-request deadline
/// budget checked between blocks, so a slow or stalled scoring pass
/// surfaces as a clean kDeadlineExceeded instead of a hung request. A
/// batch entry point (TopKBatch) scores many users against each resident
/// item block before moving on, so the item table streams through cache
/// once per batch instead of once per user, and can split a long range
/// into block-aligned chunks scanned across a thread pool (DESIGN.md §12).

namespace imcat {

class ThreadPool;

/// Scoring configuration. The defaults suit catalogues up to a few million
/// items.
struct RecommenderOptions {
  /// Items scored between two deadline checks — and the item-block tile of
  /// the batched kernel: each block of item factors stays cache-resident
  /// while every user of a batch scores against it, so `block_items * dim`
  /// floats should fit comfortably in L2 alongside the batch's score
  /// buffer. Smaller blocks give tighter deadline granularity (and faster
  /// brownout/deadline reaction mid-request); larger blocks amortise the
  /// per-block bookkeeping better. The default suits dims up to a few
  /// hundred.
  int64_t block_items = 1024;
  /// Monotonic clock in milliseconds; overridable for deterministic tests.
  /// Defaults to std::chrono::steady_clock. A TopKBatch given a pool reads
  /// it from the pool's threads as well as the caller's, so it must be
  /// thread-safe.
  std::function<double()> now_ms;
};

/// Returns the default steady-clock millisecond reading (exposed so the
/// service and breaker share one clock source).
double SteadyNowMs();

/// Stateless scoring engine; thread-safe (all state is per-call).
class Recommender {
 public:
  /// One user's query within a TopKBatch call. All queries of a batch
  /// share the item range; deadline and exclusions are per query.
  struct BatchQuery {
    int64_t user = 0;
    int64_t k = 0;
    /// Total budget from TopKBatch entry; checked between scoring blocks.
    /// Non-positive = no limit.
    double deadline_ms = 0.0;
    /// Item ids excluded from this user's ranking (may be null = none).
    const std::vector<int64_t>* exclude = nullptr;
  };

  /// Per-query outcome of a TopKBatch call.
  struct BatchQueryResult {
    /// kInvalidArgument (bad user/k), kDeadlineExceeded (this query's
    /// budget ran out between blocks; `items` empty), or OK.
    Status status;
    std::vector<ScoredItem> items;
    /// In-range items skipped because their shard is quarantined (0 when
    /// the query did not finish).
    int64_t quarantined_skipped = 0;
  };

  explicit Recommender(const RecommenderOptions& options = {});

  /// Scores every item of `snapshot` for `user` and fills `out` with the
  /// top `k` by inner product (score desc, item id asc), skipping ids in
  /// `exclude`. `deadline_ms` is the total budget from call entry; spent
  /// budget is checked between scoring blocks and exceeding it returns
  /// kDeadlineExceeded with `out` empty. A non-positive deadline means no
  /// limit. `user` must be in range (the service validates ahead of time;
  /// out-of-range ids here are a clean kInvalidArgument, never UB).
  Status TopK(const EmbeddingSnapshot& snapshot, int64_t user, int64_t k,
              double deadline_ms, const std::vector<int64_t>& exclude,
              std::vector<ScoredItem>* out) const;

  /// Range- and quarantine-aware variant: ranks only items in
  /// [item_begin, item_end) (item_end == 0 means the full catalogue) and
  /// skips items whose snapshot shard is quarantined — their rows are
  /// zero-filled placeholders, not scores. The number of in-range items
  /// skipped that way is reported through `quarantined_skipped` (may be
  /// null); when it is non-zero the caller should backfill from the
  /// popularity ranking and mark the response partially degraded. A
  /// malformed range is kInvalidArgument.
  ///
  /// `max_items` caps how many in-range items are scored (a brownout
  /// scoring budget): a positive value truncates the scan to the first
  /// `max_items` ids of the range, trading ranking coverage for a
  /// proportionally cheaper pass. 0 (the default) scores the whole range.
  Status TopK(const EmbeddingSnapshot& snapshot, int64_t user, int64_t k,
              double deadline_ms, const std::vector<int64_t>& exclude,
              int64_t item_begin, int64_t item_end,
              std::vector<ScoredItem>* out, int64_t* quarantined_skipped,
              int64_t max_items = 0) const;

  /// Multi-user batch: scores all of `queries` over the shared item range
  /// in one blocked pass — each item block streams through cache once for
  /// the whole batch. Results land in `results` (resized to match
  /// `queries`, index-aligned). Per-query validation failures (bad user,
  /// non-positive k) land in that query's result status; the returned
  /// batch status is kInvalidArgument for a malformed range (all results
  /// then carry empty items) and OK otherwise.
  ///
  /// Semantics per query are identical to the scalar TopK above —
  /// bit-identical scores, the same (score desc, id asc) order, the same
  /// quarantine skip counts, and per-query deadlines still checked at
  /// every block boundary (an expired query drops out of the batch with
  /// kDeadlineExceeded while the others keep scoring). `max_items`
  /// applies to the shared range, as in the scalar variant.
  ///
  /// The (truncated) range is cut into a fixed list of block-aligned
  /// chunks that depends on the range alone; a range shorter than two
  /// minimum-size chunks (16384 items) is one chunk. Each chunk keeps its
  /// own heaps and skip counts, merged per query under the ranking order,
  /// so the results match one serial pass bit for bit. With a `pool` the
  /// chunks are spread across its threads through ParallelFor, the caller
  /// taking part; without one they run in order on the calling thread. A
  /// query whose deadline passes in any chunk is dropped by the others and
  /// ends kDeadlineExceeded with no items.
  Status TopKBatch(const EmbeddingSnapshot& snapshot,
                   const std::vector<BatchQuery>& queries, int64_t item_begin,
                   int64_t item_end, int64_t max_items,
                   std::vector<BatchQueryResult>* results,
                   ThreadPool* pool = nullptr) const;

  int64_t block_items() const { return block_items_; }

 private:
  Status TopKBatchImpl(const EmbeddingSnapshot& snapshot,
                       const BatchQuery* queries, int64_t num_queries,
                       int64_t item_begin, int64_t item_end,
                       int64_t max_items, BatchQueryResult* results,
                       ThreadPool* pool) const;

  int64_t block_items_;
  std::function<double()> now_ms_;
};

}  // namespace imcat

#endif  // IMCAT_SERVE_RECOMMENDER_H_
