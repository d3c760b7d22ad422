#include "serve/recommender.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "tensor/score_kernel.h"
#include "util/check.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

/// The ranking order (score desc, id asc); used as a heap "less-than" it
/// keeps the worst kept item on top. A strict total order: the top-k *set*
/// it selects is independent of candidate arrival order, which is what
/// lets the batched path reuse the scalar path's heaps unchanged.
bool Better(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

}  // namespace

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recommender::Recommender(const RecommenderOptions& options)
    : block_items_(options.block_items),
      now_ms_(options.now_ms ? options.now_ms : SteadyNowMs) {
  IMCAT_CHECK(block_items_ > 0);
}

Status Recommender::TopK(const EmbeddingSnapshot& snapshot, int64_t user,
                         int64_t k, double deadline_ms,
                         const std::vector<int64_t>& exclude,
                         std::vector<ScoredItem>* out) const {
  return TopK(snapshot, user, k, deadline_ms, exclude, /*item_begin=*/0,
              /*item_end=*/0, out, /*quarantined_skipped=*/nullptr);
}

Status Recommender::TopK(const EmbeddingSnapshot& snapshot, int64_t user,
                         int64_t k, double deadline_ms,
                         const std::vector<int64_t>& exclude,
                         int64_t item_begin, int64_t item_end,
                         std::vector<ScoredItem>* out,
                         int64_t* quarantined_skipped,
                         int64_t max_items) const {
  out->clear();
  if (quarantined_skipped != nullptr) *quarantined_skipped = 0;
  BatchQuery query;
  query.user = user;
  query.k = k;
  query.deadline_ms = deadline_ms;
  query.exclude = &exclude;
  BatchQueryResult result;
  const Status batch_status = TopKBatchImpl(snapshot, &query, 1, item_begin,
                                            item_end, max_items, &result);
  // Per-query validation (user, then k) outranks the range check, matching
  // the historical scalar precedence.
  if (!result.status.ok()) return std::move(result.status);
  if (!batch_status.ok()) return batch_status;
  *out = std::move(result.items);
  if (quarantined_skipped != nullptr) {
    *quarantined_skipped = result.quarantined_skipped;
  }
  return Status::OK();
}

Status Recommender::TopKBatch(const EmbeddingSnapshot& snapshot,
                              const std::vector<BatchQuery>& queries,
                              int64_t item_begin, int64_t item_end,
                              int64_t max_items,
                              std::vector<BatchQueryResult>* results) const {
  results->clear();
  results->resize(queries.size());
  if (queries.empty()) return Status::OK();
  return TopKBatchImpl(snapshot, queries.data(),
                       static_cast<int64_t>(queries.size()), item_begin,
                       item_end, max_items, results->data());
}

Status Recommender::TopKBatchImpl(const EmbeddingSnapshot& snapshot,
                                  const BatchQuery* queries,
                                  int64_t num_queries, int64_t item_begin,
                                  int64_t item_end, int64_t max_items,
                                  BatchQueryResult* results) const {
  static const std::vector<int64_t> kNoExclusions;

  // Per-query state for the queries that passed validation and have not
  // yet finished (completed queries leave `live` when their deadline
  // expires; everyone else runs to the end of the range).
  struct ActiveQuery {
    int64_t index;  // Position in `queries` / `results`.
    std::unordered_set<int64_t> excluded;
    std::vector<ScoredItem> heap;
    int64_t skipped = 0;
  };

  // Per-query validation first: a bad user or k poisons only that query.
  bool any_active = false;
  for (int64_t i = 0; i < num_queries; ++i) {
    results[i] = BatchQueryResult();
    Status valid = snapshot.ValidateUser(queries[i].user);
    if (valid.ok() && queries[i].k <= 0) {
      valid = Status::InvalidArgument("top_k must be positive, got " +
                                      std::to_string(queries[i].k));
    }
    results[i].status = std::move(valid);
    any_active = any_active || results[i].status.ok();
  }
  // The shared range check: a malformed range fails the whole batch.
  if (item_end == 0 && item_begin == 0) item_end = snapshot.num_items();
  if (item_begin < 0 || item_end <= item_begin ||
      item_end > snapshot.num_items()) {
    return Status::InvalidArgument(
        "item range [" + std::to_string(item_begin) + ", " +
        std::to_string(item_end) + ") invalid for catalogue of " +
        std::to_string(snapshot.num_items()) + " items");
  }
  if (max_items > 0) {
    // Brownout scoring budget: truncate the scan to a prefix of the range
    // (validation above still ran against the caller's full range).
    item_end = std::min(item_end, item_begin + max_items);
  }
  if (!any_active) return Status::OK();

  const double start_ms = now_ms_();
  const int64_t num_items = item_end;

  std::vector<ActiveQuery> active;
  active.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) {
    if (!results[i].status.ok()) continue;
    active.emplace_back();
    ActiveQuery& q = active.back();
    q.index = i;
    const std::vector<int64_t>& exclude =
        queries[i].exclude != nullptr ? *queries[i].exclude : kNoExclusions;
    q.excluded.insert(exclude.begin(), exclude.end());
    q.heap.reserve(static_cast<size_t>(
        std::min(queries[i].k, num_items - item_begin)));
  }

  // `live[r]` indexes into `active`; score-buffer row r belongs to it.
  // Row pointers are rebuilt only when the live set changes (a deadline
  // expiry), not per block.
  std::vector<size_t> live(active.size());
  for (size_t r = 0; r < live.size(); ++r) live[r] = r;
  std::vector<const float*> user_rows;
  bool rows_dirty = true;
  // A segment scores every panel it overlaps; one that starts mid-panel
  // overlaps one panel more than an aligned one of the same length.
  const int64_t stride = (NumPanels(block_items_) + 1) * kPanelItems;
  std::vector<float> scores(live.size() * static_cast<size_t>(stride));

  for (int64_t begin = item_begin; begin < num_items; begin += block_items_) {
    if (begin > item_begin) {
      // Deadline checkpoint between scoring blocks. The injected
      // forced-slow fault burns budget here, exactly where a production
      // stall (page fault storm, NUMA misplacement) would — once per
      // block boundary for the whole batch, the same as one scalar pass.
      FaultInjector& injector = FaultInjector::Instance();
      if (injector.enabled()) {
        const double slow_ms = injector.ConsumeSlowOp();
        if (slow_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(slow_ms));
        }
      }
      // One clock read per boundary, shared by every live query — the
      // same read sequence as a scalar pass, so fake-clock tests see
      // identical timings at batch size 1.
      bool any_deadline = false;
      for (size_t r : live) {
        any_deadline = any_deadline || queries[active[r].index].deadline_ms > 0.0;
      }
      if (any_deadline) {
        const double elapsed_ms = now_ms_() - start_ms;
        for (size_t r = 0; r < live.size();) {
          ActiveQuery& q = active[live[r]];
          const double deadline_ms = queries[q.index].deadline_ms;
          if (deadline_ms > 0.0 && elapsed_ms > deadline_ms) {
            results[q.index].status = Status::DeadlineExceeded(
                "top-k scoring exceeded " + std::to_string(deadline_ms) +
                " ms after " + std::to_string(begin - item_begin) + "/" +
                std::to_string(num_items - item_begin) + " items");
            live.erase(live.begin() + static_cast<int64_t>(r));
            rows_dirty = true;
          } else {
            ++r;
          }
        }
        if (live.empty()) break;
      }
    }
    if (rows_dirty) {
      user_rows.resize(live.size());
      for (size_t r = 0; r < live.size(); ++r) {
        user_rows[r] = snapshot.user(queries[active[live[r]].index].user);
      }
      rows_dirty = false;
    }
    const int64_t end = std::min(begin + block_items_, num_items);
    // The block in per-shard segments, each scored from its own shard's
    // panels; segments never move a deadline boundary.
    for (int64_t segment = begin; segment < end;) {
      const int64_t shard = snapshot.shard_of_item(segment);
      const int64_t shard_begin = snapshot.shard_range(shard).first;
      const int64_t segment_end =
          std::min(end, snapshot.shard_range(shard).second);
      if (snapshot.shard_quarantined(shard)) {
        // Zero placeholders, not scores: skipped and counted, never ranked.
        for (size_t r : live) {
          ActiveQuery& q = active[r];
          for (int64_t item = segment; item < segment_end; ++item) {
            if (q.excluded.empty() || q.excluded.count(item) == 0) {
              ++q.skipped;
            }
          }
        }
        segment = segment_end;
        continue;
      }
      // The panel kernel: this segment's panels stream through cache once
      // for the whole batch. Excluded items (and the lanes of a partly
      // covered panel) are scored too and discarded during selection below
      // — branchless scoring keeps the inner loop tight, and a discarded
      // score cannot change the selected set (the ranking order is a strict
      // total order).
      const int64_t first_panel = (segment - shard_begin) / kPanelItems;
      ScorePanels(user_rows.data(), static_cast<int64_t>(live.size()),
                  snapshot.shard_panels(shard), first_panel,
                  (segment_end - 1 - shard_begin) / kPanelItems -
                      first_panel + 1,
                  snapshot.dim(), scores.data(), stride);
      const int64_t first_lane_item = shard_begin + first_panel * kPanelItems;
      for (size_t r = 0; r < live.size(); ++r) {
        ActiveQuery& q = active[live[r]];
        const size_t k = static_cast<size_t>(queries[q.index].k);
        const bool has_exclusions = !q.excluded.empty();
        const float* row = scores.data() + r * static_cast<size_t>(stride);
        for (int64_t item = segment; item < segment_end; ++item) {
          const float score = row[item - first_lane_item];
          const bool full = q.heap.size() == k;
          // Ids arrive in ascending order, so a candidate that ties the
          // k-th score loses to it: once the heap is full only a strictly
          // greater score can enter. A NaN compares false and stays out, as
          // under Better.
          if (full && !(score > q.heap.front().score)) continue;
          if (has_exclusions && q.excluded.count(item) != 0) continue;
          if (full) {
            std::pop_heap(q.heap.begin(), q.heap.end(), Better);
            q.heap.back() = ScoredItem{item, score};
          } else {
            q.heap.push_back(ScoredItem{item, score});
          }
          std::push_heap(q.heap.begin(), q.heap.end(), Better);
        }
      }
      segment = segment_end;
    }
  }
  for (size_t r : live) {
    ActiveQuery& q = active[r];
    // Ascending under Better = best first.
    std::sort_heap(q.heap.begin(), q.heap.end(), Better);
    results[q.index].items = std::move(q.heap);
    results[q.index].quarantined_skipped = q.skipped;
  }
  return Status::OK();
}

}  // namespace imcat
