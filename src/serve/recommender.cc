#include "serve/recommender.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <unordered_set>

#include "tensor/score_kernel.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

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

/// The smallest chunk of a split scan, in items (rounded up to whole
/// blocks): a range shorter than two of these is scanned as one chunk.
/// About 16 default blocks, large enough that a chunk's work outweighs
/// handing it to another thread.
constexpr int64_t kMinChunkItems = 16 * 1024;

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
  const Status batch_status =
      TopKBatchImpl(snapshot, &query, 1, item_begin, item_end, max_items,
                    &result, /*pool=*/nullptr);
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
                              std::vector<BatchQueryResult>* results,
                              ThreadPool* pool) const {
  results->clear();
  results->resize(queries.size());
  if (queries.empty()) return Status::OK();
  return TopKBatchImpl(snapshot, queries.data(),
                       static_cast<int64_t>(queries.size()), item_begin,
                       item_end, max_items, results->data(), pool);
}

Status Recommender::TopKBatchImpl(const EmbeddingSnapshot& snapshot,
                                  const BatchQuery* queries,
                                  int64_t num_queries, int64_t item_begin,
                                  int64_t item_end, int64_t max_items,
                                  BatchQueryResult* results,
                                  ThreadPool* pool) const {
  static const std::vector<int64_t> kNoExclusions;

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

  // The queries that passed validation, with their exclusion sets (built
  // once, then only read, by every chunk).
  struct ActiveQuery {
    int64_t index;  // Position in `queries` / `results`.
    std::unordered_set<int64_t> excluded;
  };
  std::vector<ActiveQuery> active;
  active.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) {
    if (!results[i].status.ok()) continue;
    const std::vector<int64_t>& exclude =
        queries[i].exclude != nullptr ? *queries[i].exclude : kNoExclusions;
    active.push_back(ActiveQuery{
        i, std::unordered_set<int64_t>(exclude.begin(), exclude.end())});
  }
  // What the chunks of active query `a` share. `expired` is raised by the
  // first chunk that sees the deadline pass; every other chunk drops the
  // query at its next block boundary. `floor` is the highest k-th score of
  // any chunk's full heap: that heap holds k items scoring at least
  // `floor`, so an item scoring strictly lower cannot reach the top k, and
  // every chunk may skip it without changing the merged result.
  struct SharedQuery {
    std::atomic<bool> expired{false};
    std::atomic<float> floor{-std::numeric_limits<float>::infinity()};
  };
  std::vector<SharedQuery> shared(active.size());

  // The chunk list is a function of the range alone: whole blocks, so the
  // deadline checkpoints sit at the same item offsets however the range is
  // split, and at least kMinChunkItems items per chunk.
  const int64_t num_blocks =
      (num_items - item_begin + block_items_ - 1) / block_items_;
  const int64_t min_chunk_blocks = std::max<int64_t>(
      1, (kMinChunkItems + block_items_ - 1) / block_items_);
  const int64_t num_chunks =
      std::max<int64_t>(1, num_blocks / min_chunk_blocks);

  // One chunk's partial result per active query: its own top-k heap and
  // quarantine skips, or the item offset where it saw the deadline pass.
  struct ChunkQuery {
    std::vector<ScoredItem> heap;
    int64_t skipped = 0;
    int64_t expired_at = -1;
  };
  std::vector<std::vector<ChunkQuery>> partials(
      static_cast<size_t>(num_chunks), std::vector<ChunkQuery>(active.size()));

  auto scan_chunk = [&](int64_t chunk) {
    const int64_t chunk_begin =
        item_begin + chunk * num_blocks / num_chunks * block_items_;
    const int64_t chunk_end = std::min(
        num_items, item_begin + (chunk + 1) * num_blocks / num_chunks *
                                    block_items_);
    std::vector<ChunkQuery>& part = partials[static_cast<size_t>(chunk)];
    // `live[r]` indexes into `active`; score-buffer row r belongs to it.
    // Row pointers are rebuilt only when the live set changes (a deadline
    // expiry), not per block.
    std::vector<size_t> live;
    for (size_t a = 0; a < active.size(); ++a) {
      const BatchQuery& query = queries[active[a].index];
      if (shared[a].expired.load(std::memory_order_relaxed)) continue;
      live.push_back(a);
      part[a].heap.reserve(static_cast<size_t>(
          std::min(query.k, chunk_end - chunk_begin)));
    }
    std::vector<const float*> user_rows;
    bool rows_dirty = true;
    // A segment scores every panel it overlaps; one that starts mid-panel
    // overlaps one panel more than an aligned one of the same length.
    const int64_t stride = (NumPanels(block_items_) + 1) * kPanelItems;
    std::vector<float> scores(live.size() * static_cast<size_t>(stride));

    for (int64_t begin = chunk_begin; begin < chunk_end && !live.empty();
         begin += block_items_) {
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
        for (size_t a : live) {
          any_deadline =
              any_deadline || queries[active[a].index].deadline_ms > 0.0;
        }
        const double elapsed_ms = any_deadline ? now_ms_() - start_ms : 0.0;
        for (size_t r = 0; r < live.size();) {
          const size_t a = live[r];
          const double deadline_ms = queries[active[a].index].deadline_ms;
          const bool expires = deadline_ms > 0.0 && elapsed_ms > deadline_ms;
          if (expires) {
            part[a].expired_at = begin;
            shared[a].expired.store(true, std::memory_order_relaxed);
          }
          if (expires || shared[a].expired.load(std::memory_order_relaxed)) {
            live.erase(live.begin() + static_cast<int64_t>(r));
            rows_dirty = true;
          } else {
            ++r;
          }
        }
        if (live.empty()) break;
      }
      if (rows_dirty) {
        user_rows.resize(live.size());
        for (size_t r = 0; r < live.size(); ++r) {
          user_rows[r] = snapshot.user(queries[active[live[r]].index].user);
        }
        rows_dirty = false;
      }
      const int64_t end = std::min(begin + block_items_, chunk_end);
      // The block in per-shard segments, each scored from its own shard's
      // panels; segments never move a deadline boundary.
      for (int64_t segment = begin; segment < end;) {
        const int64_t shard = snapshot.shard_of_item(segment);
        const int64_t shard_begin = snapshot.shard_range(shard).first;
        const int64_t segment_end =
            std::min(end, snapshot.shard_range(shard).second);
        if (snapshot.shard_quarantined(shard)) {
          // Zero placeholders, not scores: skipped and counted, never
          // ranked.
          for (size_t a : live) {
            const std::unordered_set<int64_t>& excluded = active[a].excluded;
            for (int64_t item = segment; item < segment_end; ++item) {
              if (excluded.empty() || excluded.count(item) == 0) {
                ++part[a].skipped;
              }
            }
          }
          segment = segment_end;
          continue;
        }
        // The panel kernel: this segment's panels stream through cache
        // once for the whole batch. Excluded items (and the lanes of a
        // partly covered panel) are scored too and discarded during
        // selection below — branchless scoring keeps the inner loop tight,
        // and a discarded score cannot change the selected set (the
        // ranking order is a strict total order).
        const int64_t first_panel = (segment - shard_begin) / kPanelItems;
        ScorePanels(user_rows.data(), static_cast<int64_t>(live.size()),
                    snapshot.shard_panels(shard), first_panel,
                    (segment_end - 1 - shard_begin) / kPanelItems -
                        first_panel + 1,
                    snapshot.dim(), scores.data(), stride);
        const int64_t first_lane_item =
            shard_begin + first_panel * kPanelItems;
        for (size_t r = 0; r < live.size(); ++r) {
          const size_t a = live[r];
          std::vector<ScoredItem>& heap = part[a].heap;
          const std::unordered_set<int64_t>& excluded = active[a].excluded;
          const size_t k = static_cast<size_t>(queries[active[a].index].k);
          const bool has_exclusions = !excluded.empty();
          const float* row = scores.data() + r * static_cast<size_t>(stride);
          const float floor = shared[a].floor.load(std::memory_order_relaxed);
          for (int64_t item = segment; item < segment_end; ++item) {
            const float score = row[item - first_lane_item];
            const bool full = heap.size() == k;
            // Ids arrive in ascending order, so a candidate that ties the
            // k-th score loses to it: once the heap is full only a strictly
            // greater score can enter. A NaN compares false and stays out,
            // as under Better. Until then, only the shared floor applies.
            if (full ? !(score > heap.front().score) : score < floor) continue;
            if (has_exclusions && excluded.count(item) != 0) continue;
            if (full) {
              std::pop_heap(heap.begin(), heap.end(), Better);
              heap.back() = ScoredItem{item, score};
            } else {
              heap.push_back(ScoredItem{item, score});
            }
            std::push_heap(heap.begin(), heap.end(), Better);
          }
          if (heap.size() == k) {
            // Raise the query's floor to this heap's k-th score.
            const float kth = heap.front().score;
            float seen = shared[a].floor.load(std::memory_order_relaxed);
            while (seen < kth && !shared[a].floor.compare_exchange_weak(
                                     seen, kth, std::memory_order_relaxed)) {
            }
          }
        }
        segment = segment_end;
      }
    }
  };
  if (pool != nullptr) {
    const Status scanned = pool->ParallelFor(0, num_chunks, scan_chunk, 1);
    if (!scanned.ok()) return scanned;
  } else {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) scan_chunk(chunk);
  }

  // Merge each query's chunk heaps under Better, in chunk order, into the
  // first chunk's heap. The top-k of the union is the top-k of the
  // per-chunk top-k sets, so this selects exactly what one serial pass
  // would; with a single chunk there is nothing to merge.
  for (size_t a = 0; a < active.size(); ++a) {
    BatchQueryResult& result = results[active[a].index];
    if (shared[a].expired.load(std::memory_order_relaxed)) {
      int64_t expired_at = -1;
      for (const std::vector<ChunkQuery>& part : partials) {
        if (part[a].expired_at >= 0 &&
            (expired_at < 0 || part[a].expired_at < expired_at)) {
          expired_at = part[a].expired_at;
        }
      }
      const double deadline_ms = queries[active[a].index].deadline_ms;
      result.status = Status::DeadlineExceeded(
          "top-k scoring exceeded " + std::to_string(deadline_ms) +
          " ms after " + std::to_string(expired_at - item_begin) + "/" +
          std::to_string(num_items - item_begin) + " items");
      continue;
    }
    const size_t k = static_cast<size_t>(queries[active[a].index].k);
    std::vector<ScoredItem>& heap = partials.front()[a].heap;
    int64_t skipped = partials.front()[a].skipped;
    for (size_t c = 1; c < partials.size(); ++c) {
      skipped += partials[c][a].skipped;
      for (const ScoredItem& candidate : partials[c][a].heap) {
        if (heap.size() < k) {
          heap.push_back(candidate);
        } else if (Better(candidate, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), Better);
          heap.back() = candidate;
        } else {
          continue;
        }
        std::push_heap(heap.begin(), heap.end(), Better);
      }
    }
    // Ascending under Better = best first.
    std::sort_heap(heap.begin(), heap.end(), Better);
    result.items = std::move(heap);
    result.quarantined_skipped = skipped;
  }
  return Status::OK();
}

}  // namespace imcat
