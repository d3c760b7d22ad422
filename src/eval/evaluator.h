#ifndef IMCAT_EVAL_EVALUATOR_H_
#define IMCAT_EVAL_EVALUATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

/// \file evaluator.h
/// Full-ranking evaluation (Sec. V-B): for every user with held-out items,
/// score all items, mask the user's training items, take the top N and
/// average the ranking metrics over users. Scoring runs in user batches
/// through Ranker::ScoreItemsForUsers (for inner-product rankers, the
/// panel kernel over the ranker's scoring factors, DESIGN.md §12) and
/// parallelizes per user block over a ThreadPool with a reduction that is
/// deterministic by construction: per-user metrics are written into slots
/// owned by the user's position and accumulated serially in index order
/// afterwards, so the EvalResult — floating-point summation order included
/// — is bit-identical to the serial per-user path at any thread count and
/// any batch size.

namespace imcat {

/// The factor tables an inner-product ranker scores with: the score of
/// (user u, item i) is `sum_c users[u * dim + c] * items[i * dim + c]`,
/// accumulated over ascending c in plain fp32. `item_panels` holds `items`
/// packed into NumPanels(num_items) 16-item panels (tensor/score_kernel.h),
/// the layout ScorePanels reads; the owner packs it once per eval-cache
/// refresh. The pointers are valid from PrepareScoring() until the next
/// InvalidateEvalCache() or parameter update.
struct ScoringFactors {
  const float* users = nullptr;        ///< num_users x dim, row-major.
  const float* items = nullptr;        ///< num_items x dim, row-major.
  const float* item_panels = nullptr;  ///< `items` as packed panels.
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t dim = 0;
};

/// Anything that can score the full item catalogue for a user. Implemented
/// by every model in the library. Inner-product rankers only expose their
/// factors (Factors()) and inherit the scoring; other rankers (NeuMF)
/// override ScoreItemsForUser.
class Ranker {
 public:
  virtual ~Ranker() = default;

  /// Writes a relevance score for every item (resizing `scores` to the
  /// item count). Higher is better. Must not depend on held-out data.
  /// Default: ScoreItemsForUsers for this one user; a ranker without
  /// Factors() must override it.
  ///
  /// Thread-safety contract: after PrepareScoring() has returned, and
  /// until the next parameter update, concurrent calls for distinct users
  /// must be safe — the parallel evaluator calls this from many threads.
  virtual void ScoreItemsForUser(int64_t user,
                                 std::vector<float>* scores) const;

  /// Batched variant: scores every item for each of `users`, writing
  /// user i's scores at `(*scores)[i * num_items .. (i+1) * num_items)`
  /// (the vector is resized to users.size() * num_items). With Factors(),
  /// the panel kernel (tensor/score_kernel.h) scores the whole batch
  /// against each cache-resident block of item panels; otherwise this
  /// loops over ScoreItemsForUser. Either way every score is the same
  /// ascending-dim fp32 accumulation as the per-user path, bit for bit —
  /// the evaluator relies on it. Same thread-safety contract as
  /// ScoreItemsForUser.
  virtual void ScoreItemsForUsers(const std::vector<int64_t>& users,
                                  std::vector<float>* scores) const;

  /// Builds any lazily derived evaluation state (propagated factor
  /// caches, packed item panels, ...) up front, so it is built once,
  /// single-threaded, before the parallel fan-out. Cheap when the state
  /// is current. Default: nothing to prepare.
  virtual void PrepareScoring() const {}

  /// Drops the evaluation state PrepareScoring built; call after any
  /// change to the parameters (an optimiser step, a restore).
  virtual void InvalidateEvalCache() {}

  /// The scoring factors of an inner-product ranker (see ScoringFactors),
  /// or nullopt for a ranker that does not score by one inner product.
  /// Valid after PrepareScoring(). Default: nullopt.
  virtual std::optional<ScoringFactors> Factors() const {
    return std::nullopt;
  }
};

/// Averaged metrics over the evaluated users.
struct EvalResult {
  double recall = 0.0;
  double ndcg = 0.0;
  double precision = 0.0;
  double hit_rate = 0.0;
  double mrr = 0.0;
  int64_t num_users = 0;  ///< Users with at least one held-out item.
};

/// Evaluates rankers against a fixed dataset/split. The evaluator
/// precomputes each user's training-item mask and can evaluate on the
/// validation or test partition (or any edge list).
class Evaluator {
 public:
  Evaluator(const Dataset& dataset, const DataSplit& split);

  /// Evaluates `ranker` at cutoff `top_n` on `eval_edges` (typically
  /// split.validation or split.test). Training items are excluded from the
  /// candidate ranking. Optionally restricts to `user_subset` (empty =>
  /// all users). When `pool` is non-null the per-user scoring fans out
  /// across it; the result is bit-identical to the serial path (index-
  /// ordered reduction) for any thread count.
  EvalResult Evaluate(const Ranker& ranker, const EdgeList& eval_edges,
                      int top_n, const std::vector<int64_t>& user_subset = {},
                      ThreadPool* pool = nullptr) const;

  /// Returns the ranked top-N items for one user (training items masked).
  std::vector<int64_t> TopNForUser(const Ranker& ranker, int64_t user,
                                   int top_n) const;

  /// Rank from precomputed scores: masks `user`'s training items to -inf
  /// in `scores` (one full-catalogue row, mutated in place) and returns
  /// the top-N ids (score desc, id asc; masked-tail truncated, so an
  /// unseen item scoring -inf ranks like a training item). A NaN score is
  /// never ranked: the row is ranked as if its NaN items were absent.
  /// Exact two-pass selection (DESIGN.md §12): the N-th largest of the
  /// per-residue-class maxima (id mod a multiple of 64 that is >= N)
  /// bounds the top N from below, and only the items at or above it are
  /// sorted. The batched Evaluate path calls this once per user on its
  /// slice of the multi-user score buffer; TopNForUser is this after a
  /// ScoreItemsForUser call, so the two paths rank identically by
  /// construction.
  std::vector<int64_t> TopNFromScores(int64_t user, float* scores,
                                      int top_n) const;

  /// Users scored per batched ScoreItemsForUsers call inside Evaluate
  /// (default 8). 1 reproduces the per-user scoring path exactly; any
  /// value yields bit-identical results (the contract the batch-identity
  /// property suite pins), larger values amortise the item-table cache
  /// streaming better up to the point where batch x block_items score
  /// rows outgrow L2. Applies to serial and pooled evaluation alike.
  void set_batch_users(int64_t batch_users);
  int64_t batch_users() const { return batch_users_; }

  int64_t num_items() const { return num_items_; }

  /// Training-degree of a user (number of training interactions).
  int64_t UserTrainDegree(int64_t user) const {
    return static_cast<int64_t>(train_items_[user].size());
  }

  /// Training-degree of an item.
  int64_t ItemTrainDegree(int64_t item) const { return item_degree_[item]; }

  /// Per-user relevant sets for an edge list, exposed for group analyses.
  std::vector<ItemSet> RelevantSets(const EdgeList& eval_edges) const;

  /// Instrumentation (DESIGN.md §9), always on: each Evaluate call bumps
  /// `eval_runs_total`, adds the evaluated-user count to
  /// `eval_users_total` and records its wall time into `eval_wall_ms`, in
  /// `metrics` or, when it is null (the default), in a registry the
  /// evaluator owns.
  void set_metrics(MetricsRegistry* metrics);

 private:
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t batch_users_ = 8;
  std::vector<std::vector<int64_t>> train_items_;  // Sorted per user.
  std::vector<int64_t> item_degree_;
  /// Registry of the handles below when set_metrics got none.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  Counter* runs_total_ = nullptr;
  Counter* users_total_ = nullptr;
  Histogram* wall_ms_ = nullptr;
};

}  // namespace imcat

#endif  // IMCAT_EVAL_EVALUATOR_H_
