#include "eval/evaluator.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "tensor/score_kernel.h"
#include "util/check.h"

namespace imcat {

void Ranker::ScoreItemsForUser(int64_t user,
                               std::vector<float>* scores) const {
  // Without factors, ScoreItemsForUsers would loop back into this default.
  IMCAT_CHECK(Factors().has_value());
  ScoreItemsForUsers({user}, scores);
}

void Ranker::ScoreItemsForUsers(const std::vector<int64_t>& users,
                                std::vector<float>* scores) const {
  PrepareScoring();
  const std::optional<ScoringFactors> factors = Factors();
  if (!factors.has_value()) {
    // Not an inner product: one ScoreItemsForUser pass per user, copied
    // into the batch layout.
    scores->clear();
    std::vector<float> row;
    for (int64_t user : users) {
      ScoreItemsForUser(user, &row);
      scores->insert(scores->end(), row.begin(), row.end());
    }
    return;
  }
  const ScoringFactors& f = *factors;
  scores->resize(users.size() * static_cast<size_t>(f.num_items));
  std::vector<const float*> user_rows(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    IMCAT_CHECK(users[i] >= 0 && users[i] < f.num_users);
    user_rows[i] = f.users + users[i] * f.dim;
  }
  ScorePanelsBlocked(user_rows.data(), static_cast<int64_t>(users.size()),
                     f.item_panels, f.num_items, f.dim,
                     kDefaultScoreBlockItems, scores->data(), f.num_items);
}

Evaluator::Evaluator(const Dataset& dataset, const DataSplit& split)
    : num_users_(dataset.num_users), num_items_(dataset.num_items) {
  train_items_.resize(num_users_);
  item_degree_.assign(num_items_, 0);
  for (const auto& [u, v] : split.train) {
    IMCAT_CHECK(u >= 0 && u < num_users_);
    IMCAT_CHECK(v >= 0 && v < num_items_);
    train_items_[u].push_back(v);
    ++item_degree_[v];
  }
  for (auto& items : train_items_) std::sort(items.begin(), items.end());
  set_metrics(nullptr);
}

void Evaluator::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    if (own_metrics_ == nullptr) {
      own_metrics_ = std::make_unique<MetricsRegistry>();
    }
    metrics = own_metrics_.get();
  }
  runs_total_ = metrics->GetCounter("eval_runs_total");
  users_total_ = metrics->GetCounter("eval_users_total");
  wall_ms_ = metrics->GetHistogram("eval_wall_ms");
}

std::vector<ItemSet> Evaluator::RelevantSets(const EdgeList& eval_edges) const {
  std::vector<ItemSet> relevant(num_users_);
  for (const auto& [u, v] : eval_edges) {
    IMCAT_CHECK(u >= 0 && u < num_users_);
    relevant[u].insert(v);
  }
  return relevant;
}

std::vector<int64_t> Evaluator::TopNForUser(const Ranker& ranker, int64_t user,
                                            int top_n) const {
  std::vector<float> scores;
  ranker.ScoreItemsForUser(user, &scores);
  IMCAT_CHECK_EQ(static_cast<int64_t>(scores.size()), num_items_);
  return TopNFromScores(user, scores.data(), top_n);
}

namespace {

// One SSE register (the x86-64 baseline) of scores and of compare results.
typedef float Vec4 __attribute__((vector_size(16)));
typedef int32_t Mask4 __attribute__((vector_size(16)));

// Scores per group row: group j holds the ids congruent to j modulo the
// group count, a multiple of this.
constexpr int64_t kGroupRow = 64;
// Scores the collect pass tests at once.
constexpr int64_t kChunk = 16;

Vec4 Load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// `x > m ? x : m` per lane: a NaN x compares false and leaves m unchanged.
Vec4 MaxSkippingNaN(Vec4 m, Vec4 x) { return x > m ? x : m; }

// A threshold t such that every top-`limit` item of the row scores >= t.
// Items are split into `groups` residue classes (id mod groups); t is the
// `limit`-th largest class maximum. Those `limit` maxima belong to
// distinct items, so at least `limit` items score >= t, and hence so does
// every item of the top `limit`. Returns -inf (every item qualifies) when
// the row is shorter than one group row.
float SelectionThreshold(const float* scores, int64_t num_items,
                         int64_t limit) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const int64_t groups = (limit + kGroupRow - 1) / kGroupRow * kGroupRow;
  if (num_items < groups) return kNegInf;
  std::vector<float> maxima(static_cast<size_t>(groups), kNegInf);
  int64_t row = 0;
  for (; row + groups <= num_items; row += groups) {
    for (int64_t j = 0; j < groups; j += 4) {
      const Vec4 m = MaxSkippingNaN(Load4(&maxima[j]), Load4(scores + row + j));
      std::memcpy(&maxima[j], &m, sizeof(m));
    }
  }
  for (int64_t j = 0; row + j < num_items; ++j) {
    if (scores[row + j] > maxima[j]) maxima[j] = scores[row + j];
  }
  std::nth_element(maxima.begin(), maxima.begin() + (limit - 1), maxima.end(),
                   std::greater<float>());
  return maxima[limit - 1];
}

}  // namespace

std::vector<int64_t> Evaluator::TopNFromScores(int64_t user, float* scores,
                                               int top_n) const {
  constexpr float kMasked = -std::numeric_limits<float>::infinity();
  for (int64_t v : train_items_[user]) scores[v] = kMasked;
  const int64_t limit = std::min<int64_t>(top_n, num_items_);
  if (limit <= 0) return {};
  // Pass 1 bounds the top `limit` from below; pass 2 collects every item
  // at or above the bound (`>=` also rejects NaN), testing kChunk scores
  // at once and scanning a chunk only when one of them qualifies.
  const float threshold = SelectionThreshold(scores, num_items_, limit);
  struct Entry {
    float score;
    int64_t item;
  };
  std::vector<Entry> candidates;
  const Vec4 t = {threshold, threshold, threshold, threshold};
  int64_t v = 0;
  for (; v + kChunk <= num_items_; v += kChunk) {
    const Mask4 hit =
        (Load4(scores + v) >= t) | (Load4(scores + v + 4) >= t) |
        (Load4(scores + v + 8) >= t) | (Load4(scores + v + 12) >= t);
    uint64_t halves[2];
    std::memcpy(halves, &hit, sizeof(halves));
    if ((halves[0] | halves[1]) == 0) continue;
    for (int64_t i = v; i < v + kChunk; ++i) {
      if (scores[i] >= threshold) candidates.push_back({scores[i], i});
    }
  }
  for (; v < num_items_; ++v) {
    if (scores[v] >= threshold) candidates.push_back({scores[v], v});
  }
  // No NaN is left, so (score desc, id asc) is a strict total order.
  std::sort(candidates.begin(), candidates.end(),
            [](const Entry& a, const Entry& b) {
              return a.score != b.score ? a.score > b.score : a.item < b.item;
            });
  if (static_cast<int64_t>(candidates.size()) > limit) {
    candidates.resize(static_cast<size_t>(limit));
  }
  // Truncate masked (training) items: when top_n exceeds the number of
  // unseen items they would otherwise pad the tail of the list.
  while (!candidates.empty() && candidates.back().score == kMasked) {
    candidates.pop_back();
  }
  std::vector<int64_t> top(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) top[i] = candidates[i].item;
  return top;
}

void Evaluator::set_batch_users(int64_t batch_users) {
  IMCAT_CHECK(batch_users >= 1);
  batch_users_ = batch_users;
}

EvalResult Evaluator::Evaluate(const Ranker& ranker,
                               const EdgeList& eval_edges, int top_n,
                               const std::vector<int64_t>& user_subset,
                               ThreadPool* pool) const {
  ScopedTimer wall_timer(wall_ms_);
  const std::vector<ItemSet> relevant = RelevantSets(eval_edges);
  std::vector<int64_t> users;
  if (user_subset.empty()) {
    for (int64_t u = 0; u < num_users_; ++u) users.push_back(u);
  } else {
    users = user_subset;
  }

  // Materialise lazy eval caches single-threaded before any fan-out (and
  // on the serial path too, so both paths see the same ranker state).
  ranker.PrepareScoring();

  // Per-user metric slots. Each slot is written by exactly one index of
  // the ParallelFor, then reduced serially in index order below — the
  // summation order is therefore identical to the serial loop, making the
  // averaged result bit-identical at any thread count.
  struct PerUser {
    double recall = 0.0, ndcg = 0.0, precision = 0.0;
    double hit_rate = 0.0, mrr = 0.0;
    bool counted = false;
  };
  std::vector<PerUser> slots(users.size());
  const int64_t n = static_cast<int64_t>(users.size());
  const int64_t batch = std::max<int64_t>(1, batch_users_);
  // One ParallelFor index = one user block: the block's users with
  // held-out items are scored by a single batched ScoreItemsForUsers call
  // (the multi-user kernel streams each item block through cache once per
  // batch), then ranked per user from their slice of the score buffer.
  // Each slot is still written by exactly one block, and the reduction
  // below stays serial in index order, so the result is bit-identical to
  // the per-user path at any thread count and batch size.
  auto eval_block = [&](int64_t block) {
    const int64_t lo = block * batch;
    const int64_t hi = std::min(n, lo + batch);
    std::vector<int64_t> block_users;
    std::vector<size_t> block_idx;
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int64_t u = users[static_cast<size_t>(idx)];
      if (relevant[u].empty()) continue;  // Same skip as the scalar path.
      block_users.push_back(u);
      block_idx.push_back(static_cast<size_t>(idx));
    }
    if (block_users.empty()) return;
    std::vector<float> scores;
    ranker.ScoreItemsForUsers(block_users, &scores);
    IMCAT_CHECK_EQ(static_cast<int64_t>(scores.size()),
                   static_cast<int64_t>(block_users.size()) * num_items_);
    for (size_t pos = 0; pos < block_users.size(); ++pos) {
      const int64_t u = block_users[pos];
      const std::vector<int64_t> top = TopNFromScores(
          u, scores.data() + static_cast<int64_t>(pos) * num_items_, top_n);
      PerUser& slot = slots[block_idx[pos]];
      slot.recall = RecallAtN(top, relevant[u], top_n);
      slot.ndcg = NdcgAtN(top, relevant[u], top_n);
      slot.precision = PrecisionAtN(top, relevant[u], top_n);
      slot.hit_rate = HitRateAtN(top, relevant[u], top_n);
      slot.mrr = MrrAtN(top, relevant[u], top_n);
      slot.counted = true;
    }
  };
  const int64_t num_blocks = (n + batch - 1) / batch;
  if (pool != nullptr) {
    Status st = pool->ParallelFor(0, num_blocks, eval_block);
    IMCAT_CHECK(st.ok());  // Metric code does not throw.
  } else {
    for (int64_t block = 0; block < num_blocks; ++block) eval_block(block);
  }

  EvalResult result;
  for (const PerUser& slot : slots) {
    if (!slot.counted) continue;
    result.recall += slot.recall;
    result.ndcg += slot.ndcg;
    result.precision += slot.precision;
    result.hit_rate += slot.hit_rate;
    result.mrr += slot.mrr;
    ++result.num_users;
  }
  if (result.num_users > 0) {
    const double n = static_cast<double>(result.num_users);
    result.recall /= n;
    result.ndcg /= n;
    result.precision /= n;
    result.hit_rate /= n;
    result.mrr /= n;
  }
  runs_total_->Increment();
  users_total_->Add(result.num_users);
  return result;
}

}  // namespace imcat
