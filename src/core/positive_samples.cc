#include "core/positive_samples.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace imcat {

namespace {
const std::vector<int64_t>& EmptyList() {
  static const std::vector<int64_t>& empty = *new std::vector<int64_t>();
  return empty;
}
}  // namespace

PositiveSampleIndex::PositiveSampleIndex(const Dataset& dataset,
                                         const EdgeList& train_interactions,
                                         int num_intents)
    : num_intents_(num_intents),
      num_users_(dataset.num_users),
      num_items_(dataset.num_items),
      num_tags_(dataset.num_tags),
      users_of_item_(dataset.num_users, dataset.num_items, train_interactions),
      item_tag_index_(dataset.num_items, dataset.num_tags, dataset.item_tags) {
  IMCAT_CHECK_GE(num_intents, 1);
}

void PositiveSampleIndex::SetAssignments(
    const std::vector<int>& tag_assignments) {
  IMCAT_CHECK_EQ(static_cast<int64_t>(tag_assignments.size()), num_tags_);
  tags_by_item_cluster_.assign(num_items_ * num_intents_, {});
  relatedness_.assign(num_items_ * num_intents_, 0.0f);
  for (int64_t item = 0; item < num_items_; ++item) {
    for (int64_t tag : item_tag_index_.Forward(item)) {
      const int k = tag_assignments[tag];
      IMCAT_CHECK(k >= 0 && k < num_intents_);
      tags_by_item_cluster_[IndexOf(item, k)].push_back(tag);
    }
    // M_{j,k} = softmax_k(|T^k(v_j)|)  (Eq. 9), computed stably.
    int64_t max_count = 0;
    for (int k = 0; k < num_intents_; ++k) {
      max_count = std::max(
          max_count,
          static_cast<int64_t>(tags_by_item_cluster_[IndexOf(item, k)].size()));
    }
    double total = 0.0;
    for (int k = 0; k < num_intents_; ++k) {
      const int64_t count = tags_by_item_cluster_[IndexOf(item, k)].size();
      const double e = std::exp(static_cast<double>(count - max_count));
      relatedness_[IndexOf(item, k)] = static_cast<float>(e);
      total += e;
    }
    for (int k = 0; k < num_intents_; ++k) {
      relatedness_[IndexOf(item, k)] =
          static_cast<float>(relatedness_[IndexOf(item, k)] / total);
    }
  }
  similar_sets_.clear();
}

float PositiveSampleIndex::Relatedness(int64_t item, int intent) const {
  IMCAT_CHECK(has_assignments());
  IMCAT_CHECK(item >= 0 && item < num_items_);
  IMCAT_CHECK(intent >= 0 && intent < num_intents_);
  return relatedness_[IndexOf(item, intent)];
}

const std::vector<int64_t>& PositiveSampleIndex::TagsOfItemInCluster(
    int64_t item, int intent) const {
  IMCAT_CHECK(has_assignments());
  IMCAT_CHECK(item >= 0 && item < num_items_);
  IMCAT_CHECK(intent >= 0 && intent < num_intents_);
  return tags_by_item_cluster_[IndexOf(item, intent)];
}

std::unique_ptr<SparseMatrix> PositiveSampleIndex::BuildUserAggregation(
    const std::vector<int64_t>& items, int64_t max_users, Rng* rng) const {
  IMCAT_CHECK_GT(max_users, 0);
  std::vector<int64_t> rows, cols;
  std::vector<float> weights;
  for (size_t b = 0; b < items.size(); ++b) {
    const std::vector<int64_t>& users = UsersOfItem(items[b]);
    const int64_t degree = static_cast<int64_t>(users.size());
    if (degree == 0) continue;
    if (degree <= max_users) {
      const float w = 1.0f / static_cast<float>(degree);
      for (int64_t u : users) {
        rows.push_back(static_cast<int64_t>(b));
        cols.push_back(u);
        weights.push_back(w);
      }
    } else {
      // Uniform subsample without replacement (partial Fisher-Yates over a
      // scratch copy).
      std::vector<int64_t> scratch = users;
      const float w = 1.0f / static_cast<float>(max_users);
      for (int64_t i = 0; i < max_users; ++i) {
        const int64_t j = i + rng->UniformInt(degree - i);
        std::swap(scratch[i], scratch[j]);
        rows.push_back(static_cast<int64_t>(b));
        cols.push_back(scratch[i]);
        weights.push_back(w);
      }
    }
  }
  return std::make_unique<SparseMatrix>(SparseMatrix::FromTriplets(
      static_cast<int64_t>(items.size()), num_users_, rows, cols, weights));
}

std::unique_ptr<SparseMatrix> PositiveSampleIndex::BuildTagAggregation(
    const std::vector<int64_t>& items, int intent) const {
  IMCAT_CHECK(has_assignments());
  std::vector<int64_t> rows, cols;
  std::vector<float> weights;
  for (size_t b = 0; b < items.size(); ++b) {
    const std::vector<int64_t>& tags =
        tags_by_item_cluster_[IndexOf(items[b], intent)];
    if (tags.empty()) continue;  // t-bar^k stays the zero vector.
    const float w = 1.0f / static_cast<float>(tags.size());
    for (int64_t t : tags) {
      rows.push_back(static_cast<int64_t>(b));
      cols.push_back(t);
      weights.push_back(w);
    }
  }
  return std::make_unique<SparseMatrix>(SparseMatrix::FromTriplets(
      static_cast<int64_t>(items.size()), num_tags_, rows, cols, weights));
}

void PositiveSampleIndex::BuildSimilarSets(float threshold,
                                           int64_t max_per_item) {
  IMCAT_CHECK(has_assignments());
  IMCAT_CHECK(threshold > 0.0f && threshold <= 1.0f);
  similar_sets_.assign(num_items_ * num_intents_, {});

  // Tag-intersection counts for the current item: a dense counter per item
  // plus the list of ids it touched, which are reset before the next item.
  std::vector<int32_t> intersection(num_items_, 0);
  std::vector<int64_t> touched;
  std::vector<std::pair<float, int64_t>> passing;
  for (int k = 0; k < num_intents_; ++k) {
    // Inverted index: cluster-k tag -> items carrying it.
    std::vector<std::vector<int64_t>> items_of_tag(num_tags_);
    for (int64_t item = 0; item < num_items_; ++item) {
      for (int64_t t : tags_by_item_cluster_[IndexOf(item, k)]) {
        items_of_tag[t].push_back(item);
      }
    }
    for (int64_t item = 0; item < num_items_; ++item) {
      const auto& own_tags = tags_by_item_cluster_[IndexOf(item, k)];
      if (own_tags.empty()) continue;
      for (int64_t t : own_tags) {
        for (int64_t other : items_of_tag[t]) {
          if (other != item && intersection[other]++ == 0) {
            touched.push_back(other);
          }
        }
      }
      // Score candidates by Jaccard and keep the best above threshold. The
      // sort below is a total order, so the touched order does not matter.
      passing.clear();
      const int64_t own_size = static_cast<int64_t>(own_tags.size());
      for (int64_t other : touched) {
        const int64_t inter = intersection[other];
        intersection[other] = 0;
        const int64_t other_size = static_cast<int64_t>(
            tags_by_item_cluster_[IndexOf(other, k)].size());
        const float jaccard =
            static_cast<float>(inter) /
            static_cast<float>(own_size + other_size - inter);
        if (jaccard > threshold) passing.emplace_back(jaccard, other);
      }
      touched.clear();
      std::sort(passing.begin(), passing.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      if (static_cast<int64_t>(passing.size()) > max_per_item) {
        passing.resize(max_per_item);
      }
      auto& set = similar_sets_[IndexOf(item, k)];
      set.reserve(passing.size());
      for (const auto& [jaccard, other] : passing) {
        (void)jaccard;
        set.push_back(other);
      }
    }
  }
}

const std::vector<int64_t>& PositiveSampleIndex::SimilarSet(int64_t item,
                                                            int intent) const {
  if (similar_sets_.empty()) return EmptyList();
  IMCAT_CHECK(item >= 0 && item < num_items_);
  IMCAT_CHECK(intent >= 0 && intent < num_intents_);
  return similar_sets_[IndexOf(item, intent)];
}

int64_t PositiveSampleIndex::SamplePositive(int64_t item, int intent,
                                            Rng* rng) const {
  const std::vector<int64_t>& set = SimilarSet(item, intent);
  if (set.empty()) return item;
  // P_j^k includes j itself plus its similar set; sample uniformly.
  const int64_t pick = rng->UniformInt(static_cast<int64_t>(set.size()) + 1);
  return pick == 0 ? item : set[pick - 1];
}

}  // namespace imcat
