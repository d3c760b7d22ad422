#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"
#include "util/rng.h"

namespace imcat {

namespace {

/// Power-law weights w_i ~ (rank_i + 1)^-exponent with ranks shuffled so
/// that id order carries no popularity information.
std::vector<double> PowerLawWeights(int64_t n, double exponent, Rng* rng) {
  std::vector<int64_t> ranks(n);
  for (int64_t i = 0; i < n; ++i) ranks[i] = i;
  rng->Shuffle(&ranks);
  std::vector<double> w(n);
  for (int64_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(ranks[i] + 1), -exponent);
  }
  return w;
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& config,
                          SyntheticGroundTruth* ground_truth) {
  IMCAT_CHECK_GT(config.num_users, 0);
  IMCAT_CHECK_GT(config.num_items, 0);
  IMCAT_CHECK_GT(config.num_tags, 0);
  IMCAT_CHECK_GE(config.num_latent_intents, 1);
  IMCAT_CHECK_GE(config.num_tags, config.num_latent_intents);

  Rng rng(config.seed);
  const int z_count = config.num_latent_intents;

  // --- Latent structure -----------------------------------------------
  // Tags: primary intent round-robin (so each intent has tags), shuffled.
  std::vector<int> tag_intent(config.num_tags);
  for (int64_t t = 0; t < config.num_tags; ++t) {
    tag_intent[t] = static_cast<int>(t % z_count);
  }
  rng.Shuffle(&tag_intent);
  std::vector<std::vector<int64_t>> tags_of_intent(z_count);
  for (int64_t t = 0; t < config.num_tags; ++t) {
    tags_of_intent[tag_intent[t]].push_back(t);
  }

  std::vector<std::vector<double>> item_mix(config.num_items);
  for (auto& mix : item_mix) {
    rng.Dirichlet(config.item_intent_alpha, z_count, &mix);
  }
  std::vector<std::vector<double>> user_mix(config.num_users);
  for (auto& mix : user_mix) {
    rng.Dirichlet(config.user_intent_alpha, z_count, &mix);
  }

  const std::vector<double> popularity =
      PowerLawWeights(config.num_items, config.item_popularity_exponent, &rng);
  const CategoricalTable activity(
      PowerLawWeights(config.num_users, config.user_activity_exponent, &rng));

  // Per-intent item sampling weights: popularity_i * item_mix_i[z].
  std::vector<CategoricalTable> item_weight_by_intent;
  item_weight_by_intent.reserve(z_count);
  for (int z = 0; z < z_count; ++z) {
    std::vector<double> w(config.num_items);
    for (int64_t i = 0; i < config.num_items; ++i) {
      w[i] = popularity[i] * item_mix[i][z];
    }
    item_weight_by_intent.emplace_back(std::move(w));
  }
  const CategoricalTable item_weight_flat(popularity);

  Dataset ds;
  ds.name = config.name;
  ds.num_users = config.num_users;
  ds.num_items = config.num_items;
  ds.num_tags = config.num_tags;

  // --- Item-tag labels --------------------------------------------------
  {
    std::unordered_set<int64_t> seen;
    auto add_tag = [&](int64_t item, int64_t tag) {
      const int64_t key = item * config.num_tags + tag;
      if (seen.insert(key).second) {
        ds.item_tags.emplace_back(item, tag);
        return true;
      }
      return false;
    };
    auto sample_tag_for_item = [&](int64_t item) {
      if (rng.Uniform() < config.tag_noise) {
        return rng.UniformInt(config.num_tags);
      }
      const int z = static_cast<int>(rng.Categorical(item_mix[item]));
      const auto& pool = tags_of_intent[z];
      if (pool.empty()) return rng.UniformInt(config.num_tags);
      return pool[rng.UniformInt(static_cast<int64_t>(pool.size()))];
    };
    // Guarantee the per-item minimum first.
    for (int64_t i = 0; i < config.num_items; ++i) {
      int64_t added = 0;
      int64_t attempts = 0;
      while (added < config.min_item_tags &&
             attempts < 50 * config.min_item_tags) {
        ++attempts;
        if (add_tag(i, sample_tag_for_item(i))) ++added;
      }
    }
    // Distribute the remaining labels across items (popularity-weighted, as
    // popular items tend to be better annotated).
    int64_t attempts = 0;
    const int64_t max_attempts = 20 * config.num_item_tags + 1000;
    while (static_cast<int64_t>(ds.item_tags.size()) < config.num_item_tags &&
           attempts < max_attempts) {
      ++attempts;
      const int64_t item = item_weight_flat.Sample(&rng);
      add_tag(item, sample_tag_for_item(item));
    }
  }

  // --- User-item interactions -------------------------------------------
  {
    std::unordered_set<int64_t> seen;
    auto add_edge = [&](int64_t user, int64_t item) {
      const int64_t key = user * config.num_items + item;
      if (seen.insert(key).second) {
        ds.interactions.emplace_back(user, item);
        return true;
      }
      return false;
    };
    auto sample_item_for_user = [&](int64_t user) {
      if (rng.Uniform() < config.interaction_noise) {
        return item_weight_flat.Sample(&rng);
      }
      const int z = static_cast<int>(rng.Categorical(user_mix[user]));
      return item_weight_by_intent[z].Sample(&rng);
    };
    // Guarantee the per-user minimum.
    for (int64_t u = 0; u < config.num_users; ++u) {
      int64_t added = 0;
      int64_t attempts = 0;
      while (added < config.min_user_degree &&
             attempts < 100 * config.min_user_degree) {
        ++attempts;
        if (add_edge(u, sample_item_for_user(u))) ++added;
      }
    }
    // Distribute the remainder by user activity.
    int64_t attempts = 0;
    const int64_t max_attempts = 20 * config.num_interactions + 1000;
    while (static_cast<int64_t>(ds.interactions.size()) <
               config.num_interactions &&
           attempts < max_attempts) {
      ++attempts;
      const int64_t user = activity.Sample(&rng);
      add_edge(user, sample_item_for_user(user));
    }
  }

  std::sort(ds.interactions.begin(), ds.interactions.end());
  std::sort(ds.item_tags.begin(), ds.item_tags.end());

  if (ground_truth != nullptr) {
    ground_truth->tag_intent = std::move(tag_intent);
    ground_truth->user_mix = std::move(user_mix);
    ground_truth->item_mix = std::move(item_mix);
  }
  return ds;
}

}  // namespace imcat
