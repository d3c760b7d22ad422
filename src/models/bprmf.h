#ifndef IMCAT_MODELS_BPRMF_H_
#define IMCAT_MODELS_BPRMF_H_

#include <string>
#include <vector>

#include "models/backbone.h"

/// \file bprmf.h
/// Matrix-factorisation backbone (BPRMF [55] in the paper): a user table
/// and an item table scored by inner product. The simplest and fastest
/// backbone; B-IMCAT plugs IMCAT into this model.

namespace imcat {

class Bprmf : public Backbone {
 public:
  Bprmf(int64_t num_users, int64_t num_items, const BackboneOptions& options);

  std::string name() const override { return "BPRMF"; }
  int64_t embedding_dim() const override { return dim_; }
  int64_t num_users() const override { return num_users_; }
  int64_t num_items() const override { return num_items_; }

  Tensor UserEmbeddings() override { return user_table_; }
  Tensor ItemEmbeddings() override { return item_table_; }
  Tensor PairScores(const std::vector<int64_t>& users,
                    const std::vector<int64_t>& items) override;
  std::vector<Tensor> Parameters() override;

  /// Packs the item table into panels (once per parameter update).
  void PrepareScoring() const override;
  void InvalidateEvalCache() override { item_panels_.clear(); }
  /// The raw user and item tables.
  std::optional<ScoringFactors> Factors() const override;

 private:
  int64_t num_users_;
  int64_t num_items_;
  int64_t dim_;
  Tensor user_table_;
  Tensor item_table_;
  mutable std::vector<float> item_panels_;  ///< item_table_, packed.
};

}  // namespace imcat

#endif  // IMCAT_MODELS_BPRMF_H_
