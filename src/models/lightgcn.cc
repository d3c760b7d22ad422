#include "models/lightgcn.h"

#include <numeric>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/score_kernel.h"

namespace imcat {

LightGcn::LightGcn(int64_t num_users, int64_t num_items,
                   const EdgeList& train_edges, const BackboneOptions& options,
                   int num_layers)
    : num_users_(num_users), num_items_(num_items),
      dim_(options.embedding_dim), num_layers_(num_layers),
      adjacency_(BuildUserItemAdjacency(num_users, num_items, train_edges)) {
  IMCAT_CHECK_GE(num_layers_, 1);
  Rng rng(options.seed);
  base_table_ = XavierUniform(num_users + num_items, dim_, &rng,
                              /*treat_as_embedding=*/true);
}

void LightGcn::BeginStep() {
  // E = mean over layers of A^l E0.
  Tensor layer = base_table_;
  Tensor sum = base_table_;
  for (int l = 0; l < num_layers_; ++l) {
    layer = ops::SpMM(adjacency_, layer);
    sum = ops::Add(sum, layer);
  }
  Tensor final_table =
      ops::ScalarMul(sum, 1.0f / static_cast<float>(num_layers_ + 1));
  std::vector<int64_t> user_ids(num_users_);
  std::iota(user_ids.begin(), user_ids.end(), 0);
  std::vector<int64_t> item_ids(num_items_);
  std::iota(item_ids.begin(), item_ids.end(), num_users_);
  user_final_ = ops::Gather(final_table, user_ids);
  item_final_ = ops::Gather(final_table, item_ids);
  propagated_ = true;
}

void LightGcn::EnsurePropagated() {
  if (!propagated_) BeginStep();
}

Tensor LightGcn::UserEmbeddings() {
  EnsurePropagated();
  return user_final_;
}

Tensor LightGcn::ItemEmbeddings() {
  EnsurePropagated();
  return item_final_;
}

Tensor LightGcn::PairScores(const std::vector<int64_t>& users,
                            const std::vector<int64_t>& items) {
  EnsurePropagated();
  Tensor u = ops::Gather(user_final_, users);
  Tensor v = ops::Gather(item_final_, items);
  return ops::RowSum(ops::Mul(u, v));
}

std::vector<Tensor> LightGcn::Parameters() { return {base_table_}; }

void LightGcn::RefreshEvalCache() const {
  // Forward-only propagation on raw buffers.
  const int64_t n = num_users_ + num_items_;
  std::vector<float> layer(base_table_.data(), base_table_.data() + n * dim_);
  std::vector<float> sum = layer;
  std::vector<float> next(n * dim_);
  for (int l = 0; l < num_layers_; ++l) {
    adjacency_.Multiply(layer.data(), dim_, next.data());
    layer.swap(next);
    for (int64_t i = 0; i < n * dim_; ++i) sum[i] += layer[i];
  }
  const float scale = 1.0f / static_cast<float>(num_layers_ + 1);
  for (float& v : sum) v *= scale;
  eval_factors_ = std::move(sum);
  PackPanels(eval_factors_.data() + num_users_ * dim_, num_items_, dim_,
             &item_panels_);
}

std::optional<ScoringFactors> LightGcn::Factors() const {
  return ScoringFactors{eval_factors_.data(),
                        eval_factors_.data() + num_users_ * dim_,
                        item_panels_.data(), num_users_, num_items_, dim_};
}

}  // namespace imcat
