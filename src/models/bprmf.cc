#include "models/bprmf.h"

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/score_kernel.h"

namespace imcat {

Bprmf::Bprmf(int64_t num_users, int64_t num_items,
             const BackboneOptions& options)
    : num_users_(num_users), num_items_(num_items),
      dim_(options.embedding_dim) {
  Rng rng(options.seed);
  user_table_ = XavierUniform(num_users, dim_, &rng, /*treat_as_embedding=*/true);
  item_table_ = XavierUniform(num_items, dim_, &rng, /*treat_as_embedding=*/true);
}

Tensor Bprmf::PairScores(const std::vector<int64_t>& users,
                         const std::vector<int64_t>& items) {
  Tensor u = ops::Gather(user_table_, users);
  Tensor v = ops::Gather(item_table_, items);
  return ops::RowSum(ops::Mul(u, v));
}

std::vector<Tensor> Bprmf::Parameters() { return {user_table_, item_table_}; }

void Bprmf::PrepareScoring() const {
  if (item_panels_.empty()) {
    PackPanels(item_table_.data(), num_items_, dim_, &item_panels_);
  }
}

std::optional<ScoringFactors> Bprmf::Factors() const {
  return ScoringFactors{user_table_.data(), item_table_.data(),
                        item_panels_.data(), num_users_, num_items_, dim_};
}

}  // namespace imcat
