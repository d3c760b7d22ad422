#include "baselines/factor_model.h"

#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/score_kernel.h"
#include "util/check.h"

namespace imcat {

FactorModelBase::FactorModelBase(std::string name, const Dataset& dataset,
                                 const DataSplit& split,
                                 const AdamOptions& adam, int64_t batch_size,
                                 int64_t embedding_dim)
    : name_(std::move(name)),
      num_users_(dataset.num_users),
      num_items_(dataset.num_items),
      dim_(embedding_dim),
      batch_size_(batch_size),
      sampler_(dataset.num_users, dataset.num_items, split.train),
      optimizer_(adam) {}

void FactorModelBase::RegisterParameters(
    const std::vector<Tensor>& parameters) {
  optimizer_.AddParameters(parameters);
  for (const Tensor& p : parameters) parameters_.push_back(p);
}

double FactorModelBase::TrainStep(Rng* rng) {
  TripletBatch batch;
  sampler_.SampleBatch(batch_size_, rng, &batch, pool_);
  Tensor loss = BuildLoss(batch, rng);
  optimizer_.ZeroGrad();
  Backward(loss);
  optimizer_.Step();
  InvalidateEvalCache();
  ++step_;
  return loss.item();
}

int64_t FactorModelBase::StepsPerEpoch() const {
  return (sampler_.num_edges() + batch_size_ - 1) / batch_size_;
}

void FactorModelBase::PrepareScoring() const {
  if (!item_panels_.empty()) return;
  ComputeEvalFactors(&user_factors_, &item_factors_);
  IMCAT_CHECK_EQ(static_cast<int64_t>(user_factors_.size()),
                 num_users_ * dim_);
  IMCAT_CHECK_EQ(static_cast<int64_t>(item_factors_.size()),
                 num_items_ * dim_);
  PackPanels(item_factors_.data(), num_items_, dim_, &item_panels_);
}

std::optional<ScoringFactors> FactorModelBase::Factors() const {
  return ScoringFactors{user_factors_.data(), item_factors_.data(),
                        item_panels_.data(), num_users_, num_items_, dim_};
}

Tensor BprLossFromScores(const Tensor& positive_scores,
                         const Tensor& negative_scores) {
  Tensor margin = ops::Sub(positive_scores, negative_scores);
  return ops::ScalarMul(ops::Mean(ops::LogSigmoid(margin)), -1.0f);
}

}  // namespace imcat
