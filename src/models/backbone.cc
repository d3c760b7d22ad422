#include "models/backbone.h"

#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace imcat {

BprModel::BprModel(std::unique_ptr<Backbone> backbone, const Dataset& dataset,
                   const DataSplit& split, const AdamOptions& adam,
                   int64_t batch_size)
    : backbone_(std::move(backbone)),
      sampler_(dataset.num_users, dataset.num_items, split.train),
      optimizer_(adam),
      batch_size_(batch_size) {
  optimizer_.AddParameters(backbone_->Parameters());
}

double BprModel::TrainStep(Rng* rng) {
  TripletBatch batch;
  sampler_.SampleBatch(batch_size_, rng, &batch, pool_);
  backbone_->BeginStep();
  Tensor loss = BprLossFromBackbone(backbone_.get(), batch);
  optimizer_.ZeroGrad();
  Backward(loss);
  optimizer_.Step();
  backbone_->InvalidateEvalCache();
  return loss.item();
}

int64_t BprModel::StepsPerEpoch() const {
  return (sampler_.num_edges() + batch_size_ - 1) / batch_size_;
}

std::vector<Tensor> BprModel::Parameters() { return backbone_->Parameters(); }

std::string BprModel::name() const { return backbone_->name(); }

Tensor BprLossFromBackbone(Backbone* backbone, const TripletBatch& batch) {
  Tensor pos = backbone->PairScores(batch.anchors, batch.positives);
  Tensor neg = backbone->PairScores(batch.anchors, batch.negatives);
  Tensor margin = ops::Sub(pos, neg);
  return ops::ScalarMul(ops::Mean(ops::LogSigmoid(margin)), -1.0f);
}

}  // namespace imcat
