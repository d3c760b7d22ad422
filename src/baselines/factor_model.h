#ifndef IMCAT_BASELINES_FACTOR_MODEL_H_
#define IMCAT_BASELINES_FACTOR_MODEL_H_

#include <string>
#include <vector>

#include "data/split.h"
#include "tensor/optimizer.h"
#include "train/sampler.h"
#include "train/trainer.h"

/// \file factor_model.h
/// Shared scaffolding for the comparison baselines. Every baseline in this
/// library ultimately scores a (user, item) pair as the inner product of a
/// user factor and an item factor (possibly after propagation, profile
/// encoding or preference aggregation), so evaluation reduces to one cached
/// factor recomputation per ranking pass.

namespace imcat {

/// Base class handling the BPR triplet sampler, the optimiser, the eval
/// factor cache and the step/epoch bookkeeping. Subclasses implement the
/// loss construction and the forward-only factor computation.
class FactorModelBase : public TrainableModel {
 public:
  FactorModelBase(std::string name, const Dataset& dataset,
                  const DataSplit& split, const AdamOptions& adam,
                  int64_t batch_size, int64_t embedding_dim);

  double TrainStep(Rng* rng) final;
  int64_t StepsPerEpoch() const override;
  void set_thread_pool(ThreadPool* pool) final { pool_ = pool; }
  std::string name() const override { return name_; }
  std::vector<Tensor> Parameters() override { return parameters_; }
  /// Recomputes the shared factor cache and its item panels up front;
  /// required before concurrent scoring calls.
  void PrepareScoring() const final;
  void InvalidateEvalCache() final { item_panels_.clear(); }
  /// The cached ComputeEvalFactors tables.
  std::optional<ScoringFactors> Factors() const final;

 protected:
  /// Builds the full training loss for one step. `batch` holds the
  /// (u, v+, v-) triplets; subclasses add their auxiliary terms.
  virtual Tensor BuildLoss(const TripletBatch& batch, Rng* rng) = 0;

  /// Computes the current user factors (num_users x dim) and item factors
  /// (num_items x dim), forward-only, into row-major buffers.
  virtual void ComputeEvalFactors(std::vector<float>* user_factors,
                                  std::vector<float>* item_factors) const = 0;

  /// Registers parameters with the optimiser (call from the subclass
  /// constructor).
  void RegisterParameters(const std::vector<Tensor>& parameters);

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t embedding_dim() const { return dim_; }
  int64_t batch_size() const { return batch_size_; }
  int64_t step_count() const { return step_; }
  const TripletSampler& ui_sampler() const { return sampler_; }

 private:
  std::string name_;
  int64_t num_users_;
  int64_t num_items_;
  int64_t dim_;
  int64_t batch_size_;
  TripletSampler sampler_;
  AdamOptimizer optimizer_;
  std::vector<Tensor> parameters_;
  int64_t step_ = 0;
  ThreadPool* pool_ = nullptr;  ///< Optional parallel-sampling pool.

  // Eval cache, current while item_panels_ is non-empty.
  mutable std::vector<float> user_factors_;
  mutable std::vector<float> item_factors_;
  mutable std::vector<float> item_panels_;  ///< item_factors_, packed.
};

/// Convenience: standard BPR loss -mean log sigma(s+ - s-) given pairwise
/// score tensors of shape (B x 1).
Tensor BprLossFromScores(const Tensor& positive_scores,
                         const Tensor& negative_scores);

}  // namespace imcat

#endif  // IMCAT_BASELINES_FACTOR_MODEL_H_
