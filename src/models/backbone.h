#ifndef IMCAT_MODELS_BACKBONE_H_
#define IMCAT_MODELS_BACKBONE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/evaluator.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "train/sampler.h"
#include "train/trainer.h"
#include "util/rng.h"

/// \file backbone.h
/// The recommendation-backbone abstraction. IMCAT is model-agnostic
/// (Sec. I): it can be plugged into any backbone that exposes user/item
/// embeddings and pairwise scores. The library ships BPRMF (MF-based),
/// NeuMF (MLP-based) and LightGCN (GNN-based), matching the paper's
/// B-/N-/L-IMCAT variants.

namespace imcat {

/// A trainable user/item representation model.
///
/// Training-time contract: call BeginStep() once per optimisation step,
/// then UserEmbeddings()/ItemEmbeddings()/PairScores() return
/// graph-connected tensors whose gradients flow to Parameters().
///
/// Evaluation-time contract: scoring is a forward-only fast path (for
/// inner-product backbones, Ranker's panel kernel over Factors());
/// implementations cache derived state and must have the cache
/// invalidated (InvalidateEvalCache) whenever parameters change.
class Backbone : public Ranker {
 public:
  ~Backbone() override = default;

  virtual std::string name() const = 0;
  virtual int64_t embedding_dim() const = 0;
  virtual int64_t num_users() const = 0;
  virtual int64_t num_items() const = 0;

  /// Recomputes per-step state (e.g. LightGCN propagation). Must be called
  /// before the embedding/score accessors in each training step.
  virtual void BeginStep() {}

  /// Final user representations (num_users x d), graph-connected.
  virtual Tensor UserEmbeddings() = 0;

  /// Final item representations (num_items x d), graph-connected.
  virtual Tensor ItemEmbeddings() = 0;

  /// Relevance scores for aligned (users[i], items[i]) pairs, shape (B x 1).
  virtual Tensor PairScores(const std::vector<int64_t>& users,
                            const std::vector<int64_t>& items) = 0;

  /// All trainable tensors.
  virtual std::vector<Tensor> Parameters() = 0;
};

/// Options shared by the bundled backbones.
struct BackboneOptions {
  int64_t embedding_dim = 64;
  uint64_t seed = 13;
};

/// Wraps a backbone into a standalone TrainableModel optimising the BPR
/// ranking loss L_UV (Eq. 1). This is how the three backbone baselines of
/// Table II (BPRMF, NeuMF, LightGCN rows) are trained; IMCAT replaces this
/// wrapper with its joint objective.
class BprModel : public TrainableModel {
 public:
  /// Trains `backbone` on the training interactions of `split`.
  BprModel(std::unique_ptr<Backbone> backbone, const Dataset& dataset,
           const DataSplit& split, const AdamOptions& adam,
           int64_t batch_size = 1024);

  double TrainStep(Rng* rng) override;
  int64_t StepsPerEpoch() const override;
  std::vector<Tensor> Parameters() override;
  std::string name() const override;
  AdamOptimizer* optimizer() override { return &optimizer_; }
  void set_thread_pool(ThreadPool* pool) override { pool_ = pool; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    backbone_->ScoreItemsForUser(user, scores);
  }
  void PrepareScoring() const override { backbone_->PrepareScoring(); }
  void InvalidateEvalCache() override { backbone_->InvalidateEvalCache(); }
  std::optional<ScoringFactors> Factors() const override {
    return backbone_->Factors();
  }

  Backbone* backbone() { return backbone_.get(); }

 private:
  std::unique_ptr<Backbone> backbone_;
  TripletSampler sampler_;
  AdamOptimizer optimizer_;
  int64_t batch_size_;
  ThreadPool* pool_ = nullptr;  ///< Optional parallel-sampling pool.
};

/// Builds the BPR ranking loss -log sigma(s+ - s-) for a triplet batch
/// against a backbone (shared by IMCAT and the baselines).
Tensor BprLossFromBackbone(Backbone* backbone, const TripletBatch& batch);

}  // namespace imcat

#endif  // IMCAT_MODELS_BACKBONE_H_
