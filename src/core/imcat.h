#ifndef IMCAT_CORE_IMCAT_H_
#define IMCAT_CORE_IMCAT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/alignment.h"
#include "core/config.h"
#include "core/intent_clustering.h"
#include "core/positive_samples.h"
#include "models/backbone.h"

/// \file imcat.h
/// The IMCAT model (Sec. IV): a recommendation backbone augmented with
/// intent-aware representation modelling (IRM), intent-aware multi-source
/// contrastive alignment (IMCA) and intent-aware set-to-set alignment
/// (ISA), trained with the joint objective of Eq. 18:
///
///   L = L_UV + alpha L_VT + beta L_CA* + gamma L_KL  (+ independence).
///
/// The model is backbone-agnostic: pass any Backbone (BPRMF -> B-IMCAT,
/// NeuMF -> N-IMCAT, LightGCN -> L-IMCAT, or a custom one).

namespace imcat {

class ImcatModel : public TrainableModel {
 public:
  /// The dataset provides the item-tag labels; the split's training edges
  /// provide the collaborative-filtering signal. Both must outlive the
  /// model.
  ImcatModel(std::unique_ptr<Backbone> backbone, const Dataset& dataset,
             const DataSplit& split, const ImcatConfig& config,
             const AdamOptions& adam);

  // TrainableModel:
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
  /// The backbone's factors: IMCAT scores with the backbone alone.
  std::optional<ScoringFactors> Factors() const override {
    return backbone_->Factors();
  }

  /// Accessors for analysis / examples.
  Backbone* backbone() { return backbone_.get(); }
  const ImcatConfig& config() const { return config_; }
  Tensor tag_embeddings() { return tag_table_; }
  const IntentClustering& clustering() const { return clustering_; }
  const PositiveSampleIndex& positive_index() const { return pos_index_; }

  /// True once the pre-training phase finished and clustering/alignment
  /// losses are active.
  bool alignment_active() const { return alignment_active_; }

  /// Individual loss-term values of the last TrainStep, for diagnostics.
  struct LossBreakdown {
    double uv = 0.0;
    double vt = 0.0;
    double ca = 0.0;
    double kl = 0.0;
    double independence = 0.0;
  };
  const LossBreakdown& last_losses() const { return last_losses_; }

 private:
  void ActivateAlignment(Rng* rng);
  void MaybeRefreshClusters(Rng* rng);

  std::unique_ptr<Backbone> backbone_;
  ImcatConfig config_;

  Tensor tag_table_;  ///< (T x d) trainable tag embeddings.
  IntentClustering clustering_;
  PositiveSampleIndex pos_index_;
  AlignmentHead alignment_;

  TripletSampler ui_sampler_;  ///< (u, v+, v-) for L_UV.
  TripletSampler vt_sampler_;  ///< (v, t+, t-) for L_VT.
  ItemBatchSampler item_sampler_;
  ThreadPool* pool_ = nullptr;  ///< Optional parallel-sampling pool.

  AdamOptimizer optimizer_;
  int64_t step_ = 0;
  bool alignment_active_ = false;
  int64_t refreshes_since_isa_rebuild_ = 0;
  LossBreakdown last_losses_;
};

/// The paper's naming convention for a backbone wrapped in IMCAT:
/// "BPRMF" -> "B-IMCAT", "NeuMF" -> "N-IMCAT", "LightGCN" -> "L-IMCAT",
/// anything else -> "<name>-IMCAT".
std::string ImcatNameForBackbone(const std::string& backbone_name);

}  // namespace imcat

#endif  // IMCAT_CORE_IMCAT_H_
