#include "core/imcat.h"

#include "core/independence.h"
#include "core/set_alignment.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace imcat {

ImcatModel::ImcatModel(std::unique_ptr<Backbone> backbone,
                       const Dataset& dataset, const DataSplit& split,
                       const ImcatConfig& config, const AdamOptions& adam)
    : backbone_(std::move(backbone)),
      config_(config),
      clustering_(config.num_intents, backbone_->embedding_dim(), config.eta,
                  config.seed ^ 0x5eedbeefULL),
      pos_index_(dataset, split.train, config.num_intents),
      alignment_(config.num_intents, backbone_->embedding_dim(),
                 config.seed ^ 0xa11a9bedULL),
      ui_sampler_(dataset.num_users, dataset.num_items, split.train),
      vt_sampler_(dataset.num_items, dataset.num_tags, dataset.item_tags),
      item_sampler_(dataset.num_items, split.train),
      optimizer_(adam) {
  Rng rng(config.seed ^ 0x7a97ab1eULL);
  tag_table_ = XavierUniform(dataset.num_tags, backbone_->embedding_dim(),
                             &rng, /*treat_as_embedding=*/true);
  optimizer_.AddParameters(backbone_->Parameters());
  optimizer_.AddParameter(tag_table_);
  optimizer_.AddParameter(clustering_.centers());
  optimizer_.AddParameters(alignment_.Parameters());
}

void ImcatModel::ActivateAlignment(Rng* rng) {
  clustering_.WarmStart(tag_table_, rng);
  clustering_.UpdateHardAssignments(tag_table_);
  pos_index_.SetAssignments(clustering_.assignments());
  if (config_.enable_isa) {
    pos_index_.BuildSimilarSets(config_.jaccard_threshold,
                                config_.max_similar_items);
  }
  refreshes_since_isa_rebuild_ = 0;
  alignment_active_ = true;
}

void ImcatModel::MaybeRefreshClusters(Rng* rng) {
  (void)rng;
  if ((step_ - config_.pretrain_steps) % config_.cluster_refresh_steps != 0) {
    return;
  }
  clustering_.UpdateHardAssignments(tag_table_);
  pos_index_.SetAssignments(clustering_.assignments());
  ++refreshes_since_isa_rebuild_;
  if (config_.enable_isa &&
      refreshes_since_isa_rebuild_ >= config_.isa_refresh_multiplier) {
    pos_index_.BuildSimilarSets(config_.jaccard_threshold,
                                config_.max_similar_items);
    refreshes_since_isa_rebuild_ = 0;
  }
}

double ImcatModel::TrainStep(Rng* rng) {
  backbone_->BeginStep();
  last_losses_ = LossBreakdown();

  // L_UV: the BPR ranking loss on user-item interactions (Eq. 1).
  TripletBatch ui_batch;
  ui_sampler_.SampleBatch(config_.batch_size, rng, &ui_batch, pool_);
  Tensor loss = BprLossFromBackbone(backbone_.get(), ui_batch);
  last_losses_.uv = loss.item();

  // L_VT: BPR over item-tag labels (Eq. 2) — recommend tags to items.
  {
    TripletBatch vt_batch;
    vt_sampler_.SampleBatch(config_.batch_size, rng, &vt_batch, pool_);
    Tensor items = ops::Gather(backbone_->ItemEmbeddings(), vt_batch.anchors);
    Tensor pos_tags = ops::Gather(tag_table_, vt_batch.positives);
    Tensor neg_tags = ops::Gather(tag_table_, vt_batch.negatives);
    Tensor margin = ops::Sub(ops::RowSum(ops::Mul(items, pos_tags)),
                             ops::RowSum(ops::Mul(items, neg_tags)));
    Tensor vt =
        ops::ScalarMul(ops::Mean(ops::LogSigmoid(margin)), -1.0f);
    last_losses_.vt = vt.item();
    loss = ops::Add(loss, ops::ScalarMul(vt, config_.alpha));
  }

  // Clustering + alignment activate after the pre-training phase so the
  // tag embeddings are informative (Sec. V-D).
  CaBatch ca_batch;  // Must outlive Backward(): owns SpMM operands.
  if (step_ >= config_.pretrain_steps) {
    if (!alignment_active_) {
      ActivateAlignment(rng);
    } else {
      MaybeRefreshClusters(rng);
    }

    // L_KL: self-supervised clustering loss (Eq. 6).
    if (config_.gamma > 0.0f) {
      Tensor kl = clustering_.KlLoss(tag_table_);
      last_losses_.kl = kl.item();
      loss = ops::Add(loss, ops::ScalarMul(kl, config_.gamma));
    }

    // L_CA*: the intent-aware multi-source (set-to-set) contrastive
    // alignment (Eqs. 11-17).
    if (config_.enable_alignment && config_.beta > 0.0f) {
      std::vector<int64_t> anchors;
      item_sampler_.SampleBatch(config_.ca_batch_size, rng, &anchors);
      ca_batch = BuildCaBatch(pos_index_, backbone_->UserEmbeddings(),
                              tag_table_, backbone_->ItemEmbeddings(),
                              anchors, config_, rng);
      Tensor ca =
          alignment_.Loss(ca_batch.user_agg, ca_batch.tag_aggs,
                          ca_batch.item_embs, ca_batch.weights, config_);
      last_losses_.ca = ca.item();
      loss = ops::Add(loss, ops::ScalarMul(ca, config_.beta));
    }

    // Intent-independence regulariser (distance correlation, as in KGIN).
    if (config_.independence_weight > 0.0f && config_.num_intents > 1) {
      Tensor ind = IntentIndependenceLoss(backbone_->UserEmbeddings(),
                                          config_.num_intents,
                                          config_.independence_sample_rows,
                                          rng);
      last_losses_.independence = ind.item();
      loss =
          ops::Add(loss, ops::ScalarMul(ind, config_.independence_weight));
    }
  }

  optimizer_.ZeroGrad();
  Backward(loss);
  optimizer_.Step();
  backbone_->InvalidateEvalCache();
  ++step_;
  return loss.item();
}

int64_t ImcatModel::StepsPerEpoch() const {
  return (ui_sampler_.num_edges() + config_.batch_size - 1) /
         config_.batch_size;
}

std::vector<Tensor> ImcatModel::Parameters() {
  std::vector<Tensor> params = backbone_->Parameters();
  params.push_back(tag_table_);
  params.push_back(clustering_.centers());
  for (Tensor& t : alignment_.Parameters()) params.push_back(t);
  return params;
}

std::string ImcatModel::name() const {
  return ImcatNameForBackbone(backbone_->name());
}

std::string ImcatNameForBackbone(const std::string& backbone_name) {
  if (backbone_name == "BPRMF") return "B-IMCAT";
  if (backbone_name == "NeuMF") return "N-IMCAT";
  if (backbone_name == "LightGCN") return "L-IMCAT";
  return backbone_name + "-IMCAT";
}

}  // namespace imcat
