#ifndef IMCAT_TRAIN_TRAINER_H_
#define IMCAT_TRAIN_TRAINER_H_

#include <string>
#include <vector>

#include "data/split.h"
#include "eval/evaluator.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "train/health.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file trainer.h
/// Generic training loop with validation-based early stopping (the paper's
/// protocol: early stop when validation Recall@20 has not improved for a
/// patience window), epoch timing for the efficiency study (Fig. 9),
/// best-parameter restoration, a numerical-health guard (NaN/Inf rollback
/// with learning-rate backoff) and atomic resumable checkpointing.

namespace imcat {

/// Interface implemented by every trainable model in the library. A model
/// owns its parameters, optimiser and batch composition; the trainer only
/// orchestrates epochs, evaluation and early stopping.
class TrainableModel : public Ranker {
 public:
  /// Runs one optimisation step (sample batches, forward, backward,
  /// optimiser update) and returns the scalar training loss.
  virtual double TrainStep(Rng* rng) = 0;

  /// Number of steps per epoch (typically ceil(|train| / batch_size)).
  virtual int64_t StepsPerEpoch() const = 0;

  /// Called at the start of every epoch (0-based); used for periodic work
  /// such as tag-cluster refreshes or augmentation-graph resampling.
  virtual void OnEpochBegin(int64_t epoch) { (void)epoch; }

  /// All trainable tensors (used to snapshot/restore the best state).
  virtual std::vector<Tensor> Parameters() = 0;

  /// The optimiser driving TrainStep(), if the model exposes one. Used by
  /// the trainer to checkpoint optimiser state (Adam moments, step count)
  /// and to apply health-guard learning-rate backoff. Models without a
  /// single Adam optimiser may return nullptr; they still train and
  /// checkpoint, but resume restarts their moments and rollback cannot
  /// reduce their learning rate.
  virtual AdamOptimizer* optimizer() { return nullptr; }

  /// Gives the model a thread pool for its parallelizable training stages
  /// (negative sampling / batch composition). Models that parallelize must
  /// stay deterministic for a fixed seed at any thread count — the library
  /// samplers achieve this with per-index RNG streams (see sampler.h) —
  /// so kill-and-resume stays bit-identical. Default: ignore the pool.
  virtual void set_thread_pool(ThreadPool* pool) { (void)pool; }

  /// Human-readable model name for logs and reports.
  virtual std::string name() const = 0;
};

/// Training-loop options.
struct TrainerOptions {
  int64_t max_epochs = 200;
  /// Optional one-line provenance of the training data (typically
  /// IngestReport::Summary() from the TSV loader); logged once at the
  /// start of Fit when verbose, so every training log records exactly
  /// what the ingestion pipeline kept, quarantined and filtered.
  std::string data_provenance;
  /// Validate every this many epochs.
  int64_t eval_every = 5;
  /// Stop after this many consecutive validations without improvement.
  int64_t patience = 10;
  int top_n = 20;
  uint64_t seed = 7;
  bool verbose = false;
  /// Restore the best validation parameters after training.
  bool restore_best = true;

  /// Numerical-health guard (divergence rollback + LR backoff) policy.
  HealthOptions health;

  /// When non-empty, a resumable checkpoint (parameters + optimiser +
  /// RNG + progress metadata) is written here atomically every
  /// `checkpoint_every` epochs and once more at the end of training.
  std::string checkpoint_path;
  int64_t checkpoint_every = 1;

  /// When non-empty and the file exists, training state is restored from
  /// it and the run continues mid-stream (bit-identical to an
  /// uninterrupted run with the same seed). A missing file starts a fresh
  /// run (so the same invocation works for the first launch and every
  /// relaunch); a corrupt or mismatched file fails the run with a
  /// descriptive Status in TrainHistory::status.
  std::string resume_path;

  /// Optional thread pool. When set, periodic validation fans out per user
  /// (bit-identical metrics at any thread count) and the model's sampling
  /// stage parallelizes via set_thread_pool (deterministic per-index RNG
  /// streams, so checkpoints and kill-and-resume stay bit-identical). The
  /// pool must outlive the Fit call; null trains fully serially.
  ThreadPool* pool = nullptr;

  /// Optional instrumentation (DESIGN.md §9). When non-null, Fit maintains
  /// the `train_*` family: per-epoch gauges (train_loss, train_grad_norm,
  /// train_lr_scale, train_steps_per_sec), timing histograms
  /// (train_epoch_ms, train_step_ms, train_eval_ms) and lifetime counters
  /// (train_epochs_total, train_steps_total, train_rollbacks_total,
  /// train_checkpoint_writes_total, train_checkpoint_failures_total).
  /// Null keeps the loop uninstrumented — not even clock reads are added.
  MetricsRegistry* metrics = nullptr;
  /// Optional run journal. Fit appends structured events: "run_start",
  /// one "epoch" per healthy epoch (loss, grad norm, lr scale, timing,
  /// validation metrics on eval epochs), "rollback" on every health-guard
  /// trip, "checkpoint" per checkpoint attempt and a final "run_end".
  /// The journal is flushed before Fit returns.
  RunJournal* journal = nullptr;
  /// When non-empty, a metrics snapshot is written here at the end of Fit
  /// via WriteMetricsFile (.json extension selects JSON, anything else
  /// Prometheus text). Requires `metrics` to be set.
  std::string metrics_out;
};

/// Per-validation record.
struct ValidationPoint {
  int64_t epoch = 0;
  double train_loss = 0.0;
  EvalResult validation;
  double elapsed_seconds = 0.0;  ///< Cumulative training time (excl. eval).
  /// Global gradient norm from the optimiser's last step of this epoch
  /// (-1 when not measured, i.e. clipping disabled or no optimiser).
  double grad_norm = -1.0;
};

/// The outcome of Trainer::Fit.
struct TrainHistory {
  std::vector<ValidationPoint> points;
  int64_t best_epoch = 0;
  EvalResult best_validation;
  double train_seconds = 0.0;  ///< Total optimisation time (excl. eval).
  int64_t epochs_run = 0;

  /// OK unless the run failed (resume error, or divergence persisted
  /// past the rollback budget).
  Status status;
  /// Health-guard activity: number of divergence rollbacks performed and
  /// the epochs at which they fired.
  int64_t rollbacks = 0;
  std::vector<int64_t> rollback_epochs;
  /// Cumulative learning-rate multiplier after backoff (1.0 = untouched).
  double lr_scale = 1.0;
  /// Resume bookkeeping: whether a checkpoint was restored and the epoch
  /// training continued from.
  bool resumed = false;
  int64_t start_epoch = 0;
};

/// Export configuration for `ExportServingCheckpoint`.
struct ServingExportOptions {
  /// Item-range shard size of the sharded (v3) snapshot format; forwarded
  /// to WriteShardedSnapshot.
  int64_t items_per_shard = 4096;
  /// Snapshot version recorded in the manifest (0 = unassigned; the
  /// serving layer then falls back to its own monotonic counter). Assign
  /// strictly increasing versions in a publish pipeline so RecService can
  /// refuse stale re-publishes.
  int64_t version = 0;
};

/// Exports the model's scoring factors (Ranker::Factors(): the user and
/// item tables its scores are the inner products of — LightGCN's
/// propagated ones, IMCAT's backbone's) for the serving layer, in the
/// sharded v3 snapshot format (atomic write, per-shard checksums, so the
/// serving layer can quarantine corruption instead of rejecting the whole
/// catalogue). A model without factors (NeuMF, N-IMCAT) is refused with
/// kFailedPrecondition: the serving layer scores only inner products.
Status ExportServingCheckpoint(TrainableModel* model, const std::string& path,
                               const ServingExportOptions& options);

/// Export with default options (4096-item shards, unversioned).
Status ExportServingCheckpoint(TrainableModel* model, const std::string& path);

class SnapshotStore;

/// Store-routed export (serve/snapshot_store.h): the snapshot is written
/// to the store's versioned path — `options.version` when assigned (> 0),
/// else the store's NextVersion() — and registered in the store manifest,
/// so the file participates in startup recovery and retention GC. Same
/// refusal as above.
Status ExportServingCheckpoint(TrainableModel* model, SnapshotStore* store,
                               const ServingExportOptions& options = {});

/// Orchestrates epochs, periodic validation, early stopping, divergence
/// rollback and restoring the best parameters.
class Trainer {
 public:
  /// The evaluator and split must outlive the trainer.
  Trainer(const Evaluator* evaluator, const DataSplit* split);

  /// Trains `model` until max_epochs or early stop; returns the history.
  /// Failures (corrupt resume file, exhausted divergence budget) are
  /// reported in TrainHistory::status rather than aborting.
  TrainHistory Fit(TrainableModel* model, const TrainerOptions& options) const;

 private:
  const Evaluator* evaluator_;
  const DataSplit* split_;
};

}  // namespace imcat

#endif  // IMCAT_TRAIN_TRAINER_H_
