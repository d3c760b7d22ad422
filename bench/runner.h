#ifndef IMCAT_BENCH_RUNNER_H_
#define IMCAT_BENCH_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/presets.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "train/trainer.h"

/// \file runner.h
/// Shared experiment runner for the table/figure reproduction binaries.
///
/// Every binary honours these environment overrides (single-core friendly
/// defaults are chosen so that the full bench suite completes in minutes):
///   IMCAT_BENCH_SCALE   multiplier on the per-dataset default scales.
///   IMCAT_BENCH_EPOCHS  max training epochs (default 150).
///   IMCAT_BENCH_SEEDS   repeated runs per cell (default 1; paper uses 5).
///   IMCAT_BENCH_DIM     embedding size (default 32; paper uses 64).

namespace imcat::bench {

/// Environment-configurable run parameters.
struct BenchEnv {
  double scale_multiplier = 1.0;
  int64_t max_epochs = 150;
  int num_seeds = 1;
  int64_t embedding_dim = 32;

  /// Reads the IMCAT_BENCH_* environment variables.
  static BenchEnv FromEnvironment();
};

/// Default generator scale per Table-I preset, sized so that every dataset
/// trains in seconds on one core while preserving the relative ordering of
/// the seven datasets' sizes.
double DefaultScaleFor(const std::string& preset_name);

/// A ready dataset + split + evaluator bundle.
struct Workload {
  std::string preset_name;  ///< Empty for ad-hoc datasets.
  Dataset dataset;
  DataSplit split;
  Evaluator evaluator;

  Workload(Dataset ds, uint64_t split_seed);
};

/// Generates the preset at env-scaled size.
Workload MakeWorkload(const std::string& preset_name, const BenchEnv& env,
                      uint64_t seed);

/// One train-and-test run.
struct RunResult {
  EvalResult test;
  EvalResult best_validation;
  double train_seconds = 0.0;
  int64_t epochs_run = 0;
};

/// Trains `model_name` (any Table-II name) on the workload with early
/// stopping and returns test metrics at the best validation checkpoint.
/// `configure` lets callers adjust the factory options (ablations, sweeps)
/// before the model is created; pass nullptr for defaults.
using ConfigureFn = std::function<void(ModelFactoryOptions*)>;

RunResult RunModel(const std::string& model_name, Workload* workload,
                   const BenchEnv& env, uint64_t seed,
                   const ConfigureFn& configure = nullptr);

/// A trained model plus its run metrics, for analyses that need the
/// ranker itself (popularity-group and cold-start studies).
struct TrainedModel {
  std::unique_ptr<TrainableModel> model;
  RunResult result;
};

/// Trains and returns the model itself alongside the metrics.
TrainedModel TrainModel(const std::string& model_name, Workload* workload,
                        const BenchEnv& env, uint64_t seed,
                        const ConfigureFn& configure = nullptr);

/// As RunModel but averaged over env.num_seeds seeds; returns per-seed
/// results.
std::vector<RunResult> RunSeeds(const std::string& model_name,
                                Workload* workload, const BenchEnv& env,
                                const ConfigureFn& configure = nullptr);

/// Mean test recall / ndcg over per-seed results (as percentages, matching
/// the paper's tables).
double MeanTestRecallPercent(const std::vector<RunResult>& results);
double MeanTestNdcgPercent(const std::vector<RunResult>& results);

/// Builds factory options consistent with the env (dim, adam, IMCAT
/// schedule derived from the workload's size) and applies the per-dataset
/// grid-search winners (ApplyTunedImcatConfig).
ModelFactoryOptions MakeFactoryOptions(const Workload& workload,
                                       const BenchEnv& env, uint64_t seed);

/// Applies the per-dataset IMCAT hyper-parameters found by this repo's
/// grid search (the paper likewise grid-searches alpha/beta/gamma/K/delta
/// per dataset, Sec. V-D). No-op for unknown dataset names.
void ApplyTunedImcatConfig(const std::string& preset_name,
                           ImcatConfig* config);

/// Trainer options consistent with the env.
TrainerOptions MakeTrainerOptions(const BenchEnv& env, uint64_t seed);

/// Prints the standard bench banner (env settings, substitution notice).
void PrintBanner(const std::string& title, const BenchEnv& env);

}  // namespace imcat::bench

#endif  // IMCAT_BENCH_RUNNER_H_
