// Fault-tolerance integration tests: kill-and-resume determinism on a real
// model, NaN-divergence rollback with learning-rate backoff, rollback-budget
// exhaustion, and resume-from-corruption. The FaultInjector drives every
// failure; no test relies on timing or the filesystem misbehaving for real.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/backbone.h"
#include "models/bprmf.h"
#include "tensor/checkpoint.h"
#include "tests/temp_path.h"
#include "train/trainer.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace imcat {
namespace {

/// Small-but-real training setup: BPR-MF on synthetic interactions.
struct BprFixture {
  Dataset ds;
  DataSplit split;
  std::unique_ptr<Evaluator> evaluator;

  BprFixture() {
    SyntheticConfig config;
    config.num_users = 40;
    config.num_items = 60;
    config.num_tags = 10;
    config.num_interactions = 900;
    config.num_item_tags = 200;
    config.seed = 11;
    ds = GenerateSynthetic(config);
    split = SplitByUser(ds, SplitOptions{});
    evaluator = std::make_unique<Evaluator>(ds, split);
  }

  std::unique_ptr<BprModel> MakeModel() const {
    BackboneOptions backbone_options;
    backbone_options.embedding_dim = 16;
    backbone_options.seed = 3;
    AdamOptions adam;
    adam.learning_rate = 0.05f;
    return std::make_unique<BprModel>(
        std::make_unique<Bprmf>(ds.num_users, ds.num_items, backbone_options),
        ds, split, adam, /*batch_size=*/256);
  }
};

/// Test-only wrapper that poisons the training loss when the armed
/// FaultInjector NaN fault fires; everything else delegates to the inner
/// model, so the trainer sees a real optimiser and real parameters.
class NanInjectingModel : public TrainableModel {
 public:
  explicit NanInjectingModel(TrainableModel* inner) : inner_(inner) {}

  double TrainStep(Rng* rng) override {
    const double loss = inner_->TrainStep(rng);
    if (FaultInjector::Instance().ConsumeNanLoss()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return loss;
  }
  int64_t StepsPerEpoch() const override { return inner_->StepsPerEpoch(); }
  void OnEpochBegin(int64_t epoch) override { inner_->OnEpochBegin(epoch); }
  std::vector<Tensor> Parameters() override { return inner_->Parameters(); }
  AdamOptimizer* optimizer() override { return inner_->optimizer(); }
  std::string name() const override { return inner_->name(); }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    inner_->ScoreItemsForUser(user, scores);
  }

 private:
  TrainableModel* inner_;
};

/// A model that diverges on every step; used to exhaust the rollback budget.
class AlwaysNanModel : public TrainableModel {
 public:
  explicit AlwaysNanModel(int64_t num_items)
      : num_items_(num_items),
        parameter_(1, 2, {0.5f, -0.5f}, /*requires_grad=*/true) {}

  double TrainStep(Rng* rng) override {
    (void)rng;
    parameter_.data()[0] += 1.0f;  // Visible drift that rollback must undo.
    return std::numeric_limits<double>::quiet_NaN();
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {parameter_}; }
  std::string name() const override { return "always-nan"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(static_cast<size_t>(num_items_), 0.0f);
  }

  float parameter_value() const { return parameter_.data()[0]; }

 private:
  int64_t num_items_;
  Tensor parameter_;
};

/// A model whose loss stays finite but whose parameters go to infinity;
/// exercises the per-epoch tensor scan rather than the per-step loss check.
class InfParameterModel : public TrainableModel {
 public:
  InfParameterModel() : parameter_(1, 1, {1.0f}, /*requires_grad=*/true) {}

  double TrainStep(Rng* rng) override {
    (void)rng;
    parameter_.data()[0] = std::numeric_limits<float>::infinity();
    return 0.25;
  }
  int64_t StepsPerEpoch() const override { return 1; }
  std::vector<Tensor> Parameters() override { return {parameter_}; }
  std::string name() const override { return "inf-param"; }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    (void)user;
    scores->assign(2, 0.0f);
  }

 private:
  Tensor parameter_;
};

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.max_epochs = 6;
  options.eval_every = 2;
  options.patience = 100;   // No early stop: compare fixed-length runs.
  options.restore_best = false;
  options.seed = 21;
  return options;
}

TEST_F(FaultToleranceTest, KillAndResumeMatchesUninterruptedRun) {
  BprFixture fx;

  // Reference: one uninterrupted 6-epoch run.
  auto uninterrupted = fx.MakeModel();
  Trainer trainer(fx.evaluator.get(), &fx.split);
  TrainHistory full = trainer.Fit(uninterrupted.get(), BaseOptions());
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  const EvalResult reference =
      fx.evaluator->Evaluate(*uninterrupted, fx.split.validation, 20);

  // Interrupted: run 3 epochs with checkpointing, "kill" the process by
  // dropping the model, then resume into a fresh model for epochs 4-6.
  const std::string ckpt = TestTempPath("kill_resume.ckpt");
  std::remove(ckpt.c_str());
  {
    auto first_leg = fx.MakeModel();
    TrainerOptions options = BaseOptions();
    options.max_epochs = 3;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    TrainHistory h = trainer.Fit(first_leg.get(), options);
    ASSERT_TRUE(h.status.ok()) << h.status.ToString();
    EXPECT_EQ(h.epochs_run, 3);
    EXPECT_FALSE(h.resumed);
  }
  auto second_leg = fx.MakeModel();
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = ckpt;
  options.resume_path = ckpt;
  TrainHistory resumed = trainer.Fit(second_leg.get(), options);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.start_epoch, 3);
  EXPECT_EQ(resumed.epochs_run, 6);

  // The resumed run must land on the same model as the uninterrupted one:
  // identical parameters bit for bit, hence identical metrics.
  std::vector<Tensor> a = uninterrupted->Parameters();
  std::vector<Tensor> b = second_leg->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (int64_t j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i].data()[j], b[i].data()[j])
          << "parameter " << i << " diverged at element " << j;
    }
  }
  const EvalResult after_resume =
      fx.evaluator->Evaluate(*second_leg, fx.split.validation, 20);
  EXPECT_NEAR(after_resume.recall, reference.recall, 1e-6);
  EXPECT_NEAR(after_resume.ndcg, reference.ndcg, 1e-6);
  std::remove(ckpt.c_str());
}

TEST_F(FaultToleranceTest, ParallelSamplerKillAndResumeMatchesUninterrupted) {
  // Tentpole acceptance: with TrainerOptions::pool set, negative sampling
  // runs on the pool with per-index RNG streams, and kill-and-resume must
  // stay bit-identical — even when the reference run and the two resumed
  // legs use pools of different sizes, because the sampled batch depends
  // only on the main RNG state, never on the thread count.
  BprFixture fx;
  ThreadPoolOptions wide_opts;
  wide_opts.num_threads = 8;
  ThreadPool wide_pool(wide_opts);
  ThreadPoolOptions narrow_opts;
  narrow_opts.num_threads = 2;
  ThreadPool narrow_pool(narrow_opts);

  // Reference: one uninterrupted 6-epoch run on the 8-thread pool.
  auto uninterrupted = fx.MakeModel();
  Trainer trainer(fx.evaluator.get(), &fx.split);
  TrainerOptions reference_options = BaseOptions();
  reference_options.pool = &wide_pool;
  TrainHistory full = trainer.Fit(uninterrupted.get(), reference_options);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();

  // Interrupted: 3 epochs on the 2-thread pool, kill, resume on 8 threads.
  const std::string ckpt = TestTempPath("parallel_kill_resume.ckpt");
  std::remove(ckpt.c_str());
  {
    auto first_leg = fx.MakeModel();
    TrainerOptions options = BaseOptions();
    options.max_epochs = 3;
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    options.pool = &narrow_pool;
    TrainHistory h = trainer.Fit(first_leg.get(), options);
    ASSERT_TRUE(h.status.ok()) << h.status.ToString();
  }
  auto second_leg = fx.MakeModel();
  TrainerOptions options = BaseOptions();
  options.checkpoint_path = ckpt;
  options.resume_path = ckpt;
  options.pool = &wide_pool;
  TrainHistory resumed = trainer.Fit(second_leg.get(), options);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.epochs_run, 6);

  std::vector<Tensor> a = uninterrupted->Parameters();
  std::vector<Tensor> b = second_leg->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (int64_t j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i].data()[j], b[i].data()[j])
          << "parameter " << i << " diverged at element " << j;
    }
  }
  std::remove(ckpt.c_str());
}

TEST_F(FaultToleranceTest, MissingResumeFileStartsFresh) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  auto model = fx.MakeModel();
  TrainerOptions options = BaseOptions();
  options.max_epochs = 2;
  options.resume_path = TestTempPath("never_written.ckpt");
  std::remove(options.resume_path.c_str());
  TrainHistory history = trainer.Fit(model.get(), options);
  EXPECT_TRUE(history.status.ok());
  EXPECT_FALSE(history.resumed);
  EXPECT_EQ(history.epochs_run, 2);
}

TEST_F(FaultToleranceTest, CorruptResumeFileFailsWithStatus) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  const std::string path = TestTempPath("corrupt_resume.ckpt");
  std::ofstream(path, std::ios::binary) << "this is not a checkpoint";
  auto model = fx.MakeModel();
  TrainerOptions options = BaseOptions();
  options.resume_path = path;
  TrainHistory history = trainer.Fit(model.get(), options);
  ASSERT_FALSE(history.status.ok());
  EXPECT_EQ(history.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(history.resumed);
  EXPECT_EQ(history.epochs_run, 0);
  std::remove(path.c_str());
}

TEST_F(FaultToleranceTest, NanLossTriggersRollbackAndBackoff) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  auto inner = fx.MakeModel();
  const float initial_lr = inner->optimizer()->learning_rate();
  const int64_t steps_per_epoch = inner->StepsPerEpoch();
  NanInjectingModel model(inner.get());

  // Fire in the middle of epoch 2: epoch 1 consumes steps_per_epoch polls.
  FaultInjector::Instance().ArmNanLoss(steps_per_epoch);
  TrainHistory history = trainer.Fit(&model, BaseOptions());

  ASSERT_TRUE(history.status.ok()) << history.status.ToString();
  EXPECT_EQ(FaultInjector::Instance().faults_fired(), 1);
  EXPECT_EQ(history.rollbacks, 1);
  ASSERT_EQ(history.rollback_epochs.size(), 1u);
  EXPECT_EQ(history.rollback_epochs[0], 2);
  EXPECT_EQ(history.lr_scale, 0.5);
  EXPECT_NEAR(inner->optimizer()->learning_rate(), initial_lr * 0.5f, 1e-7f);
  // The retried epoch succeeded and training ran to completion with
  // finite parameters.
  EXPECT_EQ(history.epochs_run, 6);
  for (Tensor& t : inner->Parameters()) {
    for (int64_t j = 0; j < t.size(); ++j) {
      ASSERT_TRUE(std::isfinite(t.data()[j]));
    }
  }
}

TEST_F(FaultToleranceTest, RollbackBudgetExhaustionFailsWithStatus) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  AlwaysNanModel model(fx.ds.num_items);
  TrainerOptions options = BaseOptions();
  options.health.max_rollbacks = 2;
  TrainHistory history = trainer.Fit(&model, options);

  ASSERT_FALSE(history.status.ok());
  EXPECT_EQ(history.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(history.status.message().find("diverged"), std::string::npos);
  EXPECT_NE(history.status.message().find("rollbacks"), std::string::npos);
  EXPECT_EQ(history.rollbacks, 2);
  EXPECT_EQ(history.epochs_run, 0);
  // The final rollback restored the last healthy (initial) parameters.
  EXPECT_EQ(model.parameter_value(), 0.5f);
}

TEST_F(FaultToleranceTest, NonFiniteParametersDetectedByTensorScan) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  InfParameterModel model;
  TrainerOptions options = BaseOptions();
  options.health.max_rollbacks = 1;
  TrainHistory history = trainer.Fit(&model, options);

  ASSERT_FALSE(history.status.ok());
  EXPECT_EQ(history.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(history.status.message().find("non-finite values in parameter"),
            std::string::npos);
  // Rollback restored the finite pre-divergence value.
  EXPECT_TRUE(std::isfinite(model.Parameters()[0].data()[0]));
}

TEST_F(FaultToleranceTest, DisabledGuardLetsNanThrough) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  AlwaysNanModel model(fx.ds.num_items);
  TrainerOptions options = BaseOptions();
  options.max_epochs = 2;
  options.health.enabled = false;
  TrainHistory history = trainer.Fit(&model, options);
  EXPECT_TRUE(history.status.ok());
  EXPECT_EQ(history.rollbacks, 0);
  EXPECT_EQ(history.epochs_run, 2);
}

TEST_F(FaultToleranceTest, FailedPeriodicCheckpointDoesNotKillTheRun) {
  BprFixture fx;
  Trainer trainer(fx.evaluator.get(), &fx.split);
  auto model = fx.MakeModel();
  const std::string ckpt = TestTempPath("flaky_disk.ckpt");
  std::remove(ckpt.c_str());
  TrainerOptions options = BaseOptions();
  options.max_epochs = 3;
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;

  // The first periodic save hits an injected I/O error; later saves work.
  FaultInjector::Instance().ArmWriteFailure(16);
  TrainHistory history = trainer.Fit(model.get(), options);
  ASSERT_TRUE(history.status.ok()) << history.status.ToString();
  EXPECT_EQ(history.epochs_run, 3);
  EXPECT_EQ(FaultInjector::Instance().faults_fired(), 1);

  // The surviving checkpoint (from a later epoch) is valid and resumable.
  auto resumed = fx.MakeModel();
  TrainerOptions resume_options = BaseOptions();
  resume_options.resume_path = ckpt;
  TrainHistory h = trainer.Fit(resumed.get(), resume_options);
  EXPECT_TRUE(h.status.ok()) << h.status.ToString();
  EXPECT_TRUE(h.resumed);
  EXPECT_EQ(h.start_epoch, 3);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// New injector modes: read-side corruption, forced-slow ops, load failures.

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(FaultToleranceTest, ReadBitFlipCorruptsArmedLoadsOnly) {
  const std::string path = TestTempPath("read_flip.ckpt");
  std::vector<Tensor> saved = {Tensor(2, 3, {1, 2, 3, 4, 5, 6})};
  ASSERT_TRUE(SaveCheckpoint(path, saved).ok());

  // Offset 32 is the first byte of tensor payload (magic 4 + version 4 +
  // count 8 + rows 8 + cols 8); flipping it must break the checksum on the
  // next two loads, after which the fault is exhausted.
  FaultInjector::Instance().ArmReadBitFlip(/*offset=*/32, /*mask=*/0x01,
                                           /*count=*/2);
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::vector<Tensor> loaded = {Tensor(2, 3)};
    Status status = LoadCheckpoint(path, &loaded);
    ASSERT_FALSE(status.ok()) << "load " << attempt;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  }
  EXPECT_EQ(FaultInjector::Instance().faults_fired(), 2);
  EXPECT_FALSE(FaultInjector::Instance().enabled());

  std::vector<Tensor> clean = {Tensor(2, 3)};
  ASSERT_TRUE(LoadCheckpoint(path, &clean).ok());
  for (int64_t i = 0; i < clean[0].size(); ++i) {
    EXPECT_EQ(clean[0].data()[i], saved[0].data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(FaultToleranceTest, ReadBitFlipLeavesTheFileOnDiskIntact) {
  const std::string path = TestTempPath("read_flip_intact.ckpt");
  std::vector<Tensor> saved = {Tensor(1, 4, {9, 8, 7, 6})};
  ASSERT_TRUE(SaveCheckpoint(path, saved).ok());
  const std::string before = ReadFileBytes(path);

  FaultInjector::Instance().ArmReadBitFlip(32, 0xFF, 1);
  std::vector<Tensor> loaded = {Tensor(1, 4)};
  EXPECT_FALSE(LoadCheckpoint(path, &loaded).ok());

  // The corruption lived only in the reader's buffer.
  EXPECT_EQ(ReadFileBytes(path), before);
  std::remove(path.c_str());
}

TEST_F(FaultToleranceTest, SlowOpsFireExactlyTheArmedCount) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmSlowOps(/*count=*/3, /*millis=*/2.5);
  EXPECT_TRUE(injector.enabled());
  EXPECT_EQ(injector.ConsumeSlowOp(), 2.5);
  EXPECT_EQ(injector.ConsumeSlowOp(), 2.5);
  EXPECT_EQ(injector.ConsumeSlowOp(), 2.5);
  EXPECT_EQ(injector.ConsumeSlowOp(), 0.0);  // Exhausted.
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.faults_fired(), 3);
}

TEST_F(FaultToleranceTest, LoadFailuresFireExactlyTheArmedCount) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmLoadFailures(2);
  EXPECT_TRUE(injector.ConsumeLoadFailure());
  EXPECT_TRUE(injector.ConsumeLoadFailure());
  EXPECT_FALSE(injector.ConsumeLoadFailure());
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.faults_fired(), 2);
}

TEST_F(FaultToleranceTest, ResetDisarmsCountedFaults) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmSlowOps(10, 1.0);
  injector.ArmLoadFailures(10);
  injector.ArmReadBitFlip(0, 0x01, 10);
  EXPECT_TRUE(injector.enabled());
  injector.Reset();
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.ConsumeSlowOp(), 0.0);
  EXPECT_FALSE(injector.ConsumeLoadFailure());
  EXPECT_EQ(injector.faults_fired(), 0);
}

}  // namespace
}  // namespace imcat
