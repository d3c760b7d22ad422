// train_limcat: L-IMCAT (LightGCN backbone) on the CiteULike preset at
// scale 0.5. Set-up (generate, split, build the evaluator and the model) runs
// three times. Then identical rounds repeat until --seconds are used up (at
// least three): Trainer::Fit of a fresh model for a fixed number of epochs
// with validation every epoch, then a test-set Evaluate. Every round uses
// the same seed, so every round must produce bit-identical test metrics.
// Everything runs on the calling thread: with a 2-thread ThreadPool the
// figures spread about twice as wide across runs on a shared host, and
// training was no faster. Every step, validation pass and set-up is paired
// with a HostProbe run next to it and reported scaled to the nominal host
// speed (see host_probe.h).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/presets.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "harness/host_probe.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

constexpr char kPreset[] = "CiteULike";
constexpr double kScale = 0.5;
// Five epochs are ~130 steps: with pretrain_steps 4 a round holds the
// alignment activation (step 4), the first periodic ISA rebuild (step 104)
// and the cluster refreshes between them.
constexpr int64_t kEpochsPerRound = 5;
constexpr int kTopN = 20;
constexpr int kMinRounds = 3;
constexpr int kSetups = 3;
// Probe runs before and after each set-up, and after each validation pass
// (a pass is ~15x as long as a step, which gets one run).
constexpr int kSetupProbes = 9;
constexpr int kValidationProbes = 5;

enum class StepKind { kPlain, kAlignmentActivate, kClusterRefresh, kIsaRebuild };
constexpr int kStepKinds = 4;

// Which maintenance work ImcatModel::TrainStep does at 0-based `step`,
// derived from the public schedule fields: the first joint step activates
// alignment (clustering warm start plus a full ISA build), then every
// cluster_refresh_steps-th step refreshes the clusters and every
// isa_refresh_multiplier-th refresh also rebuilds the ISA similar sets.
StepKind ClassifyStep(int64_t step, const imcat::ImcatConfig& c) {
  if (step < c.pretrain_steps) return StepKind::kPlain;
  const int64_t since = step - c.pretrain_steps;
  if (since == 0) return StepKind::kAlignmentActivate;
  if (since % c.cluster_refresh_steps != 0) return StepKind::kPlain;
  const int64_t isa_period = c.cluster_refresh_steps * c.isa_refresh_multiplier;
  if (c.enable_isa && since % isa_period == 0) return StepKind::kIsaRebuild;
  return StepKind::kClusterRefresh;
}

const char* StepSpanName(StepKind kind) {
  switch (kind) {
    case StepKind::kAlignmentActivate:
      return "core.alignment_activate_step";
    case StepKind::kClusterRefresh:
      return "core.cluster_refresh_step";
    case StepKind::kIsaRebuild:
      return "core.isa_rebuild_step";
    case StepKind::kPlain:
      break;
  }
  return "train.step";
}

// Wall time and time scaled by the probe run right after it.
struct Timing {
  double wall_ms = 0.0;
  double nominal_ms = 0.0;
};

// Forwards every call to the model under test and times each TrainStep, by
// the step's schedule class, and each validation pass: from the
// PrepareScoring call that opens the trainer's Evaluate to the trainer's
// next call into the model. Each is followed by probe runs, outside the
// timed interval. When tracing, it also records a span for each.
class TracedModel : public imcat::TrainableModel {
 public:
  TracedModel(imcat::TrainableModel* inner, const imcat::ImcatConfig& schedule,
              HostProbe* probe, SpanBuffer* spans, int64_t parent)
      : inner_(inner), schedule_(schedule), probe_(probe), spans_(spans),
        parent_(parent) {}

  double TrainStep(imcat::Rng* rng) override {
    CloseValidation();
    const StepKind kind = ClassifyStep(step_++, schedule_);
    const double start = NowMs();
    const double loss = inner_->TrainStep(rng);
    const double end = NowMs();
    spans_->Add(spans_->NextId(), parent_, StepSpanName(kind), start, end);
    steps_[static_cast<int>(kind)].push_back(Measure(end - start, 1));
    return loss;
  }
  int64_t StepsPerEpoch() const override { return inner_->StepsPerEpoch(); }
  void OnEpochBegin(int64_t epoch) override {
    CloseValidation();
    inner_->OnEpochBegin(epoch);
  }
  std::vector<imcat::Tensor> Parameters() override {
    CloseValidation();
    return inner_->Parameters();
  }
  imcat::AdamOptimizer* optimizer() override { return inner_->optimizer(); }
  void set_thread_pool(imcat::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  std::string name() const override { return inner_->name(); }
  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    inner_->ScoreItemsForUser(user, scores);
  }
  void ScoreItemsForUsers(const std::vector<int64_t>& users,
                          std::vector<float>* scores) const override {
    inner_->ScoreItemsForUsers(users, scores);
  }
  void PrepareScoring() const override {
    if (validation_start_ < 0.0) validation_start_ = NowMs();
    inner_->PrepareScoring();
  }

  /// Closes a validation pass still open when Fit returns.
  void CloseValidation() const {
    if (validation_start_ < 0.0) return;
    const double end = NowMs();
    spans_->Add(spans_->NextId(), parent_, "eval.validate", validation_start_,
                end);
    validation_.push_back(Measure(end - validation_start_, kValidationProbes));
    validation_start_ = -1.0;
  }

  const std::vector<Timing>& validation() const { return validation_; }
  const std::vector<Timing>& steps(StepKind kind) const {
    return steps_[static_cast<int>(kind)];
  }

 private:
  // Scales `wall_ms` by the median of `probes` probe runs made now.
  Timing Measure(double wall_ms, int probes) const {
    const double start = NowMs();
    const double probe_ms = probe_->Burst(probes);
    spans_->Add(spans_->NextId(), parent_, "host.probe", start, NowMs());
    return {wall_ms, AtNominal(wall_ms, probe_ms)};
  }

  imcat::TrainableModel* inner_;
  imcat::ImcatConfig schedule_;
  HostProbe* probe_;
  SpanBuffer* spans_;
  int64_t parent_;
  int64_t step_ = 0;
  mutable double validation_start_ = -1.0;
  mutable std::vector<Timing> validation_;
  std::vector<Timing> steps_[kStepKinds];
};

struct RoundResult {
  std::vector<double> epoch_seconds;
  imcat::EvalResult test;
  std::vector<Timing> validation;
  std::vector<Timing> steps[kStepKinds];  ///< By StepKind.
  int64_t train_edges = 0;
  int64_t num_users = 0;
  bool ok = true;
  std::string error;
};

// The training inputs, built by one set-up.
struct Prepared {
  imcat::Dataset dataset;
  imcat::DataSplit split;
  std::unique_ptr<imcat::Evaluator> evaluator;
};

imcat::ModelFactoryOptions FactoryOptions(uint64_t seed) {
  imcat::ModelFactoryOptions factory;
  factory.embedding_dim = 32;
  factory.batch_size = 1024;
  factory.seed = seed + 29;
  factory.imcat.num_intents = 4;
  factory.imcat.batch_size = 1024;
  factory.imcat.ca_batch_size = 128;
  factory.imcat.pretrain_steps = 4;
  return factory;
}

// Set-up: generate the dataset, split it, build the evaluator and the model.
// Returns the model (null on failure, with `error` set).
std::unique_ptr<imcat::TrainableModel> SetUp(const RunConfig& config,
                                             SpanBuffer* spans, Prepared* p,
                                             std::string* error) {
  ScopedSpan setup(spans, "train.setup");
  {
    ScopedSpan s(spans, "data.generate", setup.id());
    p->dataset = imcat::GeneratePreset(kPreset, kScale, config.seed);
  }
  {
    ScopedSpan s(spans, "data.split", setup.id());
    imcat::SplitOptions split_options;
    split_options.seed = config.seed + 17;
    p->split = imcat::SplitByUser(p->dataset, split_options);
    p->evaluator = std::make_unique<imcat::Evaluator>(p->dataset, p->split);
  }
  ScopedSpan s(spans, "models.create", setup.id());
  auto created = imcat::CreateModel("L-IMCAT", p->dataset, p->split,
                                    FactoryOptions(config.seed));
  if (!created.ok()) {
    *error = created.status().ToString();
    return nullptr;
  }
  return std::move(created).value();
}

// One round: Fit a fresh model (the one the last set-up built, or one
// re-created from the prepared inputs), then evaluate it on the test split.
RoundResult RunRound(const RunConfig& config, const Prepared& p,
                     std::unique_ptr<imcat::TrainableModel> model,
                     HostProbe* probe, SpanBuffer* spans) {
  RoundResult out;
  ScopedSpan round(spans, "train.round");
  if (model == nullptr) {
    ScopedSpan s(spans, "models.create", round.id());
    auto created = imcat::CreateModel("L-IMCAT", p.dataset, p.split,
                                      FactoryOptions(config.seed));
    if (!created.ok()) {
      out.ok = false;
      out.error = created.status().ToString();
      return out;
    }
    model = std::move(created).value();
  }
  const imcat::Evaluator* evaluator = p.evaluator.get();
  const imcat::DataSplit& split = p.split;
  const imcat::ModelFactoryOptions factory = FactoryOptions(config.seed);
  out.train_edges = static_cast<int64_t>(split.train.size());
  out.num_users = p.dataset.num_users;

  imcat::TrainerOptions options;
  options.max_epochs = kEpochsPerRound;
  options.eval_every = 1;
  options.patience = kEpochsPerRound + 1;  // Never stops early.
  options.top_n = kTopN;
  options.seed = config.seed + 7;
  options.restore_best = false;
  imcat::TrainHistory history;
  {
    ScopedSpan fit(spans, "train.fit", round.id());
    TracedModel traced(model.get(), factory.imcat, probe, spans, fit.id());
    imcat::Trainer trainer(evaluator, &split);
    history = trainer.Fit(&traced, options);
    traced.CloseValidation();
    out.validation = traced.validation();
    for (int k = 0; k < kStepKinds; ++k) {
      out.steps[k] = traced.steps(static_cast<StepKind>(k));
    }
  }
  if (!history.status.ok() || history.epochs_run != kEpochsPerRound) {
    out.ok = false;
    out.error = "Fit: " + history.status.ToString();
    return out;
  }
  double previous = 0.0;
  for (const imcat::ValidationPoint& p : history.points) {
    out.epoch_seconds.push_back(p.elapsed_seconds - previous);
    previous = p.elapsed_seconds;
  }
  {
    ScopedSpan s(spans, "eval.test", round.id());
    out.test = evaluator->Evaluate(*model, split.test, kTopN);
  }
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Median of the timings, wall-clock or scaled, with its evidence.
Quantile MedianOf(const std::vector<Timing>& timings, bool nominal) {
  std::vector<double> ms;
  for (const Timing& t : timings) ms.push_back(nominal ? t.nominal_ms : t.wall_ms);
  return NearestRank(std::move(ms), 0.5);
}

}  // namespace

void RunTrainLimcat(const RunConfig& config, Report* report) {
  Tracer tracer(config.trace);
  SpanBuffer* spans = tracer.NewBuffer();

  // Set-up, several times; the last one's inputs and model are used. Each is
  // scaled by the mean of the probe medians taken before and after it.
  HostProbe probe;
  std::vector<double> setup_s, setup_wall_s;
  Prepared prepared;
  std::unique_ptr<imcat::TrainableModel> model;
  for (int i = 0; i < kSetups; ++i) {
    model.reset();  // It refers to the previous set-up's dataset.
    prepared = Prepared();
    std::string error;
    const double probe_before = probe.Burst(kSetupProbes);
    const double t0 = NowMs();
    model = SetUp(config, spans, &prepared, &error);
    const double wall_s = (NowMs() - t0) / 1000.0;
    if (model == nullptr) {
      report->Fail("setup", error);
      report->attempted = 1;
      report->failed = 1;
      return;
    }
    const double probe_ms = (probe_before + probe.Burst(kSetupProbes)) / 2.0;
    setup_wall_s.push_back(wall_s);
    setup_s.push_back(AtNominal(wall_s, probe_ms));
  }

  std::vector<RoundResult> rounds;
  const double measure_start = NowMs();
  const double budget_ms = config.seconds * 1000.0;
  for (;;) {
    rounds.push_back(RunRound(config, prepared, std::move(model), &probe, spans));
    const RoundResult& r = rounds.back();
    if (!r.ok) {
      report->Fail("train_round", r.error);
      break;
    }
    const int64_t n = static_cast<int64_t>(rounds.size());
    const double elapsed = NowMs() - measure_start;
    if (n >= kMinRounds && elapsed + elapsed / static_cast<double>(n) > budget_ms) {
      break;
    }
  }
  report->attempted = static_cast<int64_t>(rounds.size());
  if (!report->correct()) {
    report->failed = 1;
    return;
  }

  // Correctness: identical seeds must give bit-identical results.
  const RoundResult& first = rounds.front();
  bool identical = true;
  for (const RoundResult& r : rounds) {
    identical = identical && SameBits(r.test.recall, first.test.recall) &&
                SameBits(r.test.ndcg, first.test.ndcg);
  }
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "%zu rounds, test Recall@20=%.17g NDCG@20=%.17g", rounds.size(),
                first.test.recall, first.test.ndcg);
  if (identical) {
    report->Pass("train_bit_identical", detail);
  } else {
    report->Fail("train_bit_identical", detail);
  }

  // Throughput: a round's training interactions over its step time, with
  // each step class at the median of its steps in the run and weighted by
  // how many the schedule runs per round. Latency: the median validation
  // pass. Both scaled to the nominal host speed; wall-clock figures are
  // printed beside them.
  std::vector<double> epoch_s;
  std::vector<Timing> validation, steps[kStepKinds];
  for (const RoundResult& r : rounds) {
    epoch_s.insert(epoch_s.end(), r.epoch_seconds.begin(), r.epoch_seconds.end());
    validation.insert(validation.end(), r.validation.begin(), r.validation.end());
    for (int k = 0; k < kStepKinds; ++k) {
      steps[k].insert(steps[k].end(), r.steps[k].begin(), r.steps[k].end());
    }
  }
  const double interactions =
      static_cast<double>(first.train_edges * kEpochsPerRound) * 1000.0;
  double round_ms = 0.0, round_wall_ms = 0.0;
  for (int k = 0; k < kStepKinds; ++k) {
    const double per_round = static_cast<double>(steps[k].size()) /
                             static_cast<double>(rounds.size());
    round_ms += per_round * MedianOf(steps[k], true).value;
    round_wall_ms += per_round * MedianOf(steps[k], false).value;
  }
  const Quantile validate = MedianOf(validation, true);
  report->Set("setup_s", Median(setup_s));
  report->Set("throughput_per_s", interactions / round_ms);
  report->SetQuantile("latency_ms", validate);
  std::snprintf(detail, sizeof(detail),
                "wall clock: setup_s=%.6g throughput_per_s=%.6g latency_ms=%.6g",
                Median(setup_wall_s), interactions / round_wall_ms,
                MedianOf(validation, false).value);
  report->Note(detail);
  report->Set("train.epoch_s", Median(epoch_s));

  if (!config.trace) return;
  const std::vector<Span> all = tracer.Collect();
  const std::map<int64_t, double> self = SelfTimes(all);
  report->Set("data.generate_s", Median(Durations(all, "data.generate")) / 1e3);
  report->Set("data.split_s", Median(Durations(all, "data.split")) / 1e3);
  report->Set("models.create_s", Median(Durations(all, "models.create")) / 1e3);
  static const char* const kStepMetrics[kStepKinds] = {
      "train.step_ms", "core.alignment_activate_step_ms",
      "core.cluster_refresh_step_ms", "core.isa_rebuild_step_ms"};
  size_t steps_total = 0;
  for (int k = 0; k < kStepKinds; ++k) {
    report->SetQuantile(kStepMetrics[k], MedianOf(steps[k], true));
    steps_total += steps[k].size();
  }
  report->Set("train.steps_total", static_cast<double>(steps_total));
  report->Set("train.fit_self_ms", Median(SelfDurations(all, self, "train.fit")));
  // Users the validation pass walks per second; the pass itself is
  // latency_ms.
  report->Set("eval.users_per_s",
              static_cast<double>(first.num_users) * 1000.0 / validate.value);
  report->Set("host.probe_ms", Median(Durations(all, "host.probe")));
  report->Set("eval.test_ms", Median(Durations(all, "eval.test")));
  const std::string path = config.work_dir + "/trace-train_limcat.jsonl";
  if (!WriteSpansJsonl(all, path)) {
    report->Fail("trace_write", path);
  }
  report->Note("trace: " + std::to_string(all.size()) + " spans in " + path);
}

}  // namespace perfbench
