// Micro-benchmarks of the observability layer (google-benchmark):
// counter/gauge/histogram hot paths uncontended and under 8-way
// contention, ScopedTimer (two clock reads + a record), registry
// snapshot cost as the metric count grows, journal appends, and one
// always-instrumented Evaluate run (DESIGN.md §9). EXPERIMENTS.md records
// representative numbers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace imcat {
namespace {

void BM_CounterIncrement(benchmark::State& state) {
  static MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bench_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

// All 8 threads hammer one counter. The per-thread shards are the whole
// point: this should stay within a small factor of the uncontended path
// instead of collapsing into cache-line ping-pong.
void BM_CounterIncrementContended(benchmark::State& state) {
  static MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bench_contended_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrementContended)->Threads(8)->UseRealTime();

void BM_GaugeSet(benchmark::State& state) {
  static MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("bench_gauge");
  double value = 0.0;
  for (auto _ : state) {
    gauge->Set(value);
    value += 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  static MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("bench_latency_ms");
  double value = 0.125;
  for (auto _ : state) {
    histogram->Record(value);
    value = value < 4096.0 ? value * 1.0625 : 0.125;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramRecordContended(benchmark::State& state) {
  static MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("bench_contended_latency_ms");
  double value = 0.125 * (state.thread_index() + 1);
  for (auto _ : state) {
    histogram->Record(value);
    value = value < 4096.0 ? value * 1.0625 : 0.125;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordContended)->Threads(8)->UseRealTime();

void BM_ScopedTimer(benchmark::State& state) {
  static MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("bench_timer_ms");
  for (auto _ : state) {
    ScopedTimer timer(histogram);
    benchmark::DoNotOptimize(histogram);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimer);

// Snapshot walks every shard of every metric; cost must scale with the
// metric count, not with how many increments happened since last time.
void BM_RegistrySnapshot(benchmark::State& state) {
  const int64_t num_metrics = state.range(0);
  MetricsRegistry registry;
  for (int64_t i = 0; i < num_metrics; ++i) {
    const std::string suffix = std::to_string(i);
    registry.GetCounter("bench_c" + suffix + "_total")->Add(i);
    registry.GetGauge("bench_g" + suffix)->Set(static_cast<double>(i));
    registry.GetHistogram("bench_h" + suffix + "_ms")
        ->Record(static_cast<double>(i) + 0.5);
  }
  for (auto _ : state) {
    MetricsSnapshot snapshot = registry.Snapshot();
    benchmark::DoNotOptimize(snapshot.counters.size());
  }
  state.SetItemsProcessed(state.iterations() * num_metrics * 3);
}
BENCHMARK(BM_RegistrySnapshot)->Arg(8)->Arg(64)->Arg(256);

void BM_JournalAppend(benchmark::State& state) {
  const std::string path = "/tmp/imcat_bench_journal.jsonl";
  RunJournal::Options options;
  options.flush_every = 64;
  RunJournal journal(path, options);
  int64_t step = 0;
  for (auto _ : state) {
    journal.Append(JournalEvent("bench")
                       .Set("step", step)
                       .Set("loss", 0.125 + static_cast<double>(step % 7))
                       .Set("ok", true));
    ++step;
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend);

// A deterministic stand-in ranker whose per-item scoring cost is tiny, so
// any fixed per-Evaluate instrumentation cost is maximally visible in
// relative terms. Real models only dilute the overhead further.
class HashRanker final : public Ranker {
 public:
  explicit HashRanker(int64_t num_items) : num_items_(num_items) {}

  void ScoreItemsForUser(int64_t user,
                         std::vector<float>* scores) const override {
    scores->resize(static_cast<size_t>(num_items_));
    uint64_t h = static_cast<uint64_t>(user) * 0x9E3779B97F4A7C15ull + 1;
    for (int64_t i = 0; i < num_items_; ++i) {
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      (*scores)[static_cast<size_t>(i)] = static_cast<float>(h >> 40);
    }
  }

 private:
  int64_t num_items_;
};

struct EvalFixture {
  EvalFixture() {
    SyntheticConfig config;
    config.num_users = 400;
    config.num_items = 600;
    config.num_tags = 40;
    config.num_interactions = 12000;
    config.num_item_tags = 1500;
    dataset = GenerateSynthetic(config);
    split = SplitByUser(dataset, SplitOptions{});
  }

  Dataset dataset;
  DataSplit split;
};

EvalFixture& SharedEvalFixture() {
  static EvalFixture fixture;
  return fixture;
}

void BM_Evaluate(benchmark::State& state) {
  EvalFixture& fixture = SharedEvalFixture();
  Evaluator evaluator(fixture.dataset, fixture.split);
  HashRanker ranker(fixture.dataset.num_items);
  int64_t users = 0;
  for (auto _ : state) {
    EvalResult result =
        evaluator.Evaluate(ranker, fixture.split.test, /*top_n=*/20);
    benchmark::DoNotOptimize(result.recall);
    users += result.num_users;
  }
  state.SetItemsProcessed(users);
}
BENCHMARK(BM_Evaluate);

}  // namespace
}  // namespace imcat

BENCHMARK_MAIN();
