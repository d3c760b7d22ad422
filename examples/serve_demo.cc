// Fault-tolerant serving demo: train a BPR-MF backbone, export its factor
// matrices as a serving snapshot, stand up the RecService and walk through
// its robustness behaviours end to end — real scoring, request validation,
// hot snapshot reload, degraded popularity fallback while the snapshot is
// corrupt and the circuit breaker is open, and recovery once a good
// snapshot is back.
//
// Usage:
//   serve_demo [snapshot_path]

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/backbone.h"
#include "models/bprmf.h"
#include "obs/metrics.h"
#include "serve/rec_service.h"
#include "train/trainer.h"

namespace {

imcat::RecRequest Req(int64_t user) {
  imcat::RecRequest request;
  request.user = user;
  return request;
}

void PrintResponse(const char* label, const imcat::RecResponse& response) {
  std::printf("%-28s status=%s degraded=%s version=%lld items=[", label,
              response.status.ToString().c_str(),
              response.degraded ? "true" : "false",
              (long long)response.snapshot_version);
  for (size_t i = 0; i < response.items.size(); ++i) {
    std::printf("%s%lld:%.3f", i ? " " : "", (long long)response.items[i].item,
                response.items[i].score);
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace imcat;  // Example code only.

  const std::string snapshot_path =
      argc > 1 ? argv[1] : std::string("/tmp/imcat_serve_demo.ckpt");

  // 1. Train a small BPR-MF model and export a serving snapshot.
  SyntheticConfig data_config;
  data_config.num_users = 200;
  data_config.num_items = 300;
  data_config.num_tags = 40;
  data_config.num_interactions = 5000;
  data_config.num_item_tags = 900;
  data_config.seed = 9;
  Dataset dataset = GenerateSynthetic(data_config);
  DataSplit split = SplitByUser(dataset, SplitOptions{});
  Evaluator evaluator(dataset, split);
  Trainer trainer(&evaluator, &split);

  BackboneOptions backbone_options;
  backbone_options.embedding_dim = 32;
  BprModel model(std::make_unique<Bprmf>(dataset.num_users, dataset.num_items,
                                         backbone_options),
                 dataset, split, AdamOptions{}, /*batch_size=*/512);
  TrainerOptions train_options;
  train_options.max_epochs = 15;
  train_options.eval_every = 5;
  std::printf("=== Training BPR-MF (%lld epochs) ===\n",
              (long long)train_options.max_epochs);
  trainer.Fit(&model, train_options);
  Status exported = ExportServingCheckpoint(&model, snapshot_path);
  std::printf("exported serving snapshot: %s (%s)\n", snapshot_path.c_str(),
              exported.ToString().c_str());

  // 2. Stand up the service: popularity fallback from train-split degrees,
  // bounded queue, deadline budgets, breaker + backoff defaults. The
  // metrics registry makes every behaviour below visible in the summary
  // printed on exit.
  auto fallback =
      std::make_shared<PopularityRanker>(dataset.num_items, split.train);
  MetricsRegistry metrics;
  RecServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  options.default_top_k = 5;
  options.default_deadline_ms = 50.0;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 10.0;
  // Opt into request coalescing: a worker wakeup drains up to this many
  // compatible queued requests and scores them through one TopKBatch
  // pass. The same configuration is echoed by GET /healthz ("batching").
  options.max_batch_size = 4;
  options.metrics = &metrics;
  RecService service(fallback, options);
  std::printf("batching: max_batch_size=%lld block_items=%lld\n",
              (long long)options.max_batch_size,
              (long long)options.recommender.block_items);

  std::printf("\n=== Before any snapshot: degraded popularity fallback ===\n");
  PrintResponse("no snapshot yet", service.Recommend(Req(7)));

  std::printf("\n=== Snapshot loaded: real model scores ===\n");
  Status load = service.LoadSnapshot(snapshot_path);
  std::printf("LoadSnapshot: %s\n", load.ToString().c_str());
  PrintResponse("user 7", service.Recommend(Req(7)));
  PrintResponse("user 42", service.Recommend(Req(42)));

  std::printf("\n=== Request validation: clean errors, never UB ===\n");
  PrintResponse("user -3", service.Recommend(Req(-3)));
  PrintResponse("user 10^6 (unknown)",
                service.Recommend(Req(1000000)));

  std::printf("\n=== Hot reload: mid-flight requests keep their snapshot ===\n");
  auto before = service.snapshot();
  (void)service.LoadSnapshot(snapshot_path);
  // parent_version is the lineage the loaded file claims in its manifest
  // (0 for unversioned exports) — the same value the
  // snapshot_reload journal event now carries.
  std::printf(
      "old snapshot version %lld still valid, current is %lld "
      "(manifest parent_version %lld)\n",
      (long long)before->version(), (long long)service.snapshot()->version(),
      (long long)service.snapshot()->parent_version());

  std::printf("\n=== Corrupt snapshot + reload: breaker trips, degraded ===\n");
  {
    std::ofstream(snapshot_path, std::ios::binary | std::ios::trunc)
        << "garbage, not a checkpoint";
  }
  // Two failing reloads trip the breaker (threshold 2); requests degrade
  // to the popularity fallback but keep answering.
  for (int i = 0; i < 2; ++i) {
    Status bad = service.LoadSnapshot(snapshot_path);
    std::printf("reload %d: %s\n", i + 1, bad.ToString().c_str());
  }
  std::printf("breaker: %s\n",
              CircuitBreaker::StateName(service.breaker_state()));
  PrintResponse("user 7 (degraded)", service.Recommend(Req(7)));

  std::printf("\n=== Recovery: good snapshot back, breaker closes ===\n");
  (void)ExportServingCheckpoint(&model, snapshot_path);
  Status recovered = service.LoadSnapshot(snapshot_path);
  std::printf("reload: %s, breaker: %s\n", recovered.ToString().c_str(),
              CircuitBreaker::StateName(service.breaker_state()));
  PrintResponse("user 7 (recovered)",
                service.Recommend(Req(7)));

  const RecServiceStats stats = service.stats();
  std::printf("\nstats: accepted=%lld real=%lld degraded=%lld invalid=%lld "
              "reloads=%lld load_failures=%lld shed=%lld\n",
              (long long)stats.accepted, (long long)stats.served_real,
              (long long)stats.served_degraded,
              (long long)stats.invalid_requests,
              (long long)stats.snapshot_reloads,
              (long long)stats.snapshot_load_failures, (long long)stats.shed);

  std::printf("\n=== Health endpoint (GET /healthz payload) ===\n%s\n",
              service.HealthJson().c_str());

  std::printf("\n=== Metrics snapshot (Prometheus text format) ===\n%s",
              DumpPrometheusText(metrics.Snapshot()).c_str());
  std::remove(snapshot_path.c_str());
  return recovered.ok() ? 0 : 1;
}
