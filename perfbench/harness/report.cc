#include "harness/report.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"data.generate_s", "s"},
      {"data.split_s", "s"},
      {"models.create_s", "s"},
      {"train.steps_total", "count"},
      {"train.step_ms", "ms"},
      {"core.cluster_refresh_step_ms", "ms"},
      {"core.alignment_activate_step_ms", "ms"},
      {"core.isa_rebuild_step_ms", "ms"},
      {"train.epoch_s", "s"},
      {"train.fit_self_ms", "ms"},
      {"eval.users_per_s", "1/s"},
      {"eval.test_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.submit_ms", "ms"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.failed_fraction", "ratio"},
      {"serve.outcome.ok", "count"},
      {"serve.outcome.degraded", "count"},
      {"serve.outcome.partial_degraded", "count"},
      {"serve.outcome.shed", "count"},
      {"serve.outcome.shed_queue_delay", "count"},
      {"serve.outcome.shed_predicted_late", "count"},
      {"serve.outcome.deadline_exceeded", "count"},
      {"serve.outcome.invalid", "count"},
      {"serve.outcome.error", "count"},
      {"serve.outcome.cancelled", "count"},
      {"recommender.topk_ms.b1", "ms"},
      {"recommender.topk_ms.b8", "ms"},
      {"snapshot.load_ms", "ms"},
      {"store.open_ms", "ms"},
      {"store.load_ms", "ms"},
      {"store.gc_ms", "ms"},
      {"updater.add_ms", "ms"},
      {"updater.apply_ms", "ms"},
      {"updater.publish_delta_ms", "ms"},
      {"serve.load_delta_ms", "ms"},
      {"updater.delta_bytes", "bytes"},
      {"updater.dirty_shards", "count"},
      {"publish.freshness_ms", "ms"},
      {"harness.generator_lag_ms.p99", "ms"},
      {"host.probe_ms", "ms"},
  };
  return specs;
}

namespace {

const char* UnitOf(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *table) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "";
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::SetQuantile(const std::string& name, const Quantile& q) {
  Set(name, q.value);
  std::printf("  %-34s samples=%lld beyond=%lld\n", name.c_str(),
              static_cast<long long>(q.samples),
              static_cast<long long>(q.beyond));
}

void Report::Fail(const std::string& check, const std::string& detail) {
  ++failures_;
  std::printf("CHECK FAILED %s: %s\n", check.c_str(), detail.c_str());
}

void Report::Pass(const std::string& check, const std::string& detail) {
  std::printf("check ok %s: %s\n", check.c_str(), detail.c_str());
}

void Report::Note(const std::string& line) const {
  std::printf("%s\n", line.c_str());
}

bool Report::Print(const std::vector<MetricSpec>& specs,
                   bool missing_is_zero) {
  for (const auto& [name, value] : values_) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), value, UnitOf(name));
  }
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    auto it = values_.find(spec.name);
    if (it != values_.end()) {
      value = it->second;
    } else if (!missing_is_zero) {
      std::printf("missing metric %s\n", spec.name);
      complete = false;
    }
    if (!missing_is_zero && !(value > 0.0)) {
      std::printf("metric %s is not positive: %g\n", spec.name, value);
      complete = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  const bool ok = correct() && complete;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              ok ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
