#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in untraced runs. Keep in
/// step with BENCHMARK.json (run.py checks the printed names against it).
const std::vector<MetricSpec>& EndToEndMetrics();

/// Per-layer metrics, reported by every workload in traced runs; a layer
/// the workload does not exercise reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Collects one run's metrics and correctness verdicts and prints them.
class Report {
 public:
  /// Records a metric value; the unit comes from the metric tables above.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Records a percentile's value under `name` and prints its evidence.
  void SetQuantile(const std::string& name, const Quantile& q);

  /// Marks the run incorrect; `detail` is printed immediately.
  void Fail(const std::string& check, const std::string& detail);
  /// Prints a passed check.
  void Pass(const std::string& check, const std::string& detail);
  bool correct() const { return failures_ == 0; }

  /// Human-readable line (never the last line of the output).
  void Note(const std::string& line) const;

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints every metric recorded (name, value, unit), then, as the last
  /// line, the result object holding the metrics of `specs`. Missing
  /// metrics are an error for end-to-end runs and 0 for per-layer runs.
  /// Returns false when an end-to-end metric is missing or not positive.
  bool Print(const std::vector<MetricSpec>& specs, bool missing_is_zero);

 private:
  std::map<std::string, double> values_;
  int64_t failures_ = 0;
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
