#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured phases.
  bool trace = false;
  std::string work_dir;   ///< Scratch space for snapshot files and traces.
};

/// L-IMCAT training rounds (set-up, Trainer::Fit, test-set Evaluate).
void RunTrainLimcat(const RunConfig& config, Report* report);

/// The serving workloads: reads only (`with_writes` false) or reads while a
/// writer folds in and publishes deltas through a snapshot store.
void RunServe(const RunConfig& config, bool with_writes, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
