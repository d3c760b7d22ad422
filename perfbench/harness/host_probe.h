#ifndef PERFBENCH_HARNESS_HOST_PROBE_H_
#define PERFBENCH_HARNESS_HOST_PROBE_H_

#include <vector>

/// \file host_probe.h
/// A fixed compute kernel owned by the benchmark, timed next to the work it
/// measures. The host's speed changes with other tenants' load, in phases
/// that last from seconds to minutes, and a slow phase slows the probe
/// nearly as much as the workload. So the workloads report each timing
/// scaled to a host on which the probe takes kNominalProbeMs. The probe
/// runs no library code, so a change to the library moves the scaled
/// timings and leaves the probe alone.

namespace perfbench {

/// The unit the scaled timings are expressed against: about the probe's
/// median on a shared 4-core x86-64 VM, where it read 0.47-0.79 ms. Any
/// fixed value would do; this one keeps scaled figures near wall-clock ones.
constexpr double kNominalProbeMs = 0.7;

class HostProbe {
 public:
  HostProbe();

  /// Runs the kernel once (4 queries scored against a 4096 x 64 fp32
  /// table) and returns its wall time in ms.
  double Run();

  /// Median wall time of `n` runs.
  double Burst(int n);

 private:
  std::vector<float> table_, queries_;
  volatile float sink_ = 0.0f;
};

/// `ms`, measured while the probe took `probe_ms`, scaled to a host on
/// which it takes kNominalProbeMs.
inline double AtNominal(double ms, double probe_ms) {
  return ms * kNominalProbeMs / probe_ms;
}

/// One probe run, and when it started.
struct ProbeSample {
  double at_ms = 0.0;
  double probe_ms = 0.0;
};

/// Median probe time among the samples that started in [begin_ms, end_ms),
/// or over all samples if none did (0 if there are none).
double ProbeMsIn(const std::vector<ProbeSample>& samples, double begin_ms,
                 double end_ms);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_PROBE_H_
