#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it.
struct Quantile {
  double value = 0.0;
  int64_t samples = 0;  ///< Values the percentile was taken over.
  int64_t beyond = 0;   ///< Values strictly ranked after it.
};

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `q` (in (0, 1]) of the samples are <= it. Empty input gives all zeros.
Quantile NearestRank(std::vector<double> samples, double q);

/// Nearest-rank median (0 for empty input).
double Median(std::vector<double> samples);

/// Counts `event_ms` timestamps in consecutive whole windows of
/// `window_ms` starting at `begin_ms` and ending no later than `end_ms`,
/// and returns each window's rate in events per second. A trailing partial
/// window is dropped.
std::vector<double> WindowRates(const std::vector<double>& event_ms,
                                double begin_ms, double end_ms,
                                double window_ms);

/// Splits `ordered` into consecutive windows of `window` values (a trailing
/// partial window is dropped) and returns each window's nearest-rank
/// percentile `q`.
std::vector<double> WindowQuantiles(const std::vector<double>& ordered,
                                    int64_t window, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
