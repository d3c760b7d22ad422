#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Quantile NearestRank(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, out.samples);
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  return out;
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5).value;
}

std::vector<double> WindowRates(const std::vector<double>& event_ms,
                                double begin_ms, double end_ms,
                                double window_ms) {
  const int64_t windows =
      static_cast<int64_t>(std::floor((end_ms - begin_ms) / window_ms));
  if (windows <= 0) return {};
  std::vector<int64_t> counts(static_cast<size_t>(windows), 0);
  for (double t : event_ms) {
    if (t < begin_ms) continue;
    const int64_t w = static_cast<int64_t>((t - begin_ms) / window_ms);
    if (w < windows) ++counts[static_cast<size_t>(w)];
  }
  std::vector<double> rates;
  rates.reserve(counts.size());
  for (int64_t c : counts) {
    rates.push_back(static_cast<double>(c) * 1000.0 / window_ms);
  }
  return rates;
}

std::vector<double> WindowQuantiles(const std::vector<double>& ordered,
                                    int64_t window, double q) {
  std::vector<double> out;
  if (window <= 0) return out;
  for (size_t begin = 0; begin + static_cast<size_t>(window) <= ordered.size();
       begin += static_cast<size_t>(window)) {
    out.push_back(NearestRank(std::vector<double>(ordered.begin() + begin,
                                                  ordered.begin() + begin + window),
                              q)
                      .value);
  }
  return out;
}

}  // namespace perfbench
