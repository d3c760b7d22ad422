#include "harness/host_probe.h"

#include <cstdint>

#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {
namespace {

// A 1 MiB table of 4096 rows x 64 fp32, scored against kQueries query rows
// with plain dot products, like a brute-force top-k over an item block. The
// table lives in L2, as the workloads' hot data does; a probe whose data
// fits in L1 slowed by up to 2.6x in phases that left the workloads alone.
constexpr int kRows = 4096;
constexpr int kDim = 64;
constexpr int kQueries = 4;

}  // namespace

HostProbe::HostProbe() : table_(kRows * kDim), queries_(kQueries * kDim) {
  uint64_t x = 88172645463325252ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<float>(x % 1000) * 1e-3f - 0.5f;
  };
  for (float& v : table_) v = next();
  for (float& v : queries_) v = next();
}

double HostProbe::Run() {
  const double start = NowMs();
  float best = 0.0f;
  for (int q = 0; q < kQueries; ++q) {
    const float* query = queries_.data() + q * kDim;
    for (int r = 0; r < kRows; ++r) {
      const float* row = table_.data() + r * kDim;
      float s = 0.0f;
      for (int d = 0; d < kDim; ++d) s += query[d] * row[d];
      best = s > best ? s : best;
    }
  }
  sink_ = sink_ + best;
  return NowMs() - start;
}

double HostProbe::Burst(int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) ms.push_back(Run());
  return Median(ms);
}

double ProbeMsIn(const std::vector<ProbeSample>& samples, double begin_ms,
                 double end_ms) {
  std::vector<double> in, all;
  for (const ProbeSample& s : samples) {
    all.push_back(s.probe_ms);
    if (s.at_ms >= begin_ms && s.at_ms < end_ms) in.push_back(s.probe_ms);
  }
  return Median(in.empty() ? all : in);
}

}  // namespace perfbench
