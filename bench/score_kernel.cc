// Microbenchmark for the panel scoring kernel (tensor/score_kernel.h,
// DESIGN.md §12) at the serving shape of perfbench's serve workloads
// (100k items, dim 64): milliseconds to score the whole catalogue for a
// batch of 1, 2, 4 or 8 users (a lone user, one 2-user tile, one AVX2
// 4-user tile, the eval batch), for every kernel variant this CPU supports,
// against the one-user-at-a-time scalar loop over the row-major table.
// The kernel walks the panel table in 1024-item blocks (the serving
// default, RecommenderOptions::block_items) and scores each block for the
// whole batch, as Recommender::TopKBatch does.
//
// Each cell also re-verifies bit-identity against the scalar loop for every
// user of the batch; any divergence fails the run (exit 1), so the perf
// table can never drift from the contract the serving and eval paths rely
// on. A variant the CPU lacks is listed as skipped, never timed.
//
// Usage: build/bench/score_kernel

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "tensor/score_kernel.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

constexpr int64_t kNumItems = 100000;
constexpr int64_t kDim = 64;
constexpr int64_t kBlockItems = 1024;
constexpr int64_t kMaxBatch = 8;
constexpr int kReps = 21;

std::vector<float> MakeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = scale * static_cast<float>(static_cast<int64_t>(i) % 97 - 48);
  }
  return values;
}

double MedianMs(const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < kReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  const std::vector<float> users = MakeTable(kMaxBatch, kDim, 0.02f);
  const std::vector<float> items = MakeTable(kNumItems, kDim, -0.02f);
  std::vector<const float*> rows(kMaxBatch);
  for (int64_t u = 0; u < kMaxBatch; ++u) rows[u] = users.data() + u * kDim;
  const int64_t num_panels = imcat::NumPanels(kNumItems);
  std::vector<float> panels(
      static_cast<size_t>(num_panels * imcat::kPanelItems * kDim));
  imcat::PackPanels(items.data(), kNumItems, kDim, panels.data());

  // The scalar loop every score must reproduce bit for bit, and the
  // baseline: one user at a time, one chain per item, whole catalogue.
  std::vector<float> reference(static_cast<size_t>(kMaxBatch * kNumItems));
  auto scalar = [&](int64_t batch) {
    for (int64_t u = 0; u < batch; ++u) {
      for (int64_t i = 0; i < kNumItems; ++i) {
        const float* irow = items.data() + i * kDim;
        float acc = 0.0f;
        for (int64_t c = 0; c < kDim; ++c) acc += rows[u][c] * irow[c];
        reference[static_cast<size_t>(u * kNumItems + i)] = acc;
      }
    }
  };

  std::printf("catalogue %lld items x dim %lld, %lld-item blocks; "
              "ScorePanels runs \"%s\"\n\n",
              static_cast<long long>(kNumItems), static_cast<long long>(kDim),
              static_cast<long long>(kBlockItems),
              imcat::ActiveScoreKernel().name);
  imcat::TablePrinter table(
      {"variant", "batch users", "median ms", "M scores/sec", "vs scalar"});
  const int64_t block_panels = kBlockItems / imcat::kPanelItems;
  const int64_t stride = num_panels * imcat::kPanelItems;
  std::vector<float> out(static_cast<size_t>(kMaxBatch * stride));
  bool all_identical = true;
  for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
    const double scalar_ms = MedianMs([&] { scalar(batch); });
    const double scores = static_cast<double>(batch * kNumItems);
    for (const imcat::ScoreKernelVariant& variant :
         imcat::ScoreKernelVariants()) {
      if (!variant.supported()) {
        table.AddRow({variant.name, std::to_string(batch), "-", "-",
                      "skipped: CPU lacks it"});
        continue;
      }
      std::fill(out.begin(), out.end(), -1.0f);
      const double ms = MedianMs([&] {
        for (int64_t p = 0; p < num_panels; p += block_panels) {
          variant.fn(rows.data(), batch, panels.data(), p,
                     std::min(block_panels, num_panels - p), kDim,
                     out.data() + p * imcat::kPanelItems, stride);
        }
      });
      bool identical = true;
      for (int64_t u = 0; u < batch && identical; ++u) {
        identical = std::equal(
            reference.begin() + u * kNumItems,
            reference.begin() + (u + 1) * kNumItems, out.begin() + u * stride,
            [](float a, float b) {
              return std::memcmp(&a, &b, sizeof(float)) == 0;
            });
      }
      all_identical = all_identical && identical;
      table.AddRow({variant.name, std::to_string(batch),
                    imcat::FormatDouble(ms, 3),
                    imcat::FormatDouble(scores / ms / 1e3, 1),
                    identical ? imcat::FormatDouble(scalar_ms / ms, 2) + "x"
                              : "DIVERGED"});
    }
    table.AddRow({"scalar", std::to_string(batch),
                  imcat::FormatDouble(scalar_ms, 3),
                  imcat::FormatDouble(scores / scalar_ms / 1e3, 1), "1.00x"});
  }
  table.Print();
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: a kernel variant diverged from the scalar "
                         "loop\n");
    return 1;
  }
  return 0;
}
