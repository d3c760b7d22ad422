#include "tensor/score_kernel.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/check.h"

namespace imcat {

namespace {

// GCC vector-extension types: one SSE register (the x86-64 baseline) and
// one AVX register. Loads and stores go through memcpy, so panels need no
// particular alignment.
typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));

// Panels prefetched ahead into L2. A panel at dim 64 is exactly one 4 KiB
// page, and the hardware streamer does not cross pages, so a batch-1 pass
// over a table that fell out of cache stalls at every panel without this.
// One prefetch per panel row keeps ~4 pages in flight; measured at 100k
// items x dim 64 on a 4-core Xeon after a 6 ms idle gap, it took a batch-1
// TopKBatch from ~3.7 ms to ~2.9 ms and left the cache-warm time unchanged.
constexpr int64_t kPrefetchPanels = 4;

// The panel kernel for `kUsers` users, instantiated per vector width and
// always inlined, so each variant below compiles it under its own target
// ISA. The kUsers x (16 / W) accumulators stay in registers, each panel-row
// load feeds every user of the tile, and every lane is one (user, item)
// pair's own ascending-dimension fp32 chain.
template <typename V, int kUsers>
[[gnu::always_inline]] inline void ScoreTile(const float* const* user_rows,
                                             const float* panels,
                                             int64_t num_panels, int64_t dim,
                                             float* out, int64_t out_stride) {
  constexpr int kWidth = sizeof(V) / sizeof(float);
  constexpr int kParts = kPanelItems / kWidth;
  const int64_t panel_floats = dim * kPanelItems;
  for (int64_t p = 0; p < num_panels; ++p) {
    const float* panel = panels + p * panel_floats;
    // The last few panels of the range re-touch themselves (harmless).
    const float* ahead =
        panel +
        (p + kPrefetchPanels < num_panels ? kPrefetchPanels : 0) * panel_floats;
    V acc[kUsers][kParts] = {};
    for (int64_t c = 0; c < dim; ++c) {
      __builtin_prefetch(ahead + c * kPanelItems, /*rw=*/0, /*locality=*/1);
#pragma GCC unroll 4
      for (int j = 0; j < kParts; ++j) {
        V v;
        std::memcpy(&v, panel + c * kPanelItems + j * kWidth, sizeof(V));
#pragma GCC unroll 4
        for (int r = 0; r < kUsers; ++r) acc[r][j] += user_rows[r][c] * v;
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < kUsers; ++r) {
#pragma GCC unroll 4
      for (int j = 0; j < kParts; ++j) {
        std::memcpy(out + r * out_stride + p * kPanelItems + j * kWidth,
                    &acc[r][j], sizeof(V));
      }
    }
  }
}

// Tiles users so that 8 accumulators are in flight: 8 / kParts users at a
// time (4 for an 8-lane vector, 11 of AVX2's 16 registers with the two
// panel-row loads and the broadcast; 2 for a 4-lane one, where 4 would
// spill), then 2, then 1. Eight independent add chains hide the add
// latency that a 4-chain tile waits on.
template <typename V>
[[gnu::always_inline]] inline void ScorePanelsBody(
    const float* const* user_rows, int64_t num_users, const float* panels,
    int64_t first_panel, int64_t num_panels, int64_t dim, float* out,
    int64_t out_stride) {
  constexpr int kTileUsers = 8 / (kPanelItems / (sizeof(V) / sizeof(float)));
  const float* first = panels + first_panel * dim * kPanelItems;
  int64_t u = 0;
  for (; u + kTileUsers <= num_users; u += kTileUsers) {
    ScoreTile<V, kTileUsers>(user_rows + u, first, num_panels, dim,
                             out + u * out_stride, out_stride);
  }
  if constexpr (kTileUsers > 2) {
    for (; u + 2 <= num_users; u += 2) {
      ScoreTile<V, 2>(user_rows + u, first, num_panels, dim,
                      out + u * out_stride, out_stride);
    }
  }
  if (u < num_users) {
    ScoreTile<V, 1>(user_rows + u, first, num_panels, dim,
                    out + u * out_stride, out_stride);
  }
}

void ScorePanelsPortable(const float* const* user_rows, int64_t num_users,
                         const float* panels, int64_t first_panel,
                         int64_t num_panels, int64_t dim, float* out,
                         int64_t out_stride) {
  ScorePanelsBody<Vec4>(user_rows, num_users, panels, first_panel,
                        num_panels, dim, out, out_stride);
}

// "avx2" and nothing more: adding "fma" (or "avx512f", which implies it)
// lets the default -ffp-contract=fast fuse `acc += x * v` into vfmadd, which
// skips the product's rounding and breaks bit-identity with the scalar loop.
__attribute__((target("avx2"))) void ScorePanelsAvx2(
    const float* const* user_rows, int64_t num_users, const float* panels,
    int64_t first_panel, int64_t num_panels, int64_t dim, float* out,
    int64_t out_stride) {
  ScorePanelsBody<Vec8>(user_rows, num_users, panels, first_panel,
                        num_panels, dim, out, out_stride);
}

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

bool Always() { return true; }

constexpr ScoreKernelVariant kVariants[] = {
    {"avx2", CpuHasAvx2, ScorePanelsAvx2},
    {"portable", Always, ScorePanelsPortable},
};

}  // namespace

void PackPanels(const float* rows, int64_t num_items, int64_t dim,
                float* panels) {
  for (int64_t p = 0; p < NumPanels(num_items); ++p) {
    float* panel = panels + p * dim * kPanelItems;
    const int64_t lanes = std::min(kPanelItems, num_items - p * kPanelItems);
    if (lanes < kPanelItems) std::fill_n(panel, dim * kPanelItems, 0.0f);
    for (int64_t lane = 0; lane < lanes; ++lane) {
      const float* row = rows + (p * kPanelItems + lane) * dim;
      for (int64_t c = 0; c < dim; ++c) panel[c * kPanelItems + lane] = row[c];
    }
  }
}

void PackPanels(const float* rows, int64_t num_items, int64_t dim,
                std::vector<float>* panels) {
  panels->resize(static_cast<size_t>(NumPanels(num_items) * kPanelItems * dim));
  PackPanels(rows, num_items, dim, panels->data());
}

std::span<const ScoreKernelVariant> ScoreKernelVariants() { return kVariants; }

const ScoreKernelVariant& ActiveScoreKernel() {
  static const ScoreKernelVariant& chosen = []() -> const ScoreKernelVariant& {
    for (const ScoreKernelVariant& variant : kVariants) {
      if (variant.supported()) return variant;
    }
    return kVariants[std::size(kVariants) - 1];
  }();
  return chosen;
}

void ScorePanels(const float* const* user_rows, int64_t num_users,
                 const float* panels, int64_t first_panel, int64_t num_panels,
                 int64_t dim, float* out, int64_t out_stride) {
  IMCAT_CHECK(out_stride >= num_panels * kPanelItems);
  ActiveScoreKernel().fn(user_rows, num_users, panels, first_panel, num_panels,
                         dim, out, out_stride);
}

void ScorePanelsBlocked(const float* const* user_rows, int64_t num_users,
                        const float* panels, int64_t num_items, int64_t dim,
                        int64_t block_items, float* out, int64_t out_stride) {
  IMCAT_CHECK(block_items > 0);
  IMCAT_CHECK(out_stride >= num_items);
  // Whole panels write straight into the output rows; the zero-padded
  // tail panel goes through a one-panel scratch so no row is overrun.
  const int64_t full_panels = num_items / kPanelItems;
  const int64_t block_panels = NumPanels(block_items);
  for (int64_t p = 0; p < full_panels; p += block_panels) {
    ScorePanels(user_rows, num_users, panels, p,
                std::min(block_panels, full_panels - p), dim,
                out + p * kPanelItems, out_stride);
  }
  const int64_t tail = num_items - full_panels * kPanelItems;
  if (tail == 0) return;
  std::vector<float> scratch(static_cast<size_t>(num_users * kPanelItems));
  ScorePanels(user_rows, num_users, panels, full_panels, 1, dim,
              scratch.data(), kPanelItems);
  for (int64_t u = 0; u < num_users; ++u) {
    std::copy_n(scratch.data() + u * kPanelItems, tail,
                out + u * out_stride + full_panels * kPanelItems);
  }
}

}  // namespace imcat
