#ifndef IMCAT_TENSOR_SCORE_KERNEL_H_
#define IMCAT_TENSOR_SCORE_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

/// \file score_kernel.h
/// The one dense scoring kernel shared by the serving and offline-eval hot
/// paths and by training's NT GEMM (`ops::MatMulNT`; DESIGN.md §12).
/// Scoring U users against N items is a U x N slice of a matrix-matrix
/// product; doing it one user at a time streams the whole item-factor
/// table through cache once *per user*. The kernel instead walks the item
/// table in blocks and scores every user of the batch against the resident
/// block, so the table streams through cache once *per batch* — the same
/// cache-resident restructuring iALS++ applies to the solver side.
///
/// Item factors are stored as *panels*: item `i` lives in panel
/// `i / kPanelItems`, lane `i % kPanelItems`, and a panel holds `dim` rows
/// of kPanelItems floats (dimension-major). One panel row is one SIMD
/// vector whose lanes are 16 different items, so the kernel vectorises
/// across items, never across the factor dimension.
///
/// Bit-exactness contract: each (user, item) score is accumulated over the
/// factor dimension in ascending index order in plain fp32 — exactly the
/// loop EmbeddingSnapshot::Score and the scalar rankers run. A lane is one
/// item's own accumulator chain (`acc += u[c] * v[c]`, rounded after the
/// multiply and after the add), so vectorising, blocking and batching only
/// reorder which (user, item) pairs are computed when, never the
/// accumulation order within a pair: results are bit-identical to the
/// scalar path for any batch size, block size or kernel variant. No variant
/// may enable FMA (a fused multiply-add skips the product's rounding).

namespace imcat {

/// Items per panel: one 16-float vector per factor dimension.
inline constexpr int64_t kPanelItems = 16;

/// Default item-block tile: 1024 items x up to a few hundred fp32 dims
/// stays comfortably inside L2 next to the batch's score rows. Serving
/// overrides this through RecommenderOptions::block_items.
inline constexpr int64_t kDefaultScoreBlockItems = 1024;

/// Panels needed to hold `num_items` items (the tail panel zero-padded).
inline int64_t NumPanels(int64_t num_items) {
  return (num_items + kPanelItems - 1) / kPanelItems;
}

/// Offset of item `i`'s factor `c` in a panel table of dimension `dim`.
inline int64_t PanelOffset(int64_t i, int64_t c, int64_t dim) {
  return ((i / kPanelItems) * dim + c) * kPanelItems + i % kPanelItems;
}

/// Packs `num_items` row-major rows (`num_items x dim`) into
/// `NumPanels(num_items)` panels at `panels`; the tail panel's unused
/// lanes are zero.
void PackPanels(const float* rows, int64_t num_items, int64_t dim,
                float* panels);

/// Same, into `panels` resized to the packed size (its capacity is reused,
/// so repacking a table of the same shape allocates nothing).
void PackPanels(const float* rows, int64_t num_items, int64_t dim,
                std::vector<float>* panels);

/// Scores `num_users` users against `num_panels` panels starting at panel
/// `first_panel` of the panel table `panels`. `user_rows[u]` points at user
/// u's factor row (`dim` floats). Panel p's 16 scores land at
/// `out[u * out_stride + (p - first_panel) * kPanelItems + lane]`, so each
/// output row must hold `num_panels * kPanelItems` floats; tail-padding
/// lanes score 0.
using ScorePanelsFn = void (*)(const float* const* user_rows,
                               int64_t num_users, const float* panels,
                               int64_t first_panel, int64_t num_panels,
                               int64_t dim, float* out, int64_t out_stride);

/// One compiled form of the panel kernel. Every variant computes the same
/// bits; they differ only in the instructions the CPU must support.
struct ScoreKernelVariant {
  const char* name;
  bool (*supported)();
  ScorePanelsFn fn;
};

/// Every variant, most capable first ("avx2", then "portable", which runs
/// everywhere). Tests and benches iterate this to check each one.
std::span<const ScoreKernelVariant> ScoreKernelVariants();

/// The variant ScorePanels runs: the first supported entry of
/// ScoreKernelVariants(), chosen once per process.
const ScoreKernelVariant& ActiveScoreKernel();

/// The panel kernel (see ScorePanelsFn), dispatched to ActiveScoreKernel().
void ScorePanels(const float* const* user_rows, int64_t num_users,
                 const float* panels, int64_t first_panel, int64_t num_panels,
                 int64_t dim, float* out, int64_t out_stride);

/// Full-catalogue scoring from a panel table (`NumPanels(num_items)`
/// panels): ScorePanels over blocks of `block_items` items (rounded up to
/// whole panels), so each block stays cache-resident across the user
/// batch. Scores land at `out[u * out_stride + i]` (`out_stride` >=
/// num_items); columns past num_items are left untouched.
void ScorePanelsBlocked(const float* const* user_rows, int64_t num_users,
                        const float* panels, int64_t num_items, int64_t dim,
                        int64_t block_items, float* out, int64_t out_stride);

}  // namespace imcat

#endif  // IMCAT_TENSOR_SCORE_KERNEL_H_
