#ifndef IMCAT_UTIL_RNG_H_
#define IMCAT_UTIL_RNG_H_

#include <cstdint>
#include <vector>

/// \file rng.h
/// Deterministic, fast pseudo-random number generation used everywhere in
/// the library (data generation, parameter initialisation, negative
/// sampling). Xoshiro256** seeded via SplitMix64, which gives reproducible
/// runs across platforms independent of the standard library's
/// implementation-defined distributions.

namespace imcat {

/// The complete serialisable state of an Rng: the four xoshiro256** words
/// plus the Box-Muller normal cache. Capturing and restoring it resumes
/// the stream bit-identically (used by training checkpoints).
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool have_cached_normal = false;
  double cached_normal = 0.0;
};

/// A deterministic 64-bit PRNG (xoshiro256**). Copyable; copies evolve
/// independently.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Snapshots the full generator state for checkpointing.
  RngState GetState() const;

  /// Restores a previously captured state; the stream continues exactly
  /// where GetState() left it.
  void SetState(const RngState& state);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to `weights`. Requires at least one strictly positive weight. O(n) per
  /// draw; a vector drawn from many times belongs in a CategoricalTable.
  int64_t Categorical(const std::vector<double>& weights);

  /// Samples from a symmetric Dirichlet(alpha) of dimension `dim` into
  /// `out` (resized to dim).
  void Dirichlet(double alpha, int dim, std::vector<double>* out);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Draws from Gamma(shape, 1). Requires shape > 0.
  double Gamma(double shape);

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// A fixed categorical distribution indexed once for O(log n) draws.
/// Sample(rng) returns exactly what rng->Categorical(weights) would and
/// consumes the same single Uniform(), so swapping one for the other keeps
/// every downstream stream bit-identical. It binary-searches the inclusive
/// prefix sums and falls back to Categorical's subtract-scan when the draw
/// lies within the rounding error of a prefix boundary.
class CategoricalTable {
 public:
  /// Requires non-negative weights with a strictly positive total.
  explicit CategoricalTable(std::vector<double> weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight.
  int64_t Sample(Rng* rng) const;

  int64_t size() const { return static_cast<int64_t>(weights_.size()); }

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  ///< prefix_[i] = w[0] + ... + w[i], in order.
  double margin_ = 0.0;         ///< Rounding guard around each boundary.
};

}  // namespace imcat

#endif  // IMCAT_UTIL_RNG_H_
