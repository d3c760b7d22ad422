#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace imcat {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Sums non-negative weights in index order; the sum must be positive.
double CheckedTotal(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    IMCAT_CHECK_GE(w, 0.0);
    total += w;
  }
  IMCAT_CHECK_GT(total, 0.0);
  return total;
}

/// The categorical draw's definition: subtracts weights in index order from
/// `x` in [0, total) and returns the first index that takes it below zero,
/// or the last index when rounding leaves a remainder.
int64_t SubtractScan(const std::vector<double>& weights, double x) {
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

RngState Rng::GetState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.have_cached_normal = have_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  have_cached_normal_ = state.have_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t n) {
  IMCAT_CHECK_GT(n, 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x = NextUint64();
  while (x >= limit) x = NextUint64();
  return static_cast<int64_t>(x % un);
}

double Rng::Uniform() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int64_t Rng::Categorical(const std::vector<double>& weights) {
  const double total = CheckedTotal(weights);
  return SubtractScan(weights, Uniform() * total);
}

double Rng::Gamma(double shape) {
  IMCAT_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Johnk-style boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u > 1e-300 ? u : 1e-300, 1.0 / shape);
  }
  // Marsaglia-Tsang method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

void Rng::Dirichlet(double alpha, int dim, std::vector<double>* out) {
  IMCAT_CHECK_GT(dim, 0);
  out->resize(dim);
  double total = 0.0;
  for (int i = 0; i < dim; ++i) {
    (*out)[i] = Gamma(alpha);
    total += (*out)[i];
  }
  if (total <= 0.0) {
    for (int i = 0; i < dim; ++i) (*out)[i] = 1.0 / dim;
    return;
  }
  for (int i = 0; i < dim; ++i) (*out)[i] /= total;
}

CategoricalTable::CategoricalTable(std::vector<double> weights)
    : weights_(std::move(weights)) {
  CheckedTotal(weights_);
  prefix_.resize(weights_.size());
  double sum = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    sum += weights_[i];
    prefix_[i] = sum;
  }
  // Let u = 2^-53 and n = size(). Every partial sum lies in [0, total], so
  // prefix_[i] is within n*u*total of the exact S_{i+1} = w[0] + ... + w[i].
  // The scan's remainders stay in [-total, total], so each is within
  // n*u*total of the exact x - S_{i+1}. A draw more than 2n*u*total inside
  // both ends of its bucket [prefix_[k-1], prefix_[k]) thus gets the same
  // sign from every remainder test the scan makes, and the scan returns k.
  // The margin is twice that plus slack, which also covers the rounding of
  // the guard comparisons themselves (at most u*total each).
  const double n = static_cast<double>(weights_.size());
  margin_ = 4.0 * (n + 2.0) * 0x1.0p-53 * prefix_.back();
}

int64_t CategoricalTable::Sample(Rng* rng) const {
  const double x = rng->Uniform() * prefix_.back();
  const int64_t k =
      std::upper_bound(prefix_.begin(), prefix_.end(), x) - prefix_.begin();
  if (k < size() && x < prefix_[k] - margin_ &&
      (k == 0 || x >= prefix_[k - 1] + margin_)) {
    return k;
  }
  return SubtractScan(weights_, x);
}

}  // namespace imcat
