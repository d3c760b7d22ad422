#ifndef IMCAT_UTIL_CHECKSUM_H_
#define IMCAT_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

/// \file checksum.h
/// The one FNV-1a implementation shared by every durable format in the
/// repo: the checkpoint writer/loader (tensor/checkpoint.cc) and the
/// sharded snapshot and delta formats' per-shard + manifest checksums
/// (serve/shard_format.cc). A single
/// definition keeps the on-disk formats mutually verifiable and makes the
/// constants impossible to fork accidentally.
///
/// FNV-1a (64-bit) is not cryptographic; it exists to catch flipped bits,
/// torn writes and truncation, which is exactly the corruption model the
/// FaultInjector exercises.

namespace imcat {

/// Incremental 64-bit FNV-1a over byte ranges.
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001B3ULL;

  void Update(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= kPrime;
    }
  }

  uint64_t value() const { return hash_; }

  /// Restarts the running hash (equivalent to a fresh instance).
  void Reset() { hash_ = kOffsetBasis; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

/// One-shot convenience over a single contiguous buffer.
inline uint64_t Fnv1aHash(const void* data, size_t size) {
  Fnv1a hash;
  hash.Update(data, size);
  return hash.value();
}

}  // namespace imcat

#endif  // IMCAT_UTIL_CHECKSUM_H_
