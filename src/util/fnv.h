#ifndef MDMATCH_UTIL_FNV_H_
#define MDMATCH_UTIL_FNV_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace mdmatch {

/// FNV-1a 64-bit, the one hash family the codebase fingerprints with:
/// plan-file checksums (api/plan_io), session delta fingerprints
/// (api/session) and treap priorities (candidate/sorted_index,
/// candidate/block_index) all fold bytes through these constants — one
/// definition keeps their behavior in lockstep.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Folds one byte into an FNV-1a state.
inline uint64_t FnvMixByte(uint64_t hash, unsigned char byte) {
  hash ^= byte;
  hash *= kFnvPrime;
  return hash;
}

/// Folds a string's bytes into an FNV-1a state.
inline uint64_t FnvMixString(uint64_t hash, const std::string& s) {
  for (unsigned char c : s) hash = FnvMixByte(hash, c);
  return hash;
}

/// Folds a 64-bit value into an FNV-1a state, little-endian byte order.
inline uint64_t FnvMixU64(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash = FnvMixByte(hash, static_cast<unsigned char>(value >> (8 * b)));
  }
  return hash;
}

/// splitmix64 finalizer: turns a structured 64-bit value (an FNV state, a
/// packed id) into a well-mixed one. Used where hash *quality* matters —
/// treap priorities.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace mdmatch

#endif  // MDMATCH_UTIL_FNV_H_
