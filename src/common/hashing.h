// Hash functions used by the hash index, the reservation station, and the
// DRAM load dispatcher.
//
// All hashing in the store derives from one 64-bit key hash so the different
// consumers (bucket index, 9-bit secondary hash, reservation-station slot,
// cacheability decision) use independent bit ranges of the same digest.
#ifndef SRC_COMMON_HASHING_H_
#define SRC_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace kvd {

// Strong 64-bit mix (splitmix64 finalizer). Invertible, so distinct inputs
// stay distinct — used for key scrambling as well as hashing fixed ints.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// 64-bit hash of arbitrary bytes (xxHash-style avalanche over 8-byte lanes).
uint64_t HashBytes(std::span<const uint8_t> data, uint64_t seed = 0);

// Convenience overload for string-ish keys.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = 0);

// The KV processor splits the key digest into fields (paper §3.3.1, §3.3.3):
//   bucket index   — low bits, modulo the bucket count
//   secondary hash — 9 bits compared in parallel during inline slot checking
//   station slot   — 10 bits indexing the 1024-entry reservation station
struct KeyHash {
  uint64_t digest;

  uint64_t BucketIndex(uint64_t num_buckets) const { return digest % num_buckets; }
  uint16_t SecondaryHash() const {
    return static_cast<uint16_t>((digest >> 48) & 0x1ff);  // 9 bits
  }
  uint16_t StationSlot() const {
    return static_cast<uint16_t>((digest >> 32) & 0x3ff);  // 10 bits
  }
};

inline KeyHash HashKey(std::span<const uint8_t> key) {
  return KeyHash{HashBytes(key)};
}

// Hasher for containers keyed by owned key bytes.
struct KeyBytesHash {
  size_t operator()(const std::vector<uint8_t>& key) const { return HashBytes(key); }
};

// Address hash deciding DRAM cacheability (paper §3.3.4): the dispatcher
// caches 64-byte lines whose address hash falls below the dispatch ratio.
// A multiplicative hash of the line number gives every line (hash bucket or
// slab alike) an equal chance of being cacheable.
constexpr uint64_t AddressLineHash(uint64_t address) {
  return Mix64(address / 64);
}

}  // namespace kvd

#endif  // SRC_COMMON_HASHING_H_
