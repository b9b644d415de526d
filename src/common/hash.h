#ifndef BLUSIM_COMMON_HASH_H_
#define BLUSIM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace blusim {

// MurmurHash3 x64 128-bit finalizer-based 64-bit hash over an arbitrary byte
// range. The paper uses Murmur hashing for grouping keys wider than 64 bits
// (section 4.3.1).
uint64_t Murmur3_64(const void* data, size_t len, uint64_t seed = 0);

// 64-bit integer mix (Murmur3 fmix64). Used as the "simple hash function"
// the HASH evaluator applies to narrow (<= 64-bit) grouping keys before the
// KMV estimator consumes the hashed values.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// Mod-hash for keys <= 64 bit (section 4.3.1: "For keys smaller than 64 bit
// we use a mod hash function"). `buckets` must be > 0.
// The device group-by tables apply it to the finalized key,
// ModHash(Mix64(key), capacity), not to the raw packed key: CCAT packing
// puts the last key column in the low bits, so on a power-of-two table the
// raw residue keeps only that column and a multi-column key whose last
// column has few values fills a few runs of buckets that linear probing
// then walks.
inline uint64_t ModHash(uint64_t key, uint64_t buckets) {
  return key % buckets;
}

// Capacity policy shared by the device hash table (groupby/layout) and the
// CPU flat aggregation table: "slightly larger than the estimated number of
// groups" (section 4.3.1) with 1.5x headroom so the linear-probe load factor
// stays under ~0.67 when the KMV estimate is mildly low. Power of two,
// minimum 64.
// Degenerate KMV estimates (e.g. adversarially sequential hash values) can
// be astronomically large; callers should clamp by a row-count bound, and
// this guard keeps the capacity allocatable regardless.
inline uint64_t HashTableCapacity(uint64_t estimated_groups) {
  constexpr uint64_t kMaxCapacity = 1ULL << 40;
  const uint64_t want = estimated_groups + estimated_groups / 2 + 8;
  uint64_t cap = 64;
  while (cap < want && cap < kMaxCapacity) cap <<= 1;
  return cap;
}

// Partition index for a hashed key, taken from the TOP bits of the hash.
// Open-addressing tables probe with the LOW bits of the same hash (the
// device tables' ModHash(Mix64(key), capacity), the CPU flat table's
// hash & (capacity - 1)), so a top-bit partition keeps shard choice
// independent of probe position.
// `num_partitions` must be a power of two.
inline uint32_t HashPartition(uint64_t hash, uint32_t num_partitions) {
  if (num_partitions <= 1) return 0;
  uint32_t shift = 64;
  for (uint32_t p = num_partitions; p > 1; p >>= 1) --shift;
  return static_cast<uint32_t>(hash >> shift);
}

}  // namespace blusim

#endif  // BLUSIM_COMMON_HASH_H_
