#ifndef BLUSIM_COMMON_KMV_H_
#define BLUSIM_COMMON_KMV_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blusim {

// K-Minimum-Values distinct-count sketch (paper section 4, reference [2]).
//
// The BLU runtime feeds every hashed grouping key through this sketch while
// the HASH evaluator runs; the resulting estimate of the number of groups is
// used to size the GPU hash table (instead of sizing it to the number of
// input rows, which would waste scarce device memory).
//
// Estimator: with the k smallest hash values observed and h_k the k-th
// smallest (normalized to [0,1]), distinct ~= (k - 1) / h_k.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k = 256);

  // Adds one already-hashed value (use Mix64/Murmur3_64 upstream).
  void AddHash(uint64_t hash);
  // Adds `n` hashes, with the result of AddHash on each in turn. A full
  // heap's common rejections (a hash at or above the root, or one already
  // kept) run inline, without a call per hash.
  void AddHashes(const uint64_t* hashes, size_t n);

  // Merges another sketch (same k) into this one. Used when parallel
  // evaluator threads each maintain a local sketch.
  void Merge(const KmvSketch& other);

  // Estimated number of distinct values seen. Exact while fewer than k
  // distinct hashes have been observed. When every hash came from one
  // HashPartition range of `hash_partitions` (a power of two), the shared
  // top bits are dropped first: the hashes are uniform only below them.
  uint64_t Estimate(uint32_t hash_partitions = 1) const;

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  // The kept hashes (the k smallest distinct ones seen), in heap order.
  const std::vector<uint64_t>& kept_hashes() const { return heap_; }

 private:
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  size_t HomeSlot(uint64_t hash) const;
  // True when `hash` is in the kept set (the index exists once any nonzero
  // hash was added).
  bool Kept(uint64_t hash) const;
  // Adds `hash` to the kept set's index; false if it was already there.
  bool InsertKept(uint64_t hash);
  // Removes `hash`, which the index holds, from it.
  void EraseKept(uint64_t hash);

  size_t k_;
  // Max-heap of the k smallest hash values (root = largest of the kept set).
  std::vector<uint64_t> heap_;
  // Membership of the kept set: an open-addressing index over exactly the
  // hashes in heap_ (0 = empty slot, a zero hash is flagged apart), so a
  // repeated hash costs O(1) whether the heap is filling or full. Keys with
  // between k and a few thousand distinct values send most rows below the
  // root of a full heap, where a scan of the heap would run for each.
  std::vector<uint64_t> kept_index_;
  int index_shift_ = 64;
  bool kept_zero_ = false;
};

}  // namespace blusim

#endif  // BLUSIM_COMMON_KMV_H_
