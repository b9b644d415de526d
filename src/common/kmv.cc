#include "common/kmv.h"

#include <algorithm>
#include <bit>

#include "common/bit_util.h"

namespace blusim {

KmvSketch::KmvSketch(size_t k) : k_(k == 0 ? 1 : k) {
  heap_.reserve(k_);
}

bool KmvSketch::Contains(uint64_t hash) const {
  return std::find(heap_.begin(), heap_.end(), hash) != heap_.end();
}

void KmvSketch::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (heap_[parent] >= heap_[i]) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

void KmvSketch::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t left = 2 * i + 1;
    size_t right = left + 1;
    size_t largest = i;
    if (left < n && heap_[left] > heap_[largest]) largest = left;
    if (right < n && heap_[right] > heap_[largest]) largest = right;
    if (largest == i) break;
    std::swap(heap_[i], heap_[largest]);
    i = largest;
  }
}

bool KmvSketch::InsertKept(uint64_t hash) {
  if (hash == 0) {
    const bool added = !kept_zero_;
    kept_zero_ = true;
    return added;
  }
  if (kept_index_.empty()) kept_index_.assign(NextPow2(2 * k_), 0);
  const size_t mask = kept_index_.size() - 1;
  // Multiplicative slot choice: mixes every hash bit into the slot, so
  // hashes that agree in their low bits still spread.
  const int shift = 64 - std::countr_zero(kept_index_.size());
  size_t i = static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift);
  for (;; i = (i + 1) & mask) {
    if (kept_index_[i] == hash) return false;
    if (kept_index_[i] == 0) {
      kept_index_[i] = hash;
      return true;
    }
  }
}

void KmvSketch::AddHash(uint64_t hash) {
  if (heap_.size() < k_) {
    if (!InsertKept(hash)) return;
    heap_.push_back(hash);
    SiftUp(heap_.size() - 1);
    return;
  }
  // Full: only hashes smaller than the current k-th minimum matter.
  if (hash >= heap_[0] || Contains(hash)) return;
  heap_[0] = hash;
  SiftDown(0);
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.heap_) AddHash(h);
}

uint64_t KmvSketch::Estimate(uint32_t hash_partitions) const {
  if (heap_.size() < k_) {
    return heap_.size();  // exact below k distinct values
  }
  int shift = 0;
  for (uint32_t p = hash_partitions; p > 1; p >>= 1) ++shift;
  // Normalize the k-th smallest hash, below the partition bits, to (0, 1].
  const double hk = static_cast<double>(heap_[0] << shift) /
                    18446744073709551616.0;  // 2^64
  if (hk <= 0.0) return heap_.size();
  const double est = (static_cast<double>(k_) - 1.0) / hk;
  return static_cast<uint64_t>(est);
}

}  // namespace blusim
