#include "common/kmv.h"

#include <algorithm>

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

void KmvSketch::AddHash(uint64_t hash) {
  if (heap_.size() < k_) {
    if (Contains(hash)) return;
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
