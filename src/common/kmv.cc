#include "common/kmv.h"

#include <bit>
#include <utility>

#include "common/bit_util.h"

namespace blusim {

KmvSketch::KmvSketch(size_t k) : k_(k == 0 ? 1 : k) {
  heap_.reserve(k_);
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

size_t KmvSketch::HomeSlot(uint64_t hash) const {
  // Multiplicative slot choice: mixes every hash bit into the slot, so
  // hashes that agree in their low bits still spread.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

bool KmvSketch::InsertKept(uint64_t hash) {
  if (hash == 0) {
    const bool added = !kept_zero_;
    kept_zero_ = true;
    return added;
  }
  if (kept_index_.empty()) {
    kept_index_.assign(NextPow2(4 * k_), 0);
    index_shift_ = 64 - std::countr_zero(kept_index_.size());
  }
  const size_t mask = kept_index_.size() - 1;
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    if (kept_index_[i] == hash) return false;
    if (kept_index_[i] == 0) {
      kept_index_[i] = hash;
      return true;
    }
  }
}

void KmvSketch::EraseKept(uint64_t hash) {
  if (hash == 0) {
    kept_zero_ = false;
    return;
  }
  const size_t mask = kept_index_.size() - 1;
  size_t hole = HomeSlot(hash);
  while (kept_index_[hole] != hash) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole whenever their home slot does not lie between the hole and them,
  // so the index never needs tombstones and every lookup stays a short run.
  for (size_t j = (hole + 1) & mask; kept_index_[j] != 0; j = (j + 1) & mask) {
    const size_t home = HomeSlot(kept_index_[j]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      kept_index_[hole] = kept_index_[j];
      hole = j;
    }
  }
  kept_index_[hole] = 0;
}

bool KmvSketch::Kept(uint64_t hash) const {
  if (hash == 0) return kept_zero_;
  const size_t mask = kept_index_.size() - 1;
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    if (kept_index_[i] == hash) return true;
    if (kept_index_[i] == 0) return false;
  }
}

void KmvSketch::AddHash(uint64_t hash) {
  if (heap_.size() < k_) {
    if (!InsertKept(hash)) return;
    heap_.push_back(hash);
    SiftUp(heap_.size() - 1);
    return;
  }
  // Full: only hashes smaller than the current k-th minimum matter. The
  // index follows the heap: the new hash enters, the evicted root leaves.
  if (hash >= heap_[0] || !InsertKept(hash)) return;
  EraseKept(heap_[0]);
  heap_[0] = hash;
  SiftDown(0);
}

void KmvSketch::AddHashes(const uint64_t* hashes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = hashes[i];
    // Once the heap is full, most hashes are at or above the root or
    // already kept: rejected here by a compare and a lookup, with no call.
    if (heap_.size() == k_ && (hash >= heap_[0] || Kept(hash))) continue;
    AddHash(hash);
  }
}

void KmvSketch::Merge(const KmvSketch& other) {
  AddHashes(other.heap_.data(), other.heap_.size());
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
