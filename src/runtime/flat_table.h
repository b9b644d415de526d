#ifndef BLUSIM_RUNTIME_FLAT_TABLE_H_
#define BLUSIM_RUNTIME_FLAT_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "runtime/group_result.h"
#include "runtime/groupby_plan.h"

namespace blusim::runtime {

// Flat open-addressing aggregation table for the CPU group-by chain: the
// host-side analogue of the device hash table (groupby/layout.h), sharing
// its capacity policy (HashTableCapacity) and its inline fixed-width
// accumulator idea.
//
// Layout is a sparse slot index over dense group arrays:
//
//   slot index (capacity, power of two):  [ hash ][ group id | kNoGroup ]
//   dense groups (one entry per group):   keys_/rep_rows_/hashes_ plus a
//                                         flat accs_ array holding
//                                         num_slots AccValues per group
//
// A probe walks the contiguous slot index with linear probing on the low
// hash bits; full 64-bit hashes are compared before keys, so key equality
// runs at most once per genuine duplicate. Inserting appends to the dense
// arrays — no per-group heap allocation (the per-group accumulator vector
// it replaces). Growing doubles the slot index and reinserts from the stored
// per-group hashes; the dense arrays never move per-group data.
//
// Key is the packed uint64 grouping key or WideKey. Not thread-safe: each
// morsel worker / merge shard owns a private table.
template <typename Key>
class FlatAggTable {
 public:
  static constexpr uint32_t kNoGroup = ~0U;

  FlatAggTable(const GroupByPlan* plan, uint64_t expected_groups)
      : plan_(plan), num_slots_(plan->slots().size()) {
    const uint64_t cap = HashTableCapacity(expected_groups);
    slot_hash_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    mask_ = cap - 1;
    // The dense arrays are written once per group: reserving them for the
    // estimate spares each one its doubling copies (and, past the
    // allocator's mmap threshold, a fresh mapping per doubling). An eighth
    // of headroom covers a KMV estimate's few percent of error, which would
    // otherwise double every array of a table at its last groups.
    const uint64_t reserve = expected_groups + expected_groups / 8;
    keys_.reserve(reserve);
    rep_rows_.reserve(reserve);
    hashes_.reserve(reserve);
    accs_.reserve(reserve * num_slots_);
  }

  // Finds the group for (key, hash), inserting a freshly initialized group
  // (identity accumulators, `rep_row` as representative) when absent.
  // Returns the dense group index.
  uint32_t FindOrInsert(const Key& key, uint64_t hash, uint32_t rep_row) {
    if ((keys_.size() + 1) * 4 > slot_group_.size() * 3) Grow();
    uint64_t i = hash & mask_;
    while (slot_group_[i] != kNoGroup) {
      if (slot_hash_[i] == hash && keys_[slot_group_[i]] == key) {
        return slot_group_[i];
      }
      i = (i + 1) & mask_;
    }
    const uint32_t g = static_cast<uint32_t>(keys_.size());
    slot_hash_[i] = hash;
    slot_group_[i] = g;
    keys_.push_back(key);
    rep_rows_.push_back(rep_row);
    hashes_.push_back(hash);
    accs_.resize(accs_.size() + num_slots_);
    AccValue* accs = &accs_[static_cast<size_t>(g) * num_slots_];
    for (size_t s = 0; s < num_slots_; ++s) {
      InitAcc(plan_->slots()[s], &accs[s]);
    }
    return g;
  }

  uint32_t num_groups() const { return static_cast<uint32_t>(keys_.size()); }
  size_t num_slots() const { return num_slots_; }
  uint64_t capacity() const { return slot_group_.size(); }
  // How many times the slot index doubled (grow-and-rehash events).
  uint64_t rehash_count() const { return rehashes_; }

  const Key& group_key(uint32_t g) const { return keys_[g]; }
  uint64_t group_hash(uint32_t g) const { return hashes_[g]; }
  uint32_t group_rep_row(uint32_t g) const { return rep_rows_[g]; }
  AccValue* group_accs(uint32_t g) {
    return &accs_[static_cast<size_t>(g) * num_slots_];
  }
  const AccValue* group_accs(uint32_t g) const {
    return &accs_[static_cast<size_t>(g) * num_slots_];
  }

  const std::vector<uint32_t>& rep_rows() const { return rep_rows_; }
  const std::vector<AccValue>& accs() const { return accs_; }
  // The accumulator array; an insert may move it.
  AccValue* mutable_accs() { return accs_.data(); }

  // Moves the groups out as a FlatGroups (no copy); the table is spent.
  FlatGroups TakeGroups() && {
    FlatGroups out;
    out.rep_rows = std::move(rep_rows_);
    out.accs = std::move(accs_);
    return out;
  }

 private:
  void Grow() {
    const uint64_t cap = slot_group_.size() * 2;
    slot_hash_.assign(cap, 0);
    slot_group_.assign(cap, kNoGroup);
    mask_ = cap - 1;
    for (uint32_t g = 0; g < keys_.size(); ++g) {
      uint64_t i = hashes_[g] & mask_;
      while (slot_group_[i] != kNoGroup) i = (i + 1) & mask_;
      slot_hash_[i] = hashes_[g];
      slot_group_[i] = g;
    }
    ++rehashes_;
  }

  const GroupByPlan* plan_;
  size_t num_slots_;
  uint64_t mask_ = 0;
  std::vector<uint64_t> slot_hash_;
  std::vector<uint32_t> slot_group_;
  std::vector<Key> keys_;
  std::vector<uint32_t> rep_rows_;
  std::vector<uint64_t> hashes_;
  std::vector<AccValue> accs_;
  uint64_t rehashes_ = 0;
};

extern template class FlatAggTable<uint64_t>;
extern template class FlatAggTable<WideKey>;

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_FLAT_TABLE_H_
