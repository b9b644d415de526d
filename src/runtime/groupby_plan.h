#ifndef BLUSIM_RUNTIME_GROUPBY_PLAN_H_
#define BLUSIM_RUNTIME_GROUPBY_PLAN_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/agg.h"
#include "runtime/operators.h"

namespace blusim::runtime {

// User-facing description of a group-by/aggregation over one table.
struct GroupBySpec {
  std::vector<int> key_columns;
  std::vector<AggregateDesc> aggregates;
};

// Fixed-capacity concatenated grouping key for the wide (> 64 bit) path.
// Comparison is bytewise; the hash is Murmur over the used bytes
// (section 4.3.1: Murmur hashing for keys larger than 64 bit).
struct WideKey {
  static constexpr int kCapacity = 32;
  uint8_t bytes[kCapacity] = {0};
  uint8_t len = 0;

  friend bool operator==(const WideKey& a, const WideKey& b) {
    return a.len == b.len && std::memcmp(a.bytes, b.bytes, a.len) == 0;
  }
};

// One internal accumulator slot. AVG is decomposed into SUM + COUNT slots
// at planning time and finalized at materialization.
struct AggSlot {
  AggFn fn = AggFn::kCount;              // kSum/kCount/kMin/kMax only
  int input_column = -1;                 // -1 for COUNT(*)
  columnar::DataType input_type = columnar::DataType::kInt64;
  columnar::DataType acc_type = columnar::DataType::kInt64;
  int slot_bytes = 8;
  bool lock_required = false;  // no device atomic for this slot's type
};

// Maps one user aggregate to its internal slot(s).
struct OutputAgg {
  AggregateDesc desc;
  int slot = -1;        // primary slot
  int count_slot = -1;  // second slot for AVG
};

// Compiled group-by: resolved columns, key packing strategy, internal
// accumulator slots. Shared by the CPU chain (figure 1), the GPU chain
// (figure 2) and the device hash-table layout.
class GroupByPlan {
 public:
  static Result<GroupByPlan> Make(const columnar::Table& table,
                                  const GroupBySpec& spec);

  const columnar::Table& table() const { return *table_; }
  const GroupBySpec& spec() const { return spec_; }

  // Key packing. `wide_key()` is true when the concatenated key exceeds
  // 64 bits and the kernels must use the lock-based insert path.
  bool wide_key() const { return wide_key_; }
  int key_bits() const { return key_bits_; }
  int key_bytes() const { return wide_key_ ? wide_key_bytes_ : 8; }

  // Per-key-column component bit widths (for packing) and pre-computed
  // dictionary codes for string key columns (code vector per key column;
  // empty when the column is not a string).
  const std::vector<int>& component_bits() const { return component_bits_; }
  const std::vector<std::vector<int32_t>>& string_codes() const {
    return string_codes_;
  }

  const std::vector<AggSlot>& slots() const { return slots_; }
  const std::vector<OutputAgg>& outputs() const { return outputs_; }

  // True if any slot (or a wide key) forces the device lock path.
  bool needs_locks() const;

  // Total payload bytes per input row shipped to the device (sum of the
  // slots' input value widths), for transfer costing.
  int payload_bytes_per_row() const;

  // Scan predicates carried into the staging sweep (data-path fusion):
  // when non-empty, the fused StageForDevice evaluates them during the
  // pinned-buffer copy and never stages failing rows. The unfused path
  // ignores them (the engine runs FilterScan up front instead). Column
  // indices must be pre-validated (ValidatePredicates).
  void set_stage_filter(std::vector<Predicate> filter) {
    stage_filter_ = std::move(filter);
  }
  const std::vector<Predicate>& stage_filter() const { return stage_filter_; }

  // --- The key kernel (LCOG + CCAT, column-at-a-time) ---
  // Each call reads a batch of input rows -- the row ids range.begin ..
  // range.end-1 when `rows` is nullptr, else rows[range.begin..range.end)
  // -- one key column at a time, and writes one entry per input row to
  // out[0..range.size()).
  // Packs the narrow grouping keys; valid only when !wide_key().
  void PackKeys(const uint32_t* rows, MorselRange range, uint64_t* out) const;
  // Fills the wide keys; valid only when wide_key().
  void FillWideKeys(const uint32_t* rows, MorselRange range,
                    WideKey* out) const;
  // 64-bit key hashes: Mix64 over a packed key, Murmur3 over a wide key's
  // used bytes (section 4.3.1). What the HASH evaluator, the group-count
  // sketches and the partition sweep hash.
  void HashKeys(const uint32_t* rows, MorselRange range, uint64_t* out) const;

  // Row `row` through the kernel above, one row per call.
  uint64_t PackKey(size_t row) const;
  void FillWideKey(size_t row, WideKey* out) const;
  uint64_t KeyHash(size_t row) const;

 private:
  const columnar::Table* table_ = nullptr;
  GroupBySpec spec_;
  bool wide_key_ = false;
  int key_bits_ = 0;
  int wide_key_bytes_ = 0;
  std::vector<int> component_bits_;
  std::vector<Predicate> stage_filter_;
  std::vector<std::vector<int32_t>> string_codes_;
  std::vector<AggSlot> slots_;
  std::vector<OutputAgg> outputs_;
};

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_GROUPBY_PLAN_H_
