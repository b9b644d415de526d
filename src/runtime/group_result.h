#ifndef BLUSIM_RUNTIME_GROUP_RESULT_H_
#define BLUSIM_RUNTIME_GROUP_RESULT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/groupby_plan.h"
#include "runtime/stride.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// One accumulator value; the active member is the slot's acc_type.
struct AccValue {
  int64_t i64 = 0;
  double f64 = 0.0;
  columnar::Decimal128 dec;
};

// Finished groups in flat structure-of-arrays form, the one result shape
// of every group-by path (CPU chain, device readback, partitioned merge):
// group i has representative input row `rep_rows[i]` (for key
// materialization) and accumulators `accs[i * num_slots + s]`, one per plan
// slot. No per-group heap allocation.
struct FlatGroups {
  std::vector<uint32_t> rep_rows;
  std::vector<AccValue> accs;  // num_groups() x plan.slots().size()

  uint64_t num_groups() const { return rep_rows.size(); }
};

// Initializes an accumulator to the slot's identity (mask) value.
void InitAcc(const AggSlot& slot, AccValue* acc);

// Applies row i of `pv` to the accumulator (AGGD/SUM/CNT evaluators).
void AccumulateRow(const AggSlot& slot, const PayloadVector& pv, size_t i,
                   AccValue* acc);

// Merges a partial accumulator into `into` (local -> global table merge).
void MergeAcc(const AggSlot& slot, const AccValue& from, AccValue* into);

// Materializes the final result table: one column per grouping key (values
// read from each group's representative row of `plan.table()`) followed by
// one column per user aggregate (AVG finalized as SUM/COUNT).
Result<std::shared_ptr<columnar::Table>> MaterializeGroupsFlat(
    const GroupByPlan& plan, const FlatGroups& groups);

// Same over several group sets that are disjoint in group space (the
// partitions or merge shards of one result), in order, without first
// concatenating them. With a pool, a large result fills its columns in
// parallel.
Result<std::shared_ptr<columnar::Table>> MaterializeGroupsFlat(
    const GroupByPlan& plan, const std::vector<FlatGroups>& pieces,
    ThreadPool* pool = nullptr);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_GROUP_RESULT_H_
