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

// A group-by's result before materialization: its groups as pieces that
// are disjoint in group space (the merge shards or partitions of the CPU
// chain, the device readback, the partitions of a partitioned run), in
// output order. Group position p counts over the pieces in order; the
// pieces are never concatenated.
using GroupPieces = std::vector<FlatGroups>;

uint64_t NumGroups(const GroupPieces& groups);

// Initializes an accumulator to the slot's identity (mask) value.
void InitAcc(const AggSlot& slot, AccValue* acc);

// AGGD/SUM/CNT by group id: applies payload rows begin .. begin+n-1 of
// `pv` to slot `s` of groups gids[0..n) in `accs` (num_slots accumulators
// per group), in row order. The slot's function, type and NULL handling
// are dispatched once per call, not once per row.
void AccumulateSlot(const AggSlot& slot, const PayloadVector& pv,
                    size_t begin, size_t n, const uint32_t* gids, size_t s,
                    size_t num_slots, AccValue* accs);

// The merge by group id: merges slot `s` of source groups from_gids[0..n)
// in `from` into destination groups into_gids[0..n) in `into` (both
// num_slots accumulators per group), in order; one dispatch per call.
void MergeSlot(const AggSlot& slot, size_t n, const uint32_t* from_gids,
               const AccValue* from, const uint32_t* into_gids, size_t s,
               size_t num_slots, AccValue* into);

// The one-row forms of the two calls above: the oracles the tests and the
// benchmark baseline check them against.
void AccumulateRow(const AggSlot& slot, const PayloadVector& pv, size_t i,
                   AccValue* acc);
void MergeAcc(const AggSlot& slot, const AccValue& from, AccValue* into);

// The one materializer of group results: the result table of the groups
// at `positions` (group positions over the pieces, in that order; nullptr
// = every group in output order), one column per grouping key (values read
// from each group's representative row of `plan.table()`) followed by one
// column per user aggregate (AVG finalized as SUM/COUNT). `columns` picks
// and orders result columns by index (empty = all). The table is filled a
// column at a time with typed gathers; with a pool, a large result fills
// its columns, and its aggregate columns' segments, in parallel.
Result<std::shared_ptr<columnar::Table>> MaterializeGroups(
    const GroupByPlan& plan, const GroupPieces& groups,
    ThreadPool* pool = nullptr,
    const std::vector<uint32_t>* positions = nullptr,
    const std::vector<int>& columns = {});

// A group-by's result as a table, CPU or device path alike: the
// whole-result form of the GroupPieces the engine keeps lazy.
struct GroupByOutput {
  std::shared_ptr<columnar::Table> table;
  uint64_t num_groups = 0;
};

// Every group of `groups`, materialized (MaterializeGroups).
Result<GroupByOutput> MaterializeOutput(const GroupByPlan& plan,
                                        const GroupPieces& groups,
                                        ThreadPool* pool = nullptr);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_GROUP_RESULT_H_
