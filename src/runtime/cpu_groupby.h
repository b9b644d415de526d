#ifndef BLUSIM_RUNTIME_CPU_GROUPBY_H_
#define BLUSIM_RUNTIME_CPU_GROUPBY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/group_result.h"
#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Output of a group-by execution, CPU or GPU path alike.
struct GroupByOutput {
  std::shared_ptr<columnar::Table> table;
  uint64_t num_groups = 0;
  // KMV estimate observed during the HASH stage (what the GPU path would
  // have sized its hash table with).
  uint64_t kmv_estimate = 0;
};

// Observability counters for one CpuGroupBy execution (used by tests and
// the hot-path benchmark to assert the partitioned merge actually ran).
struct CpuGroupByStats {
  // Merge shards used in phase 2 (1 = serial merge, no partitioning), and
  // how many of them received at least one group.
  uint32_t merge_shards = 0;
  uint32_t nonempty_merge_shards = 0;
  // Sum of per-morsel local group counts fed into the merge.
  uint64_t partial_groups = 0;
  // Grow-and-rehash events in the LGHT local tables (KMV undersized them).
  uint64_t local_rehashes = 0;
  // Grow-and-rehash events in the shard merge tables.
  uint64_t merge_rehashes = 0;
};

// The original DB2 BLU CPU group-by chain (paper figure 1):
// parallel threads run LCOG/LCOV -> CCAT -> HASH -> LGHT (local flat
// open-addressing tables with AGGD/SUM/CNT applied inline), then the local
// results are merged in two lock-free phases: each worker scatters its
// groups into merge shards by the top bits of the key hash, and a second
// ParallelFor merges each shard independently. Only KMV merging and
// first-error tracking share a mutex.
class CpuGroupBy {
 public:
  // `selection`: optional filtered/joined row-id list; nullptr = all rows.
  static Result<GroupByOutput> Execute(
      const GroupByPlan& plan, ThreadPool* pool,
      const std::vector<uint32_t>* selection = nullptr,
      CpuGroupByStats* stats = nullptr);

  // Same chain, but stops before materialization and hands back the flat
  // groups. Safe to call from several threads at once (ParallelFor supports
  // concurrent callers); the partitioned group-by runs one call per
  // CPU-side partition. `hash_partitions` > 1 says the selection is one
  // HashPartition range of that many: its key hashes share their top bits,
  // so the KMV estimates and the merge shards use the bits below them.
  static Result<FlatGroups> ExecuteToFlat(
      const GroupByPlan& plan, ThreadPool* pool,
      const std::vector<uint32_t>* selection, uint32_t hash_partitions,
      CpuGroupByStats* stats = nullptr);

  // Morsel size used by the parallel chain.
  static constexpr uint64_t kMorselRows = 65536;
  // Upper bound on merge shards; enough to keep a large pool busy without
  // making tiny queries pay per-shard setup.
  static constexpr uint32_t kMaxMergeShards = 64;
};

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_CPU_GROUPBY_H_
