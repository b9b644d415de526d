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

// How a CpuGroupBy execution grouped its rows (CpuGroupBy::ExecuteToFlat).
enum class CpuGroupByStrategy : uint8_t {
  kLocal,      // per-morsel local tables + merge shards
  kPartition,  // hash-partition sweep, then one final table per partition
};

const char* CpuGroupByStrategyName(CpuGroupByStrategy strategy);

// Observability counters for one CpuGroupBy execution (used by tests and
// the hot-path benchmark to assert which strategy and merge actually ran).
struct CpuGroupByStats {
  CpuGroupByStrategy strategy = CpuGroupByStrategy::kLocal;
  // Hash partitions the partition-first sweep scattered the rows into, and
  // how many of them received at least one row (1 and 1 for kLocal).
  uint32_t partitions = 0;
  uint32_t nonempty_partitions = 0;
  // Merge shards used in phase 2 (1 = serial merge, no partitioning), and
  // how many of them received at least one group (0 for kPartition, which
  // has no merge).
  uint32_t merge_shards = 0;
  uint32_t nonempty_merge_shards = 0;
  // Sum of the group counts of the tables the rows were aggregated into:
  // per-morsel local tables (kLocal) or per-partition tables (kPartition,
  // whose groups are final, so this is the result's group count).
  uint64_t partial_groups = 0;
  // Grow-and-rehash events in those tables (the estimate undersized them).
  uint64_t local_rehashes = 0;
  // Grow-and-rehash events in the shard merge tables.
  uint64_t merge_rehashes = 0;
  // Keys the execution hashed: the group-count estimate's pass (when the
  // caller had no estimate), the partition sweep and the HASH evaluator.
  // The partition-first sweep hands its hashes to the chain, so with an
  // estimate either strategy hashes each selected row's key once.
  uint64_t key_hashes = 0;
};

// The original DB2 BLU CPU group-by chain (paper figure 1): parallel
// threads run LCOG/LCOV -> CCAT -> HASH -> LGHT (local flat open-addressing
// tables with AGGD/SUM/CNT applied inline). One group-count estimate, the
// caller's, picks how the rows reach those tables (ChooseStrategy) and
// sizes every table; a low estimate costs grow-and-rehash events, never a
// different result:
//
// - kLocal: each morsel aggregates into its own table, then the local
//   results are merged in two lock-free phases: each worker scatters its
//   groups into merge shards by the top bits of the key hash, and a second
//   ParallelFor merges each shard independently. Right when a morsel's
//   table shrinks its rows (low and mid cardinality).
// - kPartition: when nearly every key of a morsel would be distinct, local
//   tables would copy each group twice more for nothing. One sweep scatters
//   the row ids and their key hashes into cache-sized hash partitions
//   (runtime::PartitionRows), and each partition runs the chain (reusing
//   those hashes) into one table whose groups are final; the tables are
//   the result's pieces, in partition order.
//
// Within a table, LGHT and AGGD run by group id: a block of rows is looked
// up first (FindOrInsert fills the block's group ids), then each slot
// aggregates the whole block in one typed loop (AccumulateSlot), and the
// shard merge likewise (MergeSlot).
//
// Either way the result is deterministic run-to-run, serial or parallel.
// Only first-error tracking shares a mutex.
class CpuGroupBy {
 public:
  // The chain, then every group materialized (MaterializeGroups).
  // `selection`: optional filtered/joined row-id list; nullptr = all rows.
  // `estimated_groups`: the optimizer's group-count estimate for the
  // selection; 0 = the caller has none, and the chain counts the keys
  // itself first (runtime::CountDistinctKeys, the router's estimator).
  static Result<GroupByOutput> Execute(
      const GroupByPlan& plan, ThreadPool* pool,
      const std::vector<uint32_t>* selection = nullptr,
      uint64_t estimated_groups = 0, CpuGroupByStats* stats = nullptr);

  // Same chain, but stops before materialization and hands back the
  // groups as the result's pieces (merge shards or partitions, in order).
  // Safe to call from several threads at once (ParallelFor supports
  // concurrent callers); the partitioned group-by runs one call per
  // CPU-side partition, with the partition's share of its estimate.
  // `hash_partitions` > 1 says the selection is one HashPartition range of
  // that many: its key hashes share their top bits, so the merge shards
  // and partitions (and an estimate of its own) use the bits below them.
  static Result<GroupPieces> ExecuteToFlat(
      const GroupByPlan& plan, ThreadPool* pool,
      const std::vector<uint32_t>* selection, uint32_t hash_partitions,
      uint64_t estimated_groups, CpuGroupByStats* stats = nullptr);

  // The strategy for `rows` input rows holding `groups` keys: partition
  // first when a uniform sample of one morsel's rows is expected to hold
  // more than kPartitionMinDistinctPerRow distinct keys per row, over more
  // than one morsel (a lone morsel has no merge to skip).
  static CpuGroupByStrategy ChooseStrategy(uint64_t rows, uint64_t groups);

  // Morsel size used by the parallel chain.
  static constexpr uint64_t kMorselRows = 65536;
  // Upper bound on merge shards; enough to keep a large pool busy without
  // making tiny queries pay per-shard setup.
  static constexpr uint32_t kMaxMergeShards = 64;
  // Partition-first strategy: taken when a morsel's local table would hold
  // more than this many groups per row. 65536 groups over many more rows
  // read about 0.63 and stay local.
  static constexpr double kPartitionMinDistinctPerRow = 0.8;
  // Rows per partition the sweep aims for: a partition's stride buffers and
  // its table (about 200 bytes a group at five aggregates) stay within a
  // core's L2. The partition count is the power of two that reaches it,
  // capped like the partitioned group-by's fan-out.
  static constexpr uint64_t kPartitionRows = 8192;
  static constexpr uint32_t kMaxPartitions = 1024;
};

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_CPU_GROUPBY_H_
