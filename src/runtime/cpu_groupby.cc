#include "runtime/cpu_groupby.h"

#include <algorithm>
#include <memory>

#include "common/annotations.h"
#include "common/bit_util.h"
#include "common/hash.h"
#include "runtime/evaluators.h"
#include "runtime/flat_table.h"
#include "runtime/group_result.h"
#include "runtime/partition_sweep.h"

namespace blusim::runtime {

namespace {

// Small mutex: KMV merge and first-error tracking only. Group aggregation
// and merging never take it.
struct SharedScanState {
  common::Mutex mu{"runtime.CpuGroupBy.scan_mu", common::LockRank::kRuntime};
  KmvSketch global_kmv GUARDED_BY(mu) = KmvSketch(256);
  Status first_error GUARDED_BY(mu);

  void Fail(const Status& st) {
    common::MutexLock lock(&mu);
    if (first_error.ok()) first_error = st;
  }
  void MergeKmv(const KmvSketch& kmv) {
    common::MutexLock lock(&mu);
    global_kmv.Merge(kmv);
  }
  // Call after the workers' barrier: the first error, else the merged KMV
  // estimate of a selection that is one HashPartition range of
  // `hash_partitions`.
  Result<uint64_t> Finish(uint32_t hash_partitions) {
    common::MutexLock lock(&mu);
    BLUSIM_RETURN_NOT_OK(first_error);
    return global_kmv.Estimate(hash_partitions);
  }
};

// A table size for one processed stride: its KMV estimate (the same signal
// the GPU path sizes its device table with, section 4.2), clamped by its
// row count. Its key hashes share the top bits of `hash_partitions`.
uint64_t ExpectedGroups(const Stride& stride, uint32_t hash_partitions) {
  return std::min<uint64_t>(
      stride.num_rows(),
      std::max<uint64_t>(stride.kmv.Estimate(hash_partitions), 16));
}

// LGHT + AGGD/SUM/CNT: groups a processed stride's rows into `table`, with
// the aggregates applied inline.
template <typename Key, typename GetKey>
void AggregateStride(const GroupByPlan& plan, const Stride& stride,
                     GetKey get_key, FlatAggTable<Key>* table) {
  const size_t num_slots = plan.slots().size();
  const uint64_t n = stride.num_rows();
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t g = table->FindOrInsert(get_key(stride, i),
                                           stride.hashes[i],
                                           stride.InputRow(i));
    AccValue* accs = table->group_accs(g);
    for (size_t s = 0; s < num_slots; ++s) {
      AccumulateRow(plan.slots()[s], stride.payloads[s], i, &accs[s]);
    }
  }
}

// The groups of one execution as pieces that are disjoint in group space
// (one per merge shard or partition), in output order: appending them is
// the whole merge.
struct GroupPieces {
  std::vector<FlatGroups> pieces;
  uint64_t kmv_estimate = 0;
};

// Moves each table's groups out as one piece, in order.
template <typename Key>
std::vector<FlatGroups> TakePieces(
    std::vector<std::unique_ptr<FlatAggTable<Key>>>* tables) {
  std::vector<FlatGroups> pieces;
  pieces.reserve(tables->size());
  for (auto& t : *tables) {
    if (t != nullptr) pieces.push_back(std::move(*t).TakeGroups());
  }
  return pieces;
}

// Per-morsel LGHT result: the worker's private flat table plus its group
// ids scattered into per-shard lists (by the top bits of each group's
// hash) for the second merge phase.
template <typename Key>
struct MorselPartial {
  MorselPartial(const GroupByPlan* plan, uint64_t expected_groups,
                uint32_t shards)
      : table(plan, expected_groups), shard_groups(shards) {}

  FlatAggTable<Key> table;
  std::vector<std::vector<uint32_t>> shard_groups;
};

// The local strategy: per-morsel tables, then a per-shard merge.
template <typename Key, typename GetKey>
Result<GroupPieces> RunLocal(const GroupByPlan& plan, ThreadPool* pool,
                            const std::vector<uint32_t>* selection,
                            uint32_t hash_partitions, GetKey get_key,
                            CpuGroupByStats* stats) {
  const uint64_t total_rows =
      selection ? selection->size() : plan.table().num_rows();
  const uint64_t num_morsels =
      NumMorsels(total_rows, CpuGroupBy::kMorselRows);

  GroupByChain chain(&plan);
  const size_t num_slots = plan.slots().size();

  // Merge shards for phase 2: enough to keep every worker busy (workers =
  // pool threads + the calling thread), capped so small queries don't pay
  // per-shard setup. Power of two so HashPartition can use top hash bits --
  // the ones below the bits a hash-partitioned selection shares, which
  // multiplying by the (power-of-two) partition count shifts out.
  uint32_t shards = 1;
  if (pool != nullptr && num_morsels > 1) {
    shards = static_cast<uint32_t>(std::min<uint64_t>(
        CpuGroupBy::kMaxMergeShards,
        NextPow2(static_cast<uint64_t>(pool->num_threads()) + 1)));
  }

  SharedScanState shared;

  std::vector<std::unique_ptr<MorselPartial<Key>>> partials(num_morsels);

  auto process_morsel = [&](uint64_t m) {
    Stride stride;
    stride.range = GetMorsel(total_rows, CpuGroupBy::kMorselRows, m);
    stride.selection = selection;
    Status st = chain.ProcessStride(&stride);
    if (!st.ok()) {
      shared.Fail(st);
      return;
    }

    // LGHT: local grouping, sized from this stride's KMV estimate; the
    // table grows-and-rehashes if the estimate was low.
    auto partial = std::make_unique<MorselPartial<Key>>(
        &plan, ExpectedGroups(stride, hash_partitions), shards);
    FlatAggTable<Key>& local = partial->table;
    AggregateStride(plan, stride, get_key, &local);

    // Scatter this morsel's groups into merge shards (a lone morsel's
    // table is the result as it stands).
    if (num_morsels > 1) {
      for (uint32_t g = 0; g < local.num_groups(); ++g) {
        const uint32_t p =
            HashPartition(local.group_hash(g) * hash_partitions, shards);
        partial->shard_groups[p].push_back(g);
      }
    }
    partials[m] = std::move(partial);
    shared.MergeKmv(stride.kmv);
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process_morsel(m);
  }
  // ParallelFor is a barrier: every worker is done.
  BLUSIM_ASSIGN_OR_RETURN(const uint64_t kmv_estimate,
                          shared.Finish(hash_partitions));

  if (stats != nullptr) {
    stats->partitions = 1;
    stats->nonempty_partitions = total_rows > 0;
    stats->merge_shards = shards;
    for (const auto& partial : partials) {
      stats->partial_groups += partial->table.num_groups();
      stats->local_rehashes += partial->table.rehash_count();
    }
  }

  GroupPieces out;
  out.kmv_estimate = kmv_estimate;

  // Single morsel: its local table already is the global result.
  if (num_morsels == 1) {
    FlatAggTable<Key>& only = partials[0]->table;
    if (stats != nullptr) stats->nonempty_merge_shards = only.num_groups() > 0;
    out.pieces.push_back(std::move(only).TakeGroups());
    return out;
  }

  // Phase 2: merge each shard independently — no shared lock. Morsels are
  // visited in index order, so merge order (and float summation order) is
  // deterministic run-to-run, unlike the old completion-order global merge.
  std::vector<std::unique_ptr<FlatAggTable<Key>>> shard_tables(shards);
  auto merge_shard = [&](uint64_t p) {
    uint64_t shard_sum = 0;
    uint64_t largest = 0;
    for (const auto& partial : partials) {
      const uint64_t c = partial->shard_groups[p].size();
      shard_sum += c;
      largest = std::max(largest, c);
    }
    // Size from the global KMV estimate split across shards, never below
    // the largest single contribution, and never above the exact count of
    // partial entries this shard will see (which caps degenerate KMV
    // estimates — e.g. adversarially sequential hash values).
    auto table = std::make_unique<FlatAggTable<Key>>(
        &plan, std::min(shard_sum,
                        std::max<uint64_t>(kmv_estimate / shards, largest)));
    for (const auto& partial : partials) {
      const FlatAggTable<Key>& src = partial->table;
      for (uint32_t g : partial->shard_groups[p]) {
        const uint32_t dst = table->FindOrInsert(
            src.group_key(g), src.group_hash(g), src.group_rep_row(g));
        const AccValue* from = src.group_accs(g);
        AccValue* into = table->group_accs(dst);
        for (size_t s = 0; s < num_slots; ++s) {
          MergeAcc(plan.slots()[s], from[s], &into[s]);
        }
      }
    }
    shard_tables[p] = std::move(table);
  };

  if (pool != nullptr && shards > 1) {
    pool->ParallelFor(shards, merge_shard);
  } else {
    for (uint32_t p = 0; p < shards; ++p) merge_shard(p);
  }

  if (stats != nullptr) {
    for (const auto& t : shard_tables) {
      stats->merge_rehashes += t->rehash_count();
      stats->nonempty_merge_shards += t->num_groups() > 0;
    }
  }
  out.pieces = TakePieces(&shard_tables);
  return out;
}

// The partition-first strategy: one sweep scatters the row ids into
// `num_partitions` hash partitions, and each partition runs the chain into
// one table. Equal keys share a partition, so its groups are final: no
// local duplicate, no merge. The tables are the pieces, in partition
// order, and each partition's rows stay in selection order, so the result
// (float sums included) does not depend on the thread count.
template <typename Key, typename GetKey>
Result<GroupPieces> RunPartitionFirst(const GroupByPlan& plan,
                                     ThreadPool* pool,
                                     const std::vector<uint32_t>* selection,
                                     uint32_t hash_partitions,
                                     uint32_t num_partitions, GetKey get_key,
                                     CpuGroupByStats* stats) {
  const std::vector<std::vector<uint32_t>> partitions = PartitionRows(
      plan, pool, selection, hash_partitions, num_partitions);
  // A partition's key hashes share the top bits of both fan-outs.
  const uint32_t range_partitions = hash_partitions * num_partitions;

  GroupByChain chain(&plan);
  SharedScanState shared;
  std::vector<std::unique_ptr<FlatAggTable<Key>>> tables(num_partitions);
  auto process_partition = [&](uint64_t p) {
    const std::vector<uint32_t>& rows = partitions[p];
    if (rows.empty()) return;
    Stride stride;
    stride.range = MorselRange{0, rows.size()};
    stride.selection = &rows;
    Status st = chain.ProcessStride(&stride);
    if (!st.ok()) {
      shared.Fail(st);
      return;
    }
    auto table = std::make_unique<FlatAggTable<Key>>(
        &plan, ExpectedGroups(stride, range_partitions));
    AggregateStride(plan, stride, get_key, table.get());
    tables[p] = std::move(table);
    shared.MergeKmv(stride.kmv);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_partitions, process_partition);
  } else {
    for (uint32_t p = 0; p < num_partitions; ++p) process_partition(p);
  }

  GroupPieces out;
  BLUSIM_ASSIGN_OR_RETURN(out.kmv_estimate, shared.Finish(hash_partitions));
  if (stats != nullptr) {
    stats->strategy = CpuGroupByStrategy::kPartition;
    stats->partitions = num_partitions;
    for (const auto& t : tables) {
      if (t == nullptr) continue;
      ++stats->nonempty_partitions;
      stats->partial_groups += t->num_groups();
      stats->local_rehashes += t->rehash_count();
    }
  }
  out.pieces = TakePieces(&tables);
  return out;
}

// Picks the strategy from a strided sample of the keys: partition first
// when a morsel's local table would hold nearly one group per row. A
// one-morsel input has no merge to skip and stays local.
template <typename Key, typename GetKey>
Result<GroupPieces> Run(const GroupByPlan& plan, ThreadPool* pool,
                        const std::vector<uint32_t>* selection,
                        uint32_t hash_partitions, GetKey get_key,
                        CpuGroupByStats* stats) {
  const uint64_t total_rows =
      selection ? selection->size() : plan.table().num_rows();
  if (NumMorsels(total_rows, CpuGroupBy::kMorselRows) > 1 &&
      SampleKeys(plan, selection, hash_partitions).DistinctPerRow() >
          CpuGroupBy::kPartitionMinDistinctPerRow) {
    const auto num_partitions = static_cast<uint32_t>(std::min<uint64_t>(
        CpuGroupBy::kMaxPartitions,
        NextPow2(CeilDiv(total_rows, CpuGroupBy::kPartitionRows))));
    return RunPartitionFirst<Key>(plan, pool, selection, hash_partitions,
                                  num_partitions, get_key, stats);
  }
  return RunLocal<Key>(plan, pool, selection, hash_partitions, get_key,
                       stats);
}

// Runs the chain for the plan's key shape.
Result<GroupPieces> RunChain(const GroupByPlan& plan, ThreadPool* pool,
                             const std::vector<uint32_t>* selection,
                             uint32_t hash_partitions,
                             CpuGroupByStats* stats) {
  if (plan.wide_key()) {
    return Run<WideKey>(
        plan, pool, selection, hash_partitions,
        [](const Stride& s, uint64_t i) -> const WideKey& {
          return s.wide_keys[i];
        },
        stats);
  }
  return Run<uint64_t>(
      plan, pool, selection, hash_partitions,
      [](const Stride& s, uint64_t i) { return s.packed_keys[i]; }, stats);
}

}  // namespace

const char* CpuGroupByStrategyName(CpuGroupByStrategy strategy) {
  switch (strategy) {
    case CpuGroupByStrategy::kLocal: return "local";
    case CpuGroupByStrategy::kPartition: return "partition";
  }
  return "?";
}

Result<FlatGroups> CpuGroupBy::ExecuteToFlat(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    CpuGroupByStats* stats) {
  BLUSIM_ASSIGN_OR_RETURN(
      GroupPieces groups,
      RunChain(plan, pool, selection, hash_partitions, stats));
  FlatGroups out;
  if (groups.pieces.size() == 1) out = std::move(groups.pieces.front());
  out.kmv_estimate = groups.kmv_estimate;
  if (groups.pieces.size() <= 1) return out;
  uint64_t total_groups = 0;
  for (const FlatGroups& piece : groups.pieces) {
    total_groups += piece.num_groups();
  }
  out.rep_rows.reserve(total_groups);
  out.accs.reserve(total_groups * plan.slots().size());
  for (const FlatGroups& piece : groups.pieces) {
    out.rep_rows.insert(out.rep_rows.end(), piece.rep_rows.begin(),
                        piece.rep_rows.end());
    out.accs.insert(out.accs.end(), piece.accs.begin(), piece.accs.end());
  }
  return out;
}

Result<GroupByOutput> CpuGroupBy::Execute(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, CpuGroupByStats* stats) {
  // The pieces are materialized as they stand: no concatenated copy.
  BLUSIM_ASSIGN_OR_RETURN(
      GroupPieces groups,
      RunChain(plan, pool, selection, /*hash_partitions=*/1, stats));
  GroupByOutput out;
  for (const FlatGroups& piece : groups.pieces) {
    out.num_groups += piece.num_groups();
  }
  out.kmv_estimate = groups.kmv_estimate;
  BLUSIM_ASSIGN_OR_RETURN(out.table,
                          MaterializeGroupsFlat(plan, groups.pieces, pool));
  return out;
}

}  // namespace blusim::runtime
