#include "runtime/cpu_groupby.h"

#include <algorithm>
#include <cmath>
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

// Small mutex: first-error tracking only. Group aggregation and merging
// never take it.
struct SharedScanState {
  common::Mutex mu{"runtime.CpuGroupBy.scan_mu", common::LockRank::kRuntime};
  Status first_error GUARDED_BY(mu);

  void Fail(const Status& st) {
    common::MutexLock lock(&mu);
    if (first_error.ok()) first_error = st;
  }
  // Call after the workers' barrier.
  Status Finish() {
    common::MutexLock lock(&mu);
    return first_error;
  }
};

// Expected distinct keys among `sample` rows drawn uniformly from `rows`
// rows that hold `groups` equally frequent keys: a key's rows / groups
// copies all miss the sample with probability (1 - sample/rows)^(rows /
// groups).
double ExpectedDistinct(uint64_t groups, uint64_t rows, uint64_t sample) {
  if (groups == 0 || rows == 0) return 0.0;
  const double g = static_cast<double>(groups);
  const double n = static_cast<double>(rows);
  const double f = std::min(1.0, static_cast<double>(sample) / n);
  return -g * std::expm1(n / g * std::log1p(-f));
}

// A table size for `rows` input rows expected to hold `groups` groups.
uint64_t TableSize(double groups, uint64_t rows) {
  return std::min<uint64_t>(
      rows, std::max<uint64_t>(16, static_cast<uint64_t>(std::ceil(groups))));
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
using GroupPieces = std::vector<FlatGroups>;

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
// `groups` is the selection's group-count estimate.
template <typename Key, typename GetKey>
Result<GroupPieces> RunLocal(const GroupByPlan& plan, ThreadPool* pool,
                            const std::vector<uint32_t>* selection,
                            uint32_t hash_partitions, uint64_t groups,
                            GetKey get_key, CpuGroupByStats* stats) {
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

    // LGHT: local grouping, sized for the groups a morsel of this many
    // rows is expected to hold; the table grows-and-rehashes if the
    // estimate was low.
    const uint64_t rows = stride.num_rows();
    auto partial = std::make_unique<MorselPartial<Key>>(
        &plan, TableSize(ExpectedDistinct(groups, total_rows, rows), rows),
        shards);
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
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process_morsel(m);
  }
  // ParallelFor is a barrier: every worker is done.
  BLUSIM_RETURN_NOT_OK(shared.Finish());

  if (stats != nullptr) {
    stats->partitions = 1;
    stats->nonempty_partitions = total_rows > 0;
    stats->merge_shards = shards;
    for (const auto& partial : partials) {
      stats->partial_groups += partial->table.num_groups();
      stats->local_rehashes += partial->table.rehash_count();
    }
  }

  // Single morsel: its local table already is the global result.
  if (num_morsels == 1) {
    FlatAggTable<Key>& only = partials[0]->table;
    if (stats != nullptr) stats->nonempty_merge_shards = only.num_groups() > 0;
    GroupPieces out;
    out.push_back(std::move(only).TakeGroups());
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
    // Size from the estimate split across shards, never below the largest
    // single contribution, and never above the exact count of partial
    // entries this shard will see (which caps an overestimate, and a
    // skewed split such as adversarially sequential hash values).
    auto table = std::make_unique<FlatAggTable<Key>>(
        &plan,
        std::min(shard_sum, std::max<uint64_t>(groups / shards, largest)));
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
  return TakePieces(&shard_tables);
}

// The partition-first strategy: one sweep scatters the row ids into
// `num_partitions` hash partitions, and each partition runs the chain into
// one table. Equal keys share a partition, so its groups are final: no
// local duplicate, no merge. The tables are the pieces, in partition
// order, and each partition's rows stay in selection order, so the result
// (float sums included) does not depend on the thread count. Each table is
// sized for its share of the `groups` estimate.
template <typename Key, typename GetKey>
Result<GroupPieces> RunPartitionFirst(const GroupByPlan& plan,
                                     ThreadPool* pool,
                                     const std::vector<uint32_t>* selection,
                                     uint32_t hash_partitions,
                                     uint32_t num_partitions, uint64_t groups,
                                     GetKey get_key, CpuGroupByStats* stats) {
  const std::vector<std::vector<uint32_t>> partitions = PartitionRows(
      plan, pool, selection, hash_partitions, num_partitions);
  const double partition_groups =
      static_cast<double>(groups) / static_cast<double>(num_partitions);

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
        &plan, TableSize(partition_groups, rows.size()));
    AggregateStride(plan, stride, get_key, table.get());
    tables[p] = std::move(table);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_partitions, process_partition);
  } else {
    for (uint32_t p = 0; p < num_partitions; ++p) process_partition(p);
  }

  BLUSIM_RETURN_NOT_OK(shared.Finish());
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
  return TakePieces(&tables);
}

// Runs the strategy ChooseStrategy picks for the selection's group count:
// the caller's estimate, else the router's full-pass one.
template <typename Key, typename GetKey>
Result<GroupPieces> Run(const GroupByPlan& plan, ThreadPool* pool,
                        const std::vector<uint32_t>* selection,
                        uint32_t hash_partitions, uint64_t estimated_groups,
                        GetKey get_key, CpuGroupByStats* stats) {
  const uint64_t total_rows =
      selection ? selection->size() : plan.table().num_rows();
  const uint64_t groups =
      estimated_groups > 0
          ? estimated_groups
          : CountDistinctKeys(plan, pool, selection, /*k=*/512,
                              hash_partitions);
  if (CpuGroupBy::ChooseStrategy(total_rows, groups) ==
      CpuGroupByStrategy::kPartition) {
    const auto num_partitions = static_cast<uint32_t>(std::min<uint64_t>(
        CpuGroupBy::kMaxPartitions,
        NextPow2(CeilDiv(total_rows, CpuGroupBy::kPartitionRows))));
    return RunPartitionFirst<Key>(plan, pool, selection, hash_partitions,
                                  num_partitions, groups, get_key, stats);
  }
  return RunLocal<Key>(plan, pool, selection, hash_partitions, groups,
                       get_key, stats);
}

// Runs the chain for the plan's key shape.
Result<GroupPieces> RunChain(const GroupByPlan& plan, ThreadPool* pool,
                             const std::vector<uint32_t>* selection,
                             uint32_t hash_partitions,
                             uint64_t estimated_groups,
                             CpuGroupByStats* stats) {
  if (plan.wide_key()) {
    return Run<WideKey>(
        plan, pool, selection, hash_partitions, estimated_groups,
        [](const Stride& s, uint64_t i) -> const WideKey& {
          return s.wide_keys[i];
        },
        stats);
  }
  return Run<uint64_t>(
      plan, pool, selection, hash_partitions, estimated_groups,
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

CpuGroupByStrategy CpuGroupBy::ChooseStrategy(uint64_t rows,
                                              uint64_t groups) {
  if (NumMorsels(rows, kMorselRows) <= 1) return CpuGroupByStrategy::kLocal;
  const double per_row =
      ExpectedDistinct(std::min(groups, rows), rows, kMorselRows) /
      static_cast<double>(kMorselRows);
  return per_row > kPartitionMinDistinctPerRow ? CpuGroupByStrategy::kPartition
                                               : CpuGroupByStrategy::kLocal;
}

Result<FlatGroups> CpuGroupBy::ExecuteToFlat(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint64_t estimated_groups, CpuGroupByStats* stats) {
  BLUSIM_ASSIGN_OR_RETURN(GroupPieces pieces,
                          RunChain(plan, pool, selection, hash_partitions,
                                   estimated_groups, stats));
  if (pieces.size() == 1) return std::move(pieces.front());
  FlatGroups out;
  uint64_t total_groups = 0;
  for (const FlatGroups& piece : pieces) total_groups += piece.num_groups();
  out.rep_rows.reserve(total_groups);
  out.accs.reserve(total_groups * plan.slots().size());
  for (const FlatGroups& piece : pieces) {
    out.rep_rows.insert(out.rep_rows.end(), piece.rep_rows.begin(),
                        piece.rep_rows.end());
    out.accs.insert(out.accs.end(), piece.accs.begin(), piece.accs.end());
  }
  return out;
}

Result<GroupByOutput> CpuGroupBy::Execute(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint64_t estimated_groups,
    CpuGroupByStats* stats) {
  // The pieces are materialized as they stand: no concatenated copy.
  BLUSIM_ASSIGN_OR_RETURN(GroupPieces pieces,
                          RunChain(plan, pool, selection,
                                   /*hash_partitions=*/1, estimated_groups,
                                   stats));
  GroupByOutput out;
  for (const FlatGroups& piece : pieces) out.num_groups += piece.num_groups();
  BLUSIM_ASSIGN_OR_RETURN(out.table,
                          MaterializeGroupsFlat(plan, pieces, pool));
  return out;
}

}  // namespace blusim::runtime
