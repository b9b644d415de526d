#include "runtime/cpu_groupby.h"

#include <algorithm>
#include <atomic>
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

// Rows per LGHT/AGGD block: the block's group ids, and the groups it
// touched, are still in cache when the per-slot passes read them.
constexpr uint64_t kAggBlockRows = 2048;

// LGHT + AGGD/SUM/CNT by group id: groups a processed stride's rows into
// `table` a block at a time -- the block's lookups fill its group ids,
// then each slot aggregates the block in one typed loop.
template <typename Key, typename GetKey>
void AggregateStride(const GroupByPlan& plan, const Stride& stride,
                     GetKey get_key, FlatAggTable<Key>* table) {
  const size_t num_slots = plan.slots().size();
  const uint64_t n = stride.num_rows();
  uint32_t gids[kAggBlockRows];
  for (uint64_t begin = 0; begin < n; begin += kAggBlockRows) {
    const uint64_t len = std::min(kAggBlockRows, n - begin);
    for (uint64_t j = 0; j < len; ++j) {
      const uint64_t i = begin + j;
      gids[j] = table->FindOrInsert(get_key(stride, i), stride.hashes[i],
                                    stride.InputRow(i));
    }
    AccValue* accs = table->mutable_accs();
    for (size_t s = 0; s < num_slots; ++s) {
      AccumulateSlot(plan.slots()[s], stride.payloads[s], begin, len, gids, s,
                     num_slots, accs);
    }
  }
}

// Moves each table's groups out as one piece, in order.
template <typename Key>
GroupPieces TakePieces(
    std::vector<std::unique_ptr<FlatAggTable<Key>>>* tables) {
  GroupPieces pieces;
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
  std::atomic<uint64_t> keys_hashed{0};

  std::vector<std::unique_ptr<MorselPartial<Key>>> partials(num_morsels);

  auto process_morsel = [&](uint64_t m) {
    Stride stride;
    stride.range = GetMorsel(total_rows, CpuGroupBy::kMorselRows, m);
    stride.selection = selection;
    Status st = chain.ProcessStride(&stride);
    keys_hashed.fetch_add(stride.keys_hashed, std::memory_order_relaxed);
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
    stats->key_hashes += keys_hashed.load(std::memory_order_relaxed);
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
    std::vector<uint32_t> into;
    for (const auto& partial : partials) {
      const FlatAggTable<Key>& src = partial->table;
      const std::vector<uint32_t>& from = partial->shard_groups[p];
      into.resize(from.size());
      for (size_t j = 0; j < from.size(); ++j) {
        const uint32_t g = from[j];
        into[j] = table->FindOrInsert(src.group_key(g), src.group_hash(g),
                                      src.group_rep_row(g));
      }
      for (size_t s = 0; s < num_slots; ++s) {
        MergeSlot(plan.slots()[s], from.size(), from.data(),
                  src.accs().data(), into.data(), s, num_slots,
                  table->mutable_accs());
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

// The partition-first strategy: one sweep scatters the row ids and their
// key hashes into `num_partitions` hash partitions, and each partition runs
// the chain, on those hashes, into one table. Equal keys share a partition,
// so its groups are final: no local duplicate, no merge. The tables are the
// pieces, in partition order, and each partition's rows stay in selection
// order, so the result (float sums included) does not depend on the thread
// count. Each table is sized for its share of the `groups` estimate.
template <typename Key, typename GetKey>
Result<GroupPieces> RunPartitionFirst(const GroupByPlan& plan,
                                     ThreadPool* pool,
                                     const std::vector<uint32_t>* selection,
                                     uint32_t hash_partitions,
                                     uint32_t num_partitions, uint64_t groups,
                                     GetKey get_key, CpuGroupByStats* stats) {
  std::vector<std::vector<uint64_t>> hashes;
  const std::vector<std::vector<uint32_t>> partitions = PartitionRows(
      plan, pool, selection, hash_partitions, num_partitions, &hashes);
  const double partition_groups =
      static_cast<double>(groups) / static_cast<double>(num_partitions);

  GroupByChain chain(&plan);
  SharedScanState shared;
  std::atomic<uint64_t> keys_hashed{0};
  std::vector<std::unique_ptr<FlatAggTable<Key>>> tables(num_partitions);
  auto process_partition = [&](uint64_t p) {
    const std::vector<uint32_t>& rows = partitions[p];
    if (rows.empty()) return;
    Stride stride;
    stride.range = MorselRange{0, rows.size()};
    stride.selection = &rows;
    stride.hashes = std::move(hashes[p]);
    stride.hashes_given = true;
    Status st = chain.ProcessStride(&stride);
    keys_hashed.fetch_add(stride.keys_hashed, std::memory_order_relaxed);
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
    // The sweep hashed every selected key once.
    stats->key_hashes += keys_hashed.load(std::memory_order_relaxed) +
                         (selection ? selection->size()
                                    : plan.table().num_rows());
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
  uint64_t groups = estimated_groups;
  if (groups == 0) {
    groups = CountDistinctKeys(plan, pool, selection, /*k=*/512,
                               hash_partitions);
    if (stats != nullptr) stats->key_hashes += total_rows;
  }
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

Result<GroupPieces> CpuGroupBy::ExecuteToFlat(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint64_t estimated_groups, CpuGroupByStats* stats) {
  return RunChain(plan, pool, selection, hash_partitions, estimated_groups,
                  stats);
}

Result<GroupByOutput> CpuGroupBy::Execute(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint64_t estimated_groups,
    CpuGroupByStats* stats) {
  BLUSIM_ASSIGN_OR_RETURN(GroupPieces pieces,
                          RunChain(plan, pool, selection,
                                   /*hash_partitions=*/1, estimated_groups,
                                   stats));
  return MaterializeOutput(plan, pieces, pool);
}

}  // namespace blusim::runtime
