#include "runtime/cpu_groupby.h"

#include <algorithm>
#include <memory>

#include "common/annotations.h"
#include "common/bit_util.h"
#include "common/hash.h"
#include "runtime/evaluators.h"
#include "runtime/flat_table.h"
#include "runtime/group_result.h"

namespace blusim::runtime {

namespace {

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

template <typename Key, typename GetKey>
Result<FlatGroups> Run(const GroupByPlan& plan, ThreadPool* pool,
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

  // Small mutex: KMV merge and first-error tracking only. Group merging
  // never takes it — phase 2 is per-shard parallel with no shared state.
  struct SharedScanState {
    common::Mutex mu{"runtime.CpuGroupBy.scan_mu",
                     common::LockRank::kRuntime};
    KmvSketch global_kmv GUARDED_BY(mu) = KmvSketch(256);
    Status first_error GUARDED_BY(mu);
  } shared;

  std::vector<std::unique_ptr<MorselPartial<Key>>> partials(num_morsels);

  auto process_morsel = [&](uint64_t m) {
    Stride stride;
    stride.range = GetMorsel(total_rows, CpuGroupBy::kMorselRows, m);
    stride.selection = selection;
    Status st = chain.ProcessStride(&stride);
    if (!st.ok()) {
      common::MutexLock lock(&shared.mu);
      if (shared.first_error.ok()) shared.first_error = st;
      return;
    }

    // LGHT: local grouping with aggregates applied inline. The table is
    // sized from this stride's KMV estimate — the same signal the GPU path
    // sizes its device table with (section 4.2) — and grows-and-rehashes
    // if the estimate was low.
    const uint64_t n = stride.num_rows();
    const uint64_t expected = std::min<uint64_t>(
        n, std::max<uint64_t>(stride.kmv.Estimate(hash_partitions), 16));
    auto partial = std::make_unique<MorselPartial<Key>>(&plan, expected,
                                                        shards);
    FlatAggTable<Key>& local = partial->table;
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t g = local.FindOrInsert(get_key(stride, i),
                                            stride.hashes[i],
                                            stride.InputRow(i));
      AccValue* accs = local.group_accs(g);
      for (size_t s = 0; s < num_slots; ++s) {
        AccumulateRow(plan.slots()[s], stride.payloads[s], i, &accs[s]);
      }
    }

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

    common::MutexLock lock(&shared.mu);
    shared.global_kmv.Merge(stride.kmv);
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process_morsel(m);
  }
  // All workers are done (ParallelFor is a barrier), but read the shared
  // state under its lock so the annotated accesses stay consistent.
  uint64_t kmv_estimate = 0;
  {
    common::MutexLock lock(&shared.mu);
    BLUSIM_RETURN_NOT_OK(shared.first_error);
    kmv_estimate = shared.global_kmv.Estimate(hash_partitions);
  }

  if (stats != nullptr) {
    stats->merge_shards = shards;
    for (const auto& partial : partials) {
      stats->partial_groups += partial->table.num_groups();
      stats->local_rehashes += partial->table.rehash_count();
    }
  }

  FlatGroups out;
  out.kmv_estimate = kmv_estimate;

  // Single morsel: its local table already is the global result.
  if (num_morsels == 1) {
    const FlatAggTable<Key>& only = partials[0]->table;
    if (stats != nullptr) stats->nonempty_merge_shards = only.num_groups() > 0;
    out.rep_rows = only.rep_rows();
    out.accs = only.accs();
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

  uint64_t total_groups = 0;
  for (const auto& t : shard_tables) total_groups += t->num_groups();
  out.rep_rows.reserve(total_groups);
  out.accs.reserve(total_groups * num_slots);
  for (const auto& t : shard_tables) {
    out.rep_rows.insert(out.rep_rows.end(), t->rep_rows().begin(),
                        t->rep_rows().end());
    out.accs.insert(out.accs.end(), t->accs().begin(), t->accs().end());
    if (stats != nullptr) {
      stats->merge_rehashes += t->rehash_count();
      stats->nonempty_merge_shards += t->num_groups() > 0;
    }
  }
  return out;
}

}  // namespace

Result<FlatGroups> CpuGroupBy::ExecuteToFlat(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
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

Result<GroupByOutput> CpuGroupBy::Execute(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, CpuGroupByStats* stats) {
  BLUSIM_ASSIGN_OR_RETURN(
      FlatGroups flat,
      ExecuteToFlat(plan, pool, selection, /*hash_partitions=*/1, stats));
  GroupByOutput out;
  out.num_groups = flat.num_groups();
  out.kmv_estimate = flat.kmv_estimate;
  BLUSIM_ASSIGN_OR_RETURN(out.table, MaterializeGroupsFlat(plan, flat));
  return out;
}

}  // namespace blusim::runtime
