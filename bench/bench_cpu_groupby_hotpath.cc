// CPU group-by hot-path benchmark: flat open-addressing aggregation with
// partitioned merge (the current CpuGroupBy) vs. the pre-change
// implementation (per-morsel std::unordered_map with per-group heap
// allocated accumulators and a global-mutex merge), which is kept here
// verbatim as the "before" baseline.
//
// Emits BENCH_cpu_groupby.json with rows/sec for low-, few-hundred-, mid-
// and high-cardinality keys at 1 thread and N threads, so the perf
// trajectory of the CPU chain (which feeds the T1/T2/T3 routing decisions)
// stays measurable. The few-hundred case is the shape of the bypass
// workload's single-key intermediate group-bys (BDI-I23: 300 groups).
// The current chain is handed the group-count estimate the way the router
// hands it over: computed once per case (runtime::CountDistinctKeys),
// outside the timed runs.
//
// Differential: each case's result (sorted key, SUM, COUNT rows) must equal
// the baseline's; the binary exits non-zero otherwise.
//
// never_fits_topk is the never-fits ROLAP shape (Q35-Q46): 200k unique
// keys, five aggregate slots, ORDER BY an aggregate, LIMIT 1000, timed
// from the chain to the returned head. The lazy path (pieces, the sort-key
// column, head selection, the head's gather) is measured against the full
// path it replaced (every group materialized, a full sort, the head
// copied), and must return the same head row for row.
//
// Env knobs: BLUSIM_BENCH_ROWS (default 2000000), BLUSIM_BENCH_REPS
// (default 3, best-of), BLUSIM_BENCH_THREADS (default hardware).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "columnar/table.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/engine.h"
#include "runtime/cpu_groupby.h"
#include "runtime/evaluators.h"
#include "runtime/group_result.h"
#include "runtime/partition_sweep.h"
#include "sort/hybrid_sort.h"

namespace blusim::runtime {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

// ---------------------------------------------------------------------------
// The pre-flat-table implementation, preserved as the benchmark baseline.

struct U64Hash {
  size_t operator()(uint64_t k) const { return static_cast<size_t>(Mix64(k)); }
};

// One group of the baseline's node-per-group maps, with its own heap
// accumulator vector.
struct GroupEntry {
  uint32_t rep_row = 0;
  std::vector<AccValue> slots;
};

Result<GroupByOutput> LegacyCpuGroupBy(const GroupByPlan& plan,
                                       ThreadPool* pool) {
  const uint64_t total_rows = plan.table().num_rows();
  const uint64_t num_morsels =
      NumMorsels(total_rows, CpuGroupBy::kMorselRows);
  GroupByChain chain(&plan);
  const size_t num_slots = plan.slots().size();

  std::mutex mu;
  std::unordered_map<uint64_t, GroupEntry, U64Hash> global;
  Status first_error;

  auto process_morsel = [&](uint64_t m) {
    Stride stride;
    stride.range = GetMorsel(total_rows, CpuGroupBy::kMorselRows, m);
    Status st = chain.ProcessStride(&stride);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = st;
      return;
    }
    std::unordered_map<uint64_t, GroupEntry, U64Hash> local;
    const uint64_t n = stride.num_rows();
    for (uint64_t i = 0; i < n; ++i) {
      auto [it, inserted] = local.try_emplace(stride.packed_keys[i]);
      GroupEntry& entry = it->second;
      if (inserted) {
        entry.rep_row = stride.InputRow(i);
        entry.slots.resize(num_slots);
        for (size_t s = 0; s < num_slots; ++s) {
          InitAcc(plan.slots()[s], &entry.slots[s]);
        }
      }
      for (size_t s = 0; s < num_slots; ++s) {
        AccumulateRow(plan.slots()[s], stride.payloads[s], i,
                      &entry.slots[s]);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [key, entry] : local) {
      auto [git, inserted] = global.try_emplace(key, std::move(entry));
      if (!inserted) {
        for (size_t s = 0; s < num_slots; ++s) {
          MergeAcc(plan.slots()[s], entry.slots[s], &git->second.slots[s]);
        }
      }
    }
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, process_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) process_morsel(m);
  }
  BLUSIM_RETURN_NOT_OK(first_error);

  GroupPieces pieces(1);
  FlatGroups& groups = pieces.front();
  groups.rep_rows.reserve(global.size());
  groups.accs.reserve(global.size() * num_slots);
  for (auto& [key, entry] : global) {
    groups.rep_rows.push_back(entry.rep_row);
    groups.accs.insert(groups.accs.end(), entry.slots.begin(),
                       entry.slots.end());
  }
  return MaterializeOutput(plan, pieces);
}

// ---------------------------------------------------------------------------

struct CaseResult {
  std::string name;
  uint64_t groups_target = 0;
  uint64_t groups_actual = 0;
  std::string strategy;  // the CPU chain's choice for this input
  double flat_t1 = 0, flat_tn = 0;      // rows/sec
  double legacy_t1 = 0, legacy_tn = 0;  // rows/sec
};

columnar::Table MakeTable(uint64_t rows, uint64_t groups) {
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  columnar::Table t(schema);
  t.Reserve(rows);
  Rng rng(rows ^ groups);
  for (uint64_t r = 0; r < rows; ++r) {
    // Scrambled keys so neither path benefits from sequential insertion.
    t.column(0).AppendInt64(
        static_cast<int64_t>(Mix64(rng.Below(groups)) >> 8));
    t.column(1).AppendInt64(rng.Range(-1000, 1000));
  }
  return t;
}

// A result table's rows (key, SUM, COUNT), sorted: the differential's
// order-free view of a group-by output.
std::vector<std::array<int64_t, 3>> SortedRows(const columnar::Table& t) {
  std::vector<std::array<int64_t, 3>> rows(t.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < 3; ++c) rows[r][c] = t.column(c).GetInt64(r);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- never_fits_topk --------------------------------------------------------

constexpr uint64_t kTopkRows = 200000;
constexpr uint64_t kTopkLimit = 1000;

// kTopkRows unique scrambled keys, an int64 and a float64 payload.
columnar::Table MakeTopkTable() {
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  schema.AddField({"d", columnar::DataType::kFloat64, false});
  columnar::Table t(schema);
  t.Reserve(kTopkRows);
  Rng rng(kTopkRows);
  for (uint64_t r = 0; r < kTopkRows; ++r) {
    t.column(0).AppendInt64(static_cast<int64_t>(Mix64(r) >> 1));
    t.column(1).AppendInt64(rng.Range(-1000, 1000));
    t.column(2).AppendDouble(static_cast<double>(rng.Range(0, 50000)) / 4);
  }
  return t;
}

// Five slots: SUM(v), COUNT(*), MIN(v), MAX(v), SUM(d); result column 5 is
// SUM(d), the ORDER BY key (many ties at the LIMIT boundary).
GroupBySpec TopkSpec() {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 1, "lo"},
                     {AggFn::kMax, 1, "hi"},
                     {AggFn::kSum, 2, "ds"}};
  return spec;
}

const std::vector<sort::SortKey> kTopkOrder = {{5, false}};

// The engine's path: pieces, the sort-key column, head selection, then
// only the head gathered.
Result<std::shared_ptr<columnar::Table>> LazyTopk(const GroupByPlan& plan,
                                                  ThreadPool* pool,
                                                  uint64_t estimate) {
  BLUSIM_ASSIGN_OR_RETURN(
      GroupPieces groups,
      CpuGroupBy::ExecuteToFlat(plan, pool, nullptr, 1, estimate));
  BLUSIM_ASSIGN_OR_RETURN(
      std::vector<uint32_t> head,
      core::OrderGroups(plan, groups, kTopkOrder, kTopkLimit, pool));
  return MaterializeGroups(plan, groups, pool, &head);
}

// The path it replaced: every group materialized, the whole result sorted
// on one worker, the head copied out.
Result<std::shared_ptr<columnar::Table>> FullTopk(const GroupByPlan& plan,
                                                  ThreadPool* pool,
                                                  uint64_t estimate) {
  BLUSIM_ASSIGN_OR_RETURN(
      GroupByOutput out, CpuGroupBy::Execute(plan, pool, nullptr, estimate));
  sort::HybridSortOptions options;
  options.num_workers = 1;
  options.pool = pool != nullptr ? pool : &ThreadPool::Default();
  BLUSIM_ASSIGN_OR_RETURN(
      std::vector<uint32_t> perm,
      sort::HybridSorter::Sort(*out.table, kTopkOrder, options, nullptr));
  perm.resize(std::min<uint64_t>(perm.size(), kTopkLimit));
  return core::MaterializeRows(*out.table, perm, {});
}

// Row for row, in order (doubles by bits).
bool SameTable(const columnar::Table& a, const columnar::Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const columnar::Column& x = a.column(c);
    const columnar::Column& y = b.column(c);
    if (x.type() != y.type()) return false;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const bool same = x.type() == columnar::DataType::kFloat64
                            ? std::memcmp(&x.float64_data()[r],
                                          &y.float64_data()[r], 8) == 0
                            : x.GetInt64(r) == y.GetInt64(r);
      if (!same) return false;
    }
  }
  return true;
}

template <typename Fn>
double MeasureRowsPerSec(uint64_t rows, int reps, Fn run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    best = std::max(best, static_cast<double>(rows) / secs);
  }
  return best;
}

}  // namespace
}  // namespace blusim::runtime

int main() {
  using namespace blusim;
  using namespace blusim::runtime;

  const uint64_t rows = std::max<uint64_t>(
      EnvU64("BLUSIM_BENCH_ROWS", 2000000), 1);
  const int reps = std::max<int>(
      static_cast<int>(EnvU64("BLUSIM_BENCH_REPS", 3)), 1);
  const unsigned hc = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(
      EnvU64("BLUSIM_BENCH_THREADS", hc == 0 ? 4 : hc));

  struct CaseSpec {
    const char* name;
    uint64_t groups;
  };
  const CaseSpec cases[] = {
      {"low_cardinality", 64},
      {"few_hundred", 300},
      {"mid_cardinality", 65536},
      {"high_cardinality", rows},  // groups ~= rows
  };

  ThreadPool pool(threads);
  std::vector<CaseResult> results;
  for (const CaseSpec& c : cases) {
    columnar::Table t = MakeTable(rows, c.groups);
    GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kCount, -1, "n"}};
    auto plan = GroupByPlan::Make(t, spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      return 1;
    }

    CaseResult r;
    r.name = c.name;
    r.groups_target = c.groups;
    const uint64_t estimate =
        CountDistinctKeys(plan.value(), &pool, nullptr, /*k=*/512);
    {
      CpuGroupByStats stats;
      auto out = CpuGroupBy::Execute(plan.value(), &pool, nullptr, estimate,
                                     &stats);
      auto legacy = LegacyCpuGroupBy(plan.value(), &pool);
      if (!out.ok() || !legacy.ok()) {
        std::fprintf(stderr, "%s\n",
                     (out.ok() ? legacy.status() : out.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      if (SortedRows(*out->table) != SortedRows(*legacy->table)) {
        std::fprintf(stderr,
                     "%s: result differs from the baseline (groups %llu vs "
                     "%llu)\n",
                     c.name,
                     static_cast<unsigned long long>(out->num_groups),
                     static_cast<unsigned long long>(legacy->num_groups));
        return 1;
      }
      r.groups_actual = out->num_groups;
      r.strategy = CpuGroupByStrategyName(stats.strategy);
    }
    r.flat_t1 = MeasureRowsPerSec(rows, reps, [&] {
      (void)CpuGroupBy::Execute(plan.value(), nullptr, nullptr, estimate);
    });
    r.flat_tn = MeasureRowsPerSec(rows, reps, [&] {
      (void)CpuGroupBy::Execute(plan.value(), &pool, nullptr, estimate);
    });
    r.legacy_t1 = MeasureRowsPerSec(rows, reps, [&] {
      (void)LegacyCpuGroupBy(plan.value(), nullptr);
    });
    r.legacy_tn = MeasureRowsPerSec(rows, reps, [&] {
      (void)LegacyCpuGroupBy(plan.value(), &pool);
    });
    results.push_back(r);
    std::printf(
        "%-17s groups=%-8llu %-9s flat 1T %7.2f Mrows/s  %dT %7.2f Mrows/s | "
        "legacy 1T %7.2f Mrows/s  %dT %7.2f Mrows/s | multi speedup %.2fx\n",
        r.name.c_str(),
        static_cast<unsigned long long>(r.groups_actual), r.strategy.c_str(),
        r.flat_t1 / 1e6,
        threads, r.flat_tn / 1e6, r.legacy_t1 / 1e6, threads,
        r.legacy_tn / 1e6, r.flat_tn / r.legacy_tn);
  }

  // never_fits_topk: the lazy head against the full path it replaced.
  CaseResult topk;
  topk.name = "never_fits_topk";
  topk.groups_target = kTopkRows;
  {
    const columnar::Table t = MakeTopkTable();
    auto plan = GroupByPlan::Make(t, TopkSpec());
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    const uint64_t estimate =
        CountDistinctKeys(plan.value(), &pool, nullptr, /*k=*/512);
    CpuGroupByStats stats;
    auto groups = CpuGroupBy::ExecuteToFlat(plan.value(), &pool, nullptr, 1,
                                            estimate, &stats);
    auto lazy = LazyTopk(plan.value(), &pool, estimate);
    auto full = FullTopk(plan.value(), &pool, estimate);
    if (!groups.ok() || !lazy.ok() || !full.ok()) {
      std::fprintf(stderr, "never_fits_topk: %s\n",
                   (!groups.ok()  ? groups.status()
                    : !lazy.ok()  ? lazy.status()
                                  : full.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if ((*lazy)->num_rows() != kTopkLimit || !SameTable(**lazy, **full)) {
      std::fprintf(stderr,
                   "never_fits_topk: the head differs from the full sort's\n");
      return 1;
    }
    topk.groups_actual = NumGroups(*groups);
    topk.strategy = CpuGroupByStrategyName(stats.strategy);
    topk.flat_t1 = MeasureRowsPerSec(kTopkRows, reps, [&] {
      (void)LazyTopk(plan.value(), nullptr, estimate);
    });
    topk.flat_tn = MeasureRowsPerSec(kTopkRows, reps, [&] {
      (void)LazyTopk(plan.value(), &pool, estimate);
    });
    topk.legacy_t1 = MeasureRowsPerSec(kTopkRows, reps, [&] {
      (void)FullTopk(plan.value(), nullptr, estimate);
    });
    topk.legacy_tn = MeasureRowsPerSec(kTopkRows, reps, [&] {
      (void)FullTopk(plan.value(), &pool, estimate);
    });
    std::printf(
        "%-17s groups=%-8llu %-9s lazy 1T %7.2f Mrows/s  %dT %7.2f Mrows/s | "
        "full 1T %7.2f Mrows/s  %dT %7.2f Mrows/s | multi speedup %.2fx\n",
        topk.name.c_str(), static_cast<unsigned long long>(topk.groups_actual),
        topk.strategy.c_str(), topk.flat_t1 / 1e6, threads,
        topk.flat_tn / 1e6, topk.legacy_t1 / 1e6, threads,
        topk.legacy_tn / 1e6, topk.flat_tn / topk.legacy_tn);
  }

  FILE* f = std::fopen("BENCH_cpu_groupby.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_cpu_groupby.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"cpu_groupby_hotpath\",\n"
               "  \"rows\": %llu,\n  \"reps\": %d,\n  \"threads\": %d,\n"
               "  \"cases\": [\n",
               static_cast<unsigned long long>(rows), reps, threads);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(
        f,
        "    {\"case\": \"%s\", \"groups\": %llu, \"strategy\": \"%s\",\n"
        "     \"after_flat\": {\"rows_per_sec_1t\": %.0f, "
        "\"rows_per_sec_nt\": %.0f},\n"
        "     \"before_unordered_map\": {\"rows_per_sec_1t\": %.0f, "
        "\"rows_per_sec_nt\": %.0f},\n"
        "     \"speedup_1t\": %.3f, \"speedup_nt\": %.3f}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.groups_actual),
        r.strategy.c_str(), r.flat_t1, r.flat_tn, r.legacy_t1, r.legacy_tn,
        r.flat_t1 / r.legacy_t1, r.flat_tn / r.legacy_tn,
        ",");
  }
  std::fprintf(
      f,
      "    {\"case\": \"%s\", \"groups\": %llu, \"strategy\": \"%s\", "
      "\"limit\": %llu,\n"
      "     \"after_lazy_head\": {\"rows_per_sec_1t\": %.0f, "
      "\"rows_per_sec_nt\": %.0f},\n"
      "     \"before_full_materialize\": {\"rows_per_sec_1t\": %.0f, "
      "\"rows_per_sec_nt\": %.0f},\n"
      "     \"speedup_1t\": %.3f, \"speedup_nt\": %.3f}\n",
      topk.name.c_str(), static_cast<unsigned long long>(topk.groups_actual),
      topk.strategy.c_str(), static_cast<unsigned long long>(kTopkLimit),
      topk.flat_t1, topk.flat_tn, topk.legacy_t1, topk.legacy_tn,
      topk.flat_t1 / topk.legacy_t1, topk.flat_tn / topk.legacy_tn);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_cpu_groupby.json\n");
  return 0;
}
