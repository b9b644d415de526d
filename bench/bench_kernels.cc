// Microbenchmarks (google-benchmark, real host wall time) of the simulated
// device kernels: the three group-by kernels across group-count regimes,
// the radix sort, and the CPU group-by chain for comparison. These measure
// the real multithreaded implementations; the paper-shape experiments use
// the calibrated cost model instead.

#include <benchmark/benchmark.h>

#include <string>

#include "columnar/table.h"
#include "common/rng.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "groupby/gpu_groupby.h"
#include "runtime/cpu_groupby.h"
#include "sort/gpu_sort.h"
#include "sort/hybrid_sort.h"

namespace blusim {
namespace {

std::shared_ptr<columnar::Table> MakeTable(uint64_t rows, uint64_t groups) {
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  schema.AddField({"w", columnar::DataType::kFloat64, false});
  auto t = std::make_shared<columnar::Table>(schema);
  Rng rng(7);
  t->Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(groups)));
    t->column(1).AppendInt64(rng.Range(0, 1000));
    t->column(2).AppendDouble(rng.NextDouble());
  }
  return t;
}

runtime::GroupBySpec MakeSpec(int num_aggs) {
  runtime::GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{runtime::AggFn::kSum, 1, "s"}};
  if (num_aggs > 1) spec.aggregates.push_back({runtime::AggFn::kCount, -1,
                                               "c"});
  if (num_aggs > 2) spec.aggregates.push_back({runtime::AggFn::kMin, 2,
                                               "mn"});
  if (num_aggs > 3) spec.aggregates.push_back({runtime::AggFn::kMax, 2,
                                               "mx"});
  if (num_aggs > 4) spec.aggregates.push_back({runtime::AggFn::kAvg, 1,
                                               "a"});
  if (num_aggs > 5) spec.aggregates.push_back({runtime::AggFn::kSum, 2,
                                               "s2"});
  return spec;
}

struct Fixture {
  gpusim::DeviceSpec spec;
  gpusim::HostSpec host;
  gpusim::SimDevice device{0, spec, host, 2};
  gpusim::PinnedHostPool pinned{128ULL << 20};
  runtime::ThreadPool pool{2};
  groupby::GpuModerator moderator;
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

// Runs the device group-by on a shape the moderator maps to `expected`;
// reports an error instead of a timing when it picks another kernel, so
// each benchmark's name matches the kernel that ran.
void RunGpuGroupBy(benchmark::State& state, uint64_t groups, int num_aggs,
                   gpusim::GroupByKernelKind expected) {
  Fixture& f = GetFixture();
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  auto table = MakeTable(rows, groups);
  auto plan = runtime::GroupByPlan::Make(*table, MakeSpec(num_aggs));
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    groupby::GpuGroupByStats stats;
    auto out = groupby::GpuGroupBy::Execute(plan.value(), &f.device,
                                            &f.pinned, &f.pool, &f.moderator,
                                            nullptr, {}, &stats);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    if (stats.kernel_used != expected) {
      state.SkipWithError(
          (std::string("moderator picked ") +
           gpusim::GroupByKernelKindName(stats.kernel_used))
              .c_str());
      return;
    }
    benchmark::DoNotOptimize(out->num_groups);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}

void BM_GpuGroupBy_Regular(benchmark::State& state) {
  RunGpuGroupBy(state, /*groups=*/50000, /*num_aggs=*/2,
                gpusim::GroupByKernelKind::kRegular);
}
void BM_GpuGroupBy_SharedMem(benchmark::State& state) {
  RunGpuGroupBy(state, /*groups=*/12, /*num_aggs=*/2,
                gpusim::GroupByKernelKind::kSharedMem);
}
void BM_GpuGroupBy_RowLock(benchmark::State& state) {
  RunGpuGroupBy(state, /*groups=*/50000, /*num_aggs=*/6,
                gpusim::GroupByKernelKind::kRowLock);
}

void BM_CpuGroupBy(benchmark::State& state) {
  Fixture& f = GetFixture();
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  auto table = MakeTable(rows, 50000);
  auto plan = runtime::GroupByPlan::Make(*table, MakeSpec(2));
  for (auto _ : state) {
    auto out = runtime::CpuGroupBy::Execute(plan.value(), &f.pool);
    benchmark::DoNotOptimize(out->num_groups);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}

void BM_GpuRadixSort(benchmark::State& state) {
  Fixture& f = GetFixture();
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(11);
  std::vector<sort::PkEntry> data(n);
  for (uint32_t i = 0; i < n; ++i) {
    data[i].key = static_cast<uint32_t>(rng.Next());
    data[i].payload = i;
  }
  auto reservation = f.device.memory().Reserve(sort::GpuSortBytesNeeded(n));
  auto entries = f.device.memory().Alloc(reservation.value(),
                                         n * sizeof(sort::PkEntry));
  auto scratch = f.device.memory().Alloc(reservation.value(),
                                         n * sizeof(sort::PkEntry));
  auto hist = f.device.memory().Alloc(reservation.value(),
                                      sort::GpuSortHistBytes(n));
  for (auto _ : state) {
    std::memcpy(entries->data(), data.data(), n * sizeof(sort::PkEntry));
    auto st = sort::GpuRadixSort(&f.device, &entries.value(),
                                 &scratch.value(), &hist.value(), n);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(entries->data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}

void BM_HybridSort(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  auto table = MakeTable(rows, 1000);
  const std::vector<sort::SortKey> keys = {{0, true}, {1, true}};
  Fixture& f = GetFixture();
  sort::HybridSortOptions options;
  options.device = &f.device;
  options.pinned_pool = &f.pinned;
  options.min_gpu_rows = 16384;
  options.num_workers = 2;
  for (auto _ : state) {
    sort::HybridSortStats stats;
    auto perm = sort::HybridSorter::Sort(*table, keys, options, &stats);
    benchmark::DoNotOptimize(perm->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}

BENCHMARK(BM_GpuGroupBy_Regular)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpuGroupBy_SharedMem)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpuGroupBy_RowLock)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CpuGroupBy)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpuRadixSort)->Arg(1 << 17)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HybridSort)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace blusim

BENCHMARK_MAIN();
