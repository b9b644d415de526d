// The one group-by price (groupby/price.h): its terms are the runtime's own
// charges, the run prices compose them the way the runtime records its
// phases, and a workload run priced on its own counts costs what it is
// charged.

#include "groupby/price.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "groupby/moderator.h"
#include "runtime/group_result.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

class GroupByPriceTest : public ::testing::Test {
 protected:
  static std::shared_ptr<Table> MakeTable() {
    Schema schema;
    schema.AddField({"k", DataType::kInt64, false});
    schema.AddField({"qty", DataType::kInt64, false});
    schema.AddField({"rev", DataType::kFloat64, false});
    auto t = std::make_shared<Table>(schema);
    for (int i = 0; i < 16; ++i) {
      t->column(0).AppendInt64(i);
      t->column(1).AppendInt64(i);
      t->column(2).AppendDouble(i);
    }
    return t;
  }
  static GroupByPlan MakePlan(const Table& t) {
    GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{AggFn::kSum, 1, "q"},
                       {AggFn::kSum, 2, "r"},
                       {AggFn::kCount, -1, "n"}};
    return GroupByPlan::Make(t, spec).value();
  }

  gpusim::HostSpec host_;
  gpusim::DeviceSpec device_;
  gpusim::CostModel cost_{host_, device_};
  std::shared_ptr<Table> table_ = MakeTable();
  GroupByPlan plan_ = MakePlan(*table_);
  // Prices are computed from the plan's shape, not from its table's rows:
  // a 1M-row, 50k-group fused group-by over two devices.
  GroupByShape shape_{1000000, 1000000, 50000, StageMode::kFusedRecords};
  PriceEnv env_{4, 24, 2, 48 << 10};
};

TEST_F(GroupByPriceTest, OnePartitionIsStagePlusOneChunk) {
  // The single-device run: the staging sweep charged at query dop, then
  // one chunk's transfer + table init + moderator-chosen kernel + readback.
  // No sweep, no merge.
  const GroupByShape& s = shape_;
  const uint64_t staged =
      s.rows * FusedRecordLayout::Make(plan_).value().record_bytes;
  const SimTime stage =
      cost_.HostFusedStageTime(s.rows, 8, s.rows, staged, env_.pool_dop);
  const HashTableLayout layout(plan_);
  const uint64_t table_bytes = layout.TableBytes(ChooseCapacity(s.groups));
  const gpusim::GroupByKernelParams kp =
      KernelParams(plan_, s.mode, s.rows, s.groups);
  const gpusim::GroupByKernelKind kind =
      GpuModerator::ChooseKernel(cost_, kp, layout, env_.usable_shared_mem);
  EXPECT_EQ(PriceOnePartition(cost_, plan_, s, env_),
            AtDop(cost_, stage, env_.query_dop) +
                cost_.TransferTime(staged, true) +
                cost_.HashTableInitTime(table_bytes) +
                cost_.FusedScanAggregateTime(kind, kp) +
                cost_.TransferTime(table_bytes, true));

  // Hash partitioning the same input charges the sweep and the merge that
  // one partition skips: at an all-CPU split they frame the CPU lane, which
  // runs every partition through the flat-table chain. The merge is the
  // runtime's concatenation: groups x (rep row + slots x AccValue).
  constexpr uint32_t kParts = 8;
  const SimTime sweep =
      cost_.HostKeyGenTime(s.rows, 1) + cost_.HostMemcpyTime(s.rows * 4);
  const SimTime cpu_lane =
      kParts * AtDop(cost_,
                     cost_.HostGroupByTime(s.rows / kParts, s.groups / kParts,
                                           3, 1),
                     env_.query_dop);
  const SimTime merge =
      cost_.HostMemcpyTime(s.groups * (4 + 3 * sizeof(runtime::AccValue))) +
      static_cast<SimTime>(static_cast<double>(s.groups) * 0.004);
  EXPECT_EQ(PricePartitioned(cost_, plan_, s, env_, kParts, 1.0),
            AtDop(cost_, sweep, env_.query_dop) + cpu_lane + merge);
}

TEST_F(GroupByPriceTest, ChosenCpuFractionIsWholePartitions) {
  const double f = ChooseCpuSplit(cost_, plan_, shape_, env_, 8);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  EXPECT_DOUBLE_EQ(f * 8, std::round(f * 8));
  // It is the argmin over every realizable share.
  for (int i = 0; i <= 8; ++i) {
    EXPECT_LE(PricePartitioned(cost_, plan_, shape_, env_, 8, f),
              PricePartitioned(cost_, plan_, shape_, env_, 8, i / 8.0))
        << i << "/8";
  }
  // No devices: everything runs on the CPU.
  PriceEnv no_devices = env_;
  no_devices.num_devices = 0;
  EXPECT_EQ(ChooseCpuSplit(cost_, plan_, shape_, no_devices, 8), 1.0);
}

// Argument `key` of `span`, parsed as a count.
uint64_t SpanArg(const obs::TraceSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return std::stoull(v);
  }
  ADD_FAILURE() << span.name << " has no arg " << key;
  return 0;
}

const core::PhaseRecord* FindPhase(const core::QueryProfile& profile,
                                   const std::string& label) {
  for (const auto& phase : profile.phases) {
    if (phase.label == label) return &phase;
  }
  return nullptr;
}

// The engine shape of the benchmark (blubench/workloads.cc) for a
// store_sales table of `rows` rows.
core::EngineConfig BenchmarkConfig(uint64_t rows) {
  core::EngineConfig config;
  config.num_devices = 2;
  config.cpu_threads = 2;
  config.device_workers = 2;
  config.sort_workers = 2;
  config.query_dop = 24;
  config.device_spec =
      config.device_spec.WithMemory(std::max<uint64_t>(8ULL << 20, rows * 96));
  config.pinned_pool_bytes = 128ULL << 20;
  config.thresholds.t1_min_rows = rows * 2 / 5;
  config.thresholds.t2_min_groups = 8;
  config.check_device = 0;
  return config;
}

TEST(GroupByPriceCalibrationTest, WorkloadRunsAreChargedTheirPrice) {
  // The benchmark's engine at a quarter of its 200k store_sales rows, over
  // the BDI, ROLAP and heavy queries. One-partition runs go through fused
  // records where the stage-mode choice picks them, and through SoA
  // staging on an engine without fusion.
  constexpr uint64_t kRows = 50000;
  workload::ScaleConfig scale;
  scale.store_sales_rows = kRows;
  scale.customers = kRows / 12;
  scale.items = kRows / 60;
  scale.seed = 1;
  auto db = workload::GenerateDatabase(scale);
  ASSERT_TRUE(db.ok());
  core::EngineConfig config = BenchmarkConfig(kRows);
  core::Engine fused(config);
  config.enable_fusion = false;
  core::Engine soa(config);
  config.enable_fusion = true;
  config.enable_partitioned_gpu = true;
  core::Engine partitioned(config);
  for (const auto& [name, table] : *db) {
    for (core::Engine* e : {&fused, &soa, &partitioned}) {
      ASSERT_TRUE(e->RegisterTable(name, table).ok());
    }
  }
  std::vector<workload::WorkloadQuery> queries =
      workload::MakeBdiQueries(*db);
  for (auto* more : {&workload::MakeRolapQueries,
                     &workload::MakeHandwrittenHeavyQueries}) {
    for (auto& q : more(*db)) queries.push_back(std::move(q));
  }

  const PriceEnv env{fused.pool().num_threads(), config.query_dop,
                     config.num_devices,
                     fused.scheduler().device(0)->usable_shared_mem()};
  int priced = 0;
  int retried = 0;
  int upgraded = 0;
  double worst = 0.0;  // largest |price - charged| / charged
  // Prices a one-partition run from its own counts against the group-by
  // phases it was charged.
  auto check = [&](const core::QuerySpec& q, const core::QueryProfile& p) {
    const core::PhaseRecord* stage = FindPhase(p, "groupby-stage");
    const core::PhaseRecord* kernel = FindPhase(p, "groupby-kernel");
    if (p.groupby_path != core::ExecutionPath::kGpu || kernel == nullptr) {
      return;
    }
    ++priced;
    ASSERT_NE(stage, nullptr) << q.name;
    const obs::TraceSpan* kspan = nullptr;
    for (const auto& span : p.trace.spans) {
      if (span.name.rfind("kernel:", 0) == 0) kspan = &span;
    }
    ASSERT_NE(kspan, nullptr) << q.name;
    if (SpanArg(*kspan, "retries") > 0) {
      ++retried;  // the table grew: the estimate, not the price, missed
      return;
    }
    // A query whose scan the fused sweep folded in (no scan phase) staged
    // under the fact filters.
    const obs::TraceSpan* sspan = p.trace.FindSpan("groupby-stage");
    ASSERT_NE(sspan, nullptr) << q.name;
    GroupByPlan plan =
        GroupByPlan::Make(*db->at(q.fact_table), *q.groupby).value();
    if (FindPhase(p, "scan") == nullptr) plan.set_stage_filter(q.fact_filters);
    const GroupByShape shape{
        SpanArg(*sspan, "rows_scanned"), kernel->kernel_rows,
        SpanArg(*sspan, "kmv_estimate"),
        *p.trace.FindAnnotation("fusion") == "on" ? StageMode::kFusedRecords
                                                  : StageMode::kSoA};
    const double charged =
        static_cast<double>(stage->elapsed + kernel->elapsed);
    const double price = static_cast<double>(
        PriceOnePartition(fused.cost_model(), plan, shape, env));
    // The price is the charge by construction; 1% still catches a
    // drifted term (pricing every chunk with kernel 1 misses by 3%).
    EXPECT_LE(std::fabs(price - charged), 0.01 * charged)
        << q.name << ": price " << price << " charged " << charged;
    worst = std::max(worst, std::fabs(price - charged) / charged);
  };

  for (const workload::WorkloadQuery& wq : queries) {
    const core::QuerySpec& q = wq.spec;
    auto one = fused.Execute(q);
    ASSERT_TRUE(one.ok()) << q.name;
    check(q, one->profile);
    auto unfused = soa.Execute(q);
    ASSERT_TRUE(unfused.ok()) << q.name;
    check(q, unfused->profile);

    // The router upgrades only what its price says wins; the runtime must
    // then charge the upgrade no more than the one-partition run.
    auto up = partitioned.Execute(q);
    ASSERT_TRUE(up.ok()) << q.name;
    if (up->profile.trace.FindAnnotation("partitioned_upgrade") != nullptr) {
      ++upgraded;
      EXPECT_LE(up->profile.total_elapsed, one->profile.total_elapsed)
          << q.name;
    }
  }
  std::printf("priced %d one-partition runs (%d retried, excluded), worst "
              "error %.4f; %d partitioned upgrades\n",
              priced, retried, worst, upgraded);
  EXPECT_GT(priced - retried, 20);
  EXPECT_GT(upgraded, 0);
}

}  // namespace
}  // namespace blusim::groupby
