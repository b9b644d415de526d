// Differential tests for the concurrent partitioned CPU+GPU group-by:
// every adversarial input must produce exactly the aggregates of the
// single-threaded CPU chain. Runs under TSan/lockdep in CI (concurrency
// label) -- the forced 0.5 split drives the CPU lane and both device
// lanes at the same time.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/task_tag.h"
#include "groupby/partitioned.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

// Key distribution shapes for the partition sweep's adversarial cases.
enum class KeyShape {
  kUniform,      // balanced hash partitions
  kSkewed,       // 90% of rows share one key
  kSingleKey,    // one partition holds every row (oversize -> CPU inline)
  kFewDistinct,  // 4 keys: most hash partitions end up empty
};

std::shared_ptr<Table> MakeTable(uint64_t rows, KeyShape shape) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  schema.AddField({"d", DataType::kFloat64, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(4242);
  for (uint64_t i = 0; i < rows; ++i) {
    int64_t key = 0;
    switch (shape) {
      case KeyShape::kUniform:
        key = static_cast<int64_t>(rng.Below(3000));
        break;
      case KeyShape::kSkewed:
        key = rng.Below(10) == 0 ? static_cast<int64_t>(rng.Below(500)) : -1;
        break;
      case KeyShape::kSingleKey:
        key = 7;
        break;
      case KeyShape::kFewDistinct:
        key = static_cast<int64_t>(rng.Below(4));
        break;
    }
    t->column(0).AppendInt64(key);
    t->column(1).AppendInt64(rng.Range(-1000, 1000));
    t->column(2).AppendDouble(static_cast<double>(rng.Range(-500, 500)) / 8);
  }
  return t;
}

GroupBySpec Spec() {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 2, "lo"},
                     {AggFn::kSum, 2, "ds"}};
  return spec;
}

class PartitionedDifferentialTest : public ::testing::Test {
 protected:
  // Exact-integer and order-tolerant floating-point comparison of the
  // partitioned result against the single-threaded CPU chain over
  // `selection`. A deferred run hands the driver no row ids: the plan's
  // stage filter must select the same rows.
  void ExpectMatchesCpu(const GroupByPlan& plan,
                        const std::vector<uint32_t>& selection,
                        const PartitionedOptions& options,
                        PartitionedStats* stats,
                        Fanout fanout = Fanout::kHashPartitioned,
                        bool deferred = false) {
    auto pieces = PartitionedGroupBy::Execute(
        plan, &scheduler_, &pinned_, &pool_, deferred ? nullptr : &selection,
        fanout, options, stats);
    ASSERT_TRUE(pieces.ok()) << pieces.status().ToString();
    auto part = runtime::MaterializeOutput(plan, *pieces);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    auto cpu = runtime::CpuGroupBy::Execute(plan, /*pool=*/nullptr,
                                            &selection);
    ASSERT_TRUE(cpu.ok()) << cpu.status().ToString();
    ASSERT_EQ(part->num_groups, cpu->num_groups);
    ASSERT_EQ(part->table->num_rows(), cpu->table->num_rows());

    auto index = [](const Table& t) {
      std::map<int64_t, size_t> m;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        m[t.column(0).int64_data()[r]] = r;
      }
      return m;
    };
    const auto pi = index(*part->table);
    const auto ci = index(*cpu->table);
    ASSERT_EQ(pi.size(), ci.size());
    for (const auto& [key, prow] : pi) {
      auto it = ci.find(key);
      ASSERT_NE(it, ci.end()) << "key " << key << " missing from CPU result";
      const size_t crow = it->second;
      EXPECT_EQ(part->table->column(1).int64_data()[prow],
                cpu->table->column(1).int64_data()[crow]);
      EXPECT_EQ(part->table->column(2).int64_data()[prow],
                cpu->table->column(2).int64_data()[crow]);
      EXPECT_DOUBLE_EQ(part->table->column(3).float64_data()[prow],
                       cpu->table->column(3).float64_data()[crow]);
      // Double SUM accumulates in a different order across lanes.
      const double pv = part->table->column(4).float64_data()[prow];
      const double cv = cpu->table->column(4).float64_data()[crow];
      EXPECT_NEAR(pv, cv, 1e-9 * std::max(1.0, std::abs(cv)));
    }
  }

  gpusim::HostSpec host_;
  gpusim::DeviceSpec spec_;
  gpusim::SimDevice d0_{0, spec_.WithMemory(4ULL << 20), host_, 2};
  gpusim::SimDevice d1_{1, spec_.WithMemory(4ULL << 20), host_, 2};
  sched::GpuScheduler scheduler_{{&d0_, &d1_}};
  gpusim::PinnedHostPool pinned_{64ULL << 20};
  runtime::ThreadPool pool_{4};
};

std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> selection(t.num_rows());
  for (uint32_t i = 0; i < selection.size(); ++i) selection[i] = i;
  return selection;
}

TEST_F(PartitionedDifferentialTest, BothLanesConcurrent) {
  auto t = MakeTable(120000, KeyShape::kUniform);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  PartitionedOptions options;
  options.cpu_split_fraction = 0.5;  // both lanes busy at once
  PartitionedStats stats;
  ExpectMatchesCpu(plan.value(), AllRows(*t), options, &stats);
  EXPECT_GT(stats.cpu_rows, 0u);
  EXPECT_GT(stats.gpu_rows, 0u);
  EXPECT_EQ(stats.cpu_rows + stats.gpu_rows, t->num_rows());
}

TEST_F(PartitionedDifferentialTest, SkewedPartitions) {
  auto t = MakeTable(100000, KeyShape::kSkewed);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  PartitionedStats stats;
  ExpectMatchesCpu(plan.value(), AllRows(*t), {}, &stats);
}

TEST_F(PartitionedDifferentialTest, SingleKeyOversizePartition) {
  // Every row hashes to one partition; it exceeds the device chunk bound
  // and must run on the CPU lane regardless of the split fraction.
  auto t = MakeTable(120000, KeyShape::kSingleKey);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  PartitionedOptions options;
  options.cpu_split_fraction = 0.0;
  PartitionedStats stats;
  ExpectMatchesCpu(plan.value(), AllRows(*t), options, &stats);
  ASSERT_EQ(stats.chunks.size(), 1u);
  EXPECT_FALSE(stats.chunks[0].on_gpu);
  EXPECT_EQ(stats.cpu_rows, t->num_rows());
}

TEST_F(PartitionedDifferentialTest, FewDistinctKeysLeaveEmptyPartitions) {
  auto t = MakeTable(80000, KeyShape::kFewDistinct);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  PartitionedStats stats;
  ExpectMatchesCpu(plan.value(), AllRows(*t), {}, &stats);
  // At most 4 groups -> at most 4 used partitions out of >= 8.
  EXPECT_LE(stats.chunks.size(), 4u);
  EXPECT_GE(stats.num_partitions, 8u);
}

TEST_F(PartitionedDifferentialTest, WideMultiColumnKeys) {
  // Two wide int64 key columns force the wide-key (Murmur) partition
  // hash and the SoA staging path on device chunks.
  Schema schema;
  schema.AddField({"k1", DataType::kInt64, false});
  schema.AddField({"k2", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(77);
  for (uint64_t i = 0; i < 90000; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(50)) * (1LL << 40));
    t->column(1).AppendInt64(static_cast<int64_t>(rng.Below(40)) * (1LL << 40));
    t->column(2).AppendInt64(rng.Range(-100, 100));
  }
  GroupBySpec spec;
  spec.key_columns = {0, 1};
  spec.aggregates = {{AggFn::kSum, 2, "s"}, {AggFn::kCount, -1, "n"}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().wide_key());
  const std::vector<uint32_t> selection = AllRows(*t);

  PartitionedOptions options;
  options.cpu_split_fraction = 0.5;
  PartitionedStats stats;
  auto pieces = PartitionedGroupBy::Execute(
      plan.value(), &scheduler_, &pinned_, &pool_, &selection,
      Fanout::kHashPartitioned, options, &stats);
  ASSERT_TRUE(pieces.ok()) << pieces.status().ToString();
  auto part = runtime::MaterializeOutput(plan.value(), *pieces);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  auto cpu =
      runtime::CpuGroupBy::Execute(plan.value(), /*pool=*/nullptr, &selection);
  ASSERT_TRUE(cpu.ok());
  ASSERT_EQ(part->num_groups, cpu->num_groups);

  auto index = [](const Table& tt) {
    std::map<std::pair<int64_t, int64_t>, size_t> m;
    for (size_t r = 0; r < tt.num_rows(); ++r) {
      m[{tt.column(0).int64_data()[r], tt.column(1).int64_data()[r]}] = r;
    }
    return m;
  };
  const auto pi = index(*part->table);
  const auto ci = index(*cpu->table);
  ASSERT_EQ(pi.size(), ci.size());
  for (const auto& [key, prow] : pi) {
    auto it = ci.find(key);
    ASSERT_NE(it, ci.end());
    EXPECT_EQ(part->table->column(2).int64_data()[prow],
              cpu->table->column(2).int64_data()[it->second]);
    EXPECT_EQ(part->table->column(3).int64_data()[prow],
              cpu->table->column(3).int64_data()[it->second]);
  }
}

TEST_F(PartitionedDifferentialTest, OnePartitionDeferredScanWithStageFilter) {
  // The single-device run: no row ids, the predicate evaluated by the fused
  // staging sweep, one chunk on one device, no sweep and no merge.
  auto t = MakeTable(60000, KeyShape::kUniform);
  auto made = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(made.ok());
  GroupByPlan plan = std::move(made).value();
  runtime::Predicate positive;
  positive.column = 1;
  positive.op = runtime::CmpOp::kGe;
  positive.lo = 0;
  auto selection = runtime::FilterScan(*t, {positive}, &pool_);
  ASSERT_TRUE(selection.ok());
  ASSERT_LT(selection->size(), t->num_rows());
  plan.set_stage_filter({positive});
  PartitionedOptions options;
  options.gpu.estimated_rows = selection->size();
  options.gpu.estimated_groups = 3000;
  PartitionedStats stats;
  ExpectMatchesCpu(plan, *selection, options, &stats, Fanout::kOnePartition,
                   /*deferred=*/true);
  EXPECT_EQ(stats.num_partitions, 1u);
  EXPECT_EQ(stats.stage_mode, StageMode::kFusedRecords);
  ASSERT_EQ(stats.chunks.size(), 1u);
  EXPECT_TRUE(stats.chunks[0].on_gpu);
  EXPECT_TRUE(stats.chunks[0].gpu.fused);
  EXPECT_EQ(stats.chunks[0].gpu.rows_scanned, t->num_rows());
  EXPECT_EQ(stats.gpu_rows, selection->size());
  EXPECT_EQ(stats.cpu_rows, 0u);
  EXPECT_EQ(stats.cpu_split_fraction, 0.0);
  EXPECT_EQ(stats.partition_time, 0);
  EXPECT_EQ(stats.merge_time, 0);
  EXPECT_EQ(stats.stage_time, stats.chunks[0].gpu.stage_time);
}

TEST_F(PartitionedDifferentialTest, HashPartitioningNeedsRowIds) {
  auto t = MakeTable(1000, KeyShape::kUniform);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  PartitionedStats stats;
  auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_, &pinned_,
                                         &pool_, /*selection=*/nullptr,
                                         Fanout::kHashPartitioned, {}, &stats);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PartitionedDifferentialTest, EmptySelection) {
  auto t = MakeTable(1000, KeyShape::kUniform);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  const std::vector<uint32_t> empty;
  PartitionedStats stats;
  auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_, &pinned_,
                                         &pool_, &empty,
                                         Fanout::kHashPartitioned, {}, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(runtime::NumGroups(*out), 0u);
  auto table = runtime::MaterializeGroups(plan.value(), *out);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 0u);
}

TEST_F(PartitionedDifferentialTest, ChunksCarryOwningQueryTaskTag) {
  // Device-checker attribution: partition work spawned on lane driver
  // threads must charge the owning query's task tag, not tag 0.
  auto t = MakeTable(60000, KeyShape::kUniform);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());
  const std::vector<uint32_t> selection = AllRows(*t);
  constexpr uint64_t kTag = 0xfeedbeef;
  PartitionedOptions options;
  options.cpu_split_fraction = 0.5;
  PartitionedStats stats;
  {
    common::ScopedTaskTag tag(kTag);
    auto out = PartitionedGroupBy::Execute(plan.value(), &scheduler_, &pinned_,
                                           &pool_, &selection,
                                           Fanout::kHashPartitioned, options,
                                           &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  ASSERT_FALSE(stats.chunks.empty());
  for (const auto& c : stats.chunks) {
    EXPECT_EQ(c.task_tag, kTag)
        << "partition " << c.partition << " (on_gpu=" << c.on_gpu
        << ") lost the owning query's tag";
  }
}

}  // namespace
}  // namespace blusim::groupby
