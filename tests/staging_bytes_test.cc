// Regression tests for staged-bytes accounting: StagedInput::transfer_bytes
// must report the true wire size of the staged data, not the 64-byte-aligned
// pinned allocations (the old total_bytes() bug), and the GPU group-by's
// bytes-moved stats must match the staged/readback sizes exactly.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpusim/cost_model.h"
#include "groupby/gpu_groupby.h"
#include "groupby/layout.h"
#include "groupby/staging.h"
#include "runtime/groupby_plan.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

// 1001 rows: no per-row size divides 64, so every pinned allocation carries
// alignment slack and any aligned-size accounting over-reports.
std::shared_ptr<Table> MakeTable(uint64_t rows = 1001) {
  Schema schema;
  schema.AddField({"k", DataType::kInt32, false});
  schema.AddField({"v", DataType::kInt64, true});
  auto t = std::make_shared<Table>(schema);
  Rng rng(17);
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(static_cast<int32_t>(rng.Below(37)));
    if (rng.NextDouble() < 0.2) {
      t->column(1).AppendNull();
    } else {
      t->column(1).AppendInt64(rng.Range(-100, 100));
    }
  }
  return t;
}

GroupBySpec Spec() {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}, {AggFn::kCount, -1, "n"}};
  return spec;
}

TEST(StagingBytesTest, SoATransferBytesAreExactNotAligned) {
  auto t = MakeTable();
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());

  gpusim::PinnedHostPool pinned(32ULL << 20);
  auto staged = StageForDevice(plan.value(), &pinned, nullptr, nullptr,
                               StageMode::kSoA);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();

  // key 8 + row id 4 + SUM value 8 + validity 1 per row; COUNT(*) ships
  // nothing.
  const uint64_t rows = t->num_rows();
  EXPECT_EQ(staged->transfer_bytes, rows * (8 + 4 + 8 + 1));
  EXPECT_EQ(staged->transfer_bytes,
            StagedBytes(plan.value(), StageMode::kSoA, rows));
  // The pinned footprint includes the pool's 64-byte alignment slack, so
  // it must be strictly larger than the wire size (the old bug reported
  // the former as the latter).
  EXPECT_GT(staged->pinned_bytes(), staged->transfer_bytes);
}

TEST(StagingBytesTest, FusedTransferBytesAreRecordStreamSize) {
  auto t = MakeTable();
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());

  gpusim::PinnedHostPool pinned(32ULL << 20);
  auto staged = StageForDevice(plan.value(), &pinned, nullptr, nullptr,
                               StageMode::kFusedRecords);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();

  // 32-bit key 4 + validity tag 1 + SUM value at input width 8 = 13.
  ASSERT_TRUE(staged->fused);
  EXPECT_EQ(staged->record_layout.record_bytes, 13);
  EXPECT_EQ(staged->transfer_bytes,
            staged->rows * static_cast<uint64_t>(
                               staged->record_layout.record_bytes));
  EXPECT_LT(staged->transfer_bytes,
            StagedBytes(plan.value(), StageMode::kSoA, staged->rows));
  EXPECT_EQ(staged->rows, t->num_rows());  // no stage filter: all survive
  EXPECT_EQ(staged->host_row_ids.size(), staged->rows);
}

TEST(StagingBytesTest, GpuStatsReportTrueWireBytes) {
  auto t = MakeTable(4096);
  auto plan = GroupByPlan::Make(*t, Spec());
  ASSERT_TRUE(plan.ok());

  gpusim::DeviceSpec dspec;
  gpusim::HostSpec hspec;
  gpusim::SimDevice device(0, dspec, hspec, 2);
  gpusim::PinnedHostPool pinned(32ULL << 20);
  runtime::ThreadPool pool(2);
  GpuModerator moderator;

  GpuGroupByOptions options;
  options.allow_fusion = false;  // SoA: bytes_in must be the logical sum
  GpuGroupByStats stats;
  auto out = GpuGroupBy::Execute(plan.value(), &device, &pinned, &pool,
                                 &moderator, nullptr, options, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(stats.fused);
  EXPECT_EQ(stats.bytes_in,
            StagedBytes(plan.value(), StageMode::kSoA, t->num_rows()));

  const HashTableLayout layout(plan.value());
  EXPECT_EQ(stats.bytes_out, layout.TableBytes(stats.table_capacity));

  // Fused run over the same input: fewer input bytes, same readback.
  options.allow_fusion = true;
  GpuGroupByStats fused_stats;
  auto fused_out = GpuGroupBy::Execute(plan.value(), &device, &pinned, &pool,
                                       &moderator, nullptr, options,
                                       &fused_stats);
  ASSERT_TRUE(fused_out.ok()) << fused_out.status().ToString();
  ASSERT_TRUE(fused_stats.fused);
  EXPECT_LT(fused_stats.bytes_in, stats.bytes_in);
  EXPECT_EQ(fused_stats.bytes_avoided, stats.bytes_in - fused_stats.bytes_in);
  EXPECT_EQ(fused_stats.rows_scanned, t->num_rows());
  EXPECT_EQ(fused_stats.rows_staged, t->num_rows());
}

TEST(StagingBytesTest, FusedKernelModelIsCheaperThanSoA) {
  gpusim::HostSpec host;
  gpusim::DeviceSpec device;
  gpusim::CostModel cost(host, device);

  gpusim::GroupByKernelParams p;
  p.rows = 1 << 20;
  p.groups = 4096;
  p.num_aggregates = 3;
  for (auto kind : {gpusim::GroupByKernelKind::kRegular,
                    gpusim::GroupByKernelKind::kSharedMem,
                    gpusim::GroupByKernelKind::kRowLock}) {
    EXPECT_LT(cost.FusedScanAggregateTime(kind, p),
              cost.GroupByKernelTime(kind, p))
        << gpusim::GroupByKernelKindName(kind);
  }
}

}  // namespace
}  // namespace blusim::groupby
