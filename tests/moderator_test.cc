// Tests for the GPU moderator's kernel choice (section 4.2): the cheapest
// modeled kernel among the feasible ones.

#include "groupby/moderator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "columnar/table.h"
#include "common/rng.h"
#include "groupby/gpu_groupby.h"
#include "groupby/kernels.h"

namespace blusim::groupby {
namespace {

using gpusim::GroupByKernelKind;
using gpusim::GroupByKernelParams;

class ModeratorTest : public ::testing::Test {
 protected:
  ModeratorTest() {
    columnar::Schema schema;
    schema.AddField({"k", columnar::DataType::kInt64, false});
    schema.AddField({"v", columnar::DataType::kInt64, false});
    table_ = std::make_unique<columnar::Table>(schema);
    table_->column(0).AppendInt64(1);
    table_->column(1).AppendInt64(1);
    runtime::GroupBySpec spec;
    spec.key_columns = {0};
    spec.aggregates = {{runtime::AggFn::kSum, 1, "s"}};
    auto plan = runtime::GroupByPlan::Make(*table_, spec);
    plan_ = std::make_unique<runtime::GroupByPlan>(std::move(plan).value());
    layout_ = std::make_unique<HashTableLayout>(*plan_);
  }

  static GroupByKernelParams Params(uint64_t rows, uint64_t groups,
                                    int aggs) {
    GroupByKernelParams p;
    p.rows = rows;
    p.groups = groups;
    p.num_aggregates = aggs;
    return p;
  }

  GroupByKernelKind Choose(const GroupByKernelParams& p) const {
    return GpuModerator::ChooseKernel(cost_, p, *layout_, kSharedMem);
  }

  SimTime ModelTime(GroupByKernelKind kind,
                    const GroupByKernelParams& p) const {
    return p.record_bytes > 0 ? cost_.FusedScanAggregateTime(kind, p)
                              : cost_.GroupByKernelTime(kind, p);
  }

  // Reference: the first kernel, in the order 1, 2, 3, whose modeled time
  // is the minimum over the feasible kernels.
  GroupByKernelKind ReferenceArgmin(const GroupByKernelParams& p,
                                    uint64_t shared_cap) const {
    std::vector<GroupByKernelKind> feasible = {GroupByKernelKind::kRegular};
    if (!p.wide_key && 2 * p.groups <= shared_cap) {
      feasible.push_back(GroupByKernelKind::kSharedMem);
    }
    feasible.push_back(GroupByKernelKind::kRowLock);
    return *std::min_element(
        feasible.begin(), feasible.end(),
        [&](GroupByKernelKind a, GroupByKernelKind b) {
          return ModelTime(a, p) < ModelTime(b, p);
        });
  }

  static constexpr uint64_t kSharedMem = 48 << 10;

  gpusim::CostModel cost_{gpusim::HostSpec{}, gpusim::DeviceSpec{}};
  std::unique_ptr<columnar::Table> table_;
  std::unique_ptr<runtime::GroupByPlan> plan_;
  std::unique_ptr<HashTableLayout> layout_;
};

TEST_F(ModeratorTest, RegularQueriesGetKernel1) {
  EXPECT_EQ(Choose(Params(4000000, 50000, 3)), GroupByKernelKind::kRegular);
}

TEST_F(ModeratorTest, FewGroupsGetKernel2) {
  // The paper's example: grouping employees by birth month (12 groups).
  EXPECT_EQ(Choose(Params(4000000, 12, 3)), GroupByKernelKind::kSharedMem);
}

TEST_F(ModeratorTest, ManyAggregatesGetKernel3) {
  // Section 4.3.3 names "more than 5" aggregation functions; the model
  // already prices kernel 3 below kernel 1 at 5 on this shape
  // (473 us vs 545 us).
  EXPECT_EQ(Choose(Params(4000000, 50000, 6)), GroupByKernelKind::kRowLock);
  const GroupByKernelParams five = Params(4000000, 50000, 5);
  EXPECT_EQ(Choose(five), GroupByKernelKind::kRowLock);
  EXPECT_LT(ModelTime(GroupByKernelKind::kRowLock, five),
            ModelTime(GroupByKernelKind::kRegular, five));
}

TEST_F(ModeratorTest, LowContentionGetsKernel3) {
  EXPECT_EQ(Choose(Params(1000000, 800000, 3)), GroupByKernelKind::kRowLock);
}

TEST_F(ModeratorTest, WideKeysNeverGetKernel2) {
  GroupByKernelParams p = Params(4000000, 12, 3);
  ASSERT_EQ(Choose(p), GroupByKernelKind::kSharedMem);
  p.wide_key = true;
  EXPECT_NE(Choose(p), GroupByKernelKind::kSharedMem);
}

TEST_F(ModeratorTest, LockTypedPayloadPrefersRowLock) {
  GroupByKernelParams p = Params(4000000, 50000, 3);
  p.lock_typed_payload = true;
  EXPECT_EQ(Choose(p), GroupByKernelKind::kRowLock);
}

TEST_F(ModeratorTest, OffloadShapesGetCheaperKernel) {
  // Fused-record group-bys from the benchmark's offload workload where the
  // section 4.3 thresholds picked the kernel the model prices slower.
  struct Case {
    uint64_t rows, groups;
    int aggs;
    GroupByKernelKind cheaper, slower;
  };
  for (const Case& c :
       {Case{200000, 3262, 5, GroupByKernelKind::kRowLock,
             GroupByKernelKind::kRegular},
        Case{200000, 14873, 5, GroupByKernelKind::kRowLock,
             GroupByKernelKind::kRegular},
        Case{104234, 29158, 2, GroupByKernelKind::kRegular,
             GroupByKernelKind::kRowLock}}) {
    GroupByKernelParams p = Params(c.rows, c.groups, c.aggs);
    p.record_bytes = 48;
    EXPECT_LT(ModelTime(c.cheaper, p), ModelTime(c.slower, p)) << c.groups;
    EXPECT_EQ(Choose(p), c.cheaper) << c.groups;
  }
}

TEST_F(ModeratorTest, ChoosesArgminOverFeasibleKernels) {
  const uint64_t shared_cap = SharedTableCapacity(*layout_, kSharedMem);
  ASSERT_GT(shared_cap, 0u);
  int shared_picks = 0;
  const std::vector<uint64_t> group_counts = {
      1, 12, shared_cap / 2, shared_cap / 2 + 1, 50000, 800000};
  for (uint64_t rows : {1000, 100000, 4000000}) {
    for (uint64_t groups : group_counts) {
      for (int aggs : {1, 3, 4, 5, 6, 8}) {
        for (bool wide : {false, true}) {
          for (bool lock_typed : {false, true}) {
            for (int record_bytes : {0, 48}) {
              GroupByKernelParams p = Params(rows, groups, aggs);
              p.wide_key = wide;
              p.lock_typed_payload = lock_typed;
              p.record_bytes = record_bytes;
              const GroupByKernelKind chosen = Choose(p);
              EXPECT_EQ(chosen, ReferenceArgmin(p, shared_cap))
                  << rows << " rows, " << groups << " groups, " << aggs
                  << " aggs, wide=" << wide << ", lock=" << lock_typed
                  << ", record_bytes=" << record_bytes;
              if (wide || 2 * groups > shared_cap) {
                EXPECT_NE(chosen, GroupByKernelKind::kSharedMem);
              }
              if (chosen == GroupByKernelKind::kSharedMem) ++shared_picks;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(shared_picks, 0);  // the grid reaches every kernel 2 branch
}

TEST_F(ModeratorTest, ExecuteRunsTheArgminKernel) {
  // 5 aggregates, 50 rows per group: the section 4.3 thresholds picked
  // kernel 1 here; the model prices kernel 3 lower.
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  auto table = std::make_shared<columnar::Table>(schema);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(rng.Below(2000)));
    table->column(1).AppendInt64(rng.Range(0, 100));
  }
  runtime::GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{runtime::AggFn::kSum, 1, "s"},
                     {runtime::AggFn::kMin, 1, "mn"},
                     {runtime::AggFn::kMax, 1, "mx"},
                     {runtime::AggFn::kCount, 1, "c"},
                     {runtime::AggFn::kCount, -1, "n"}};
  auto plan = runtime::GroupByPlan::Make(*table, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->slots().size(), 5u);

  gpusim::SimDevice device(0, gpusim::DeviceSpec{}, gpusim::HostSpec{}, 2);
  gpusim::PinnedHostPool pinned(64ULL << 20);
  runtime::ThreadPool pool(2);
  GpuModerator moderator;
  for (bool allow_fusion : {false, true}) {
    GpuGroupByOptions options;
    options.allow_fusion = allow_fusion;
    GpuGroupByStats stats;
    auto out = GpuGroupBy::Execute(plan.value(), &device, &pinned, &pool,
                                   &moderator, nullptr, options, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->num_groups, 2000u);

    GroupByKernelParams p = Params(stats.rows_staged,
                                   std::max<uint64_t>(1, stats.kmv_estimate),
                                   5);
    p.record_bytes = stats.fused ? 1 : 0;
    const HashTableLayout layout(plan.value());
    const uint64_t shared_cap =
        SharedTableCapacity(layout, device.usable_shared_mem());
    EXPECT_EQ(stats.kernel_used, ReferenceArgmin(p, shared_cap))
        << "fused=" << stats.fused;
    EXPECT_EQ(stats.kernel_used, GroupByKernelKind::kRowLock)
        << "fused=" << stats.fused;
  }
}

TEST(SharedTableCapacityTest, FitsBudget) {
  columnar::Schema schema;
  schema.AddField({"k", columnar::DataType::kInt64, false});
  schema.AddField({"v", columnar::DataType::kInt64, false});
  columnar::Table t(schema);
  t.column(0).AppendInt64(1);
  t.column(1).AppendInt64(1);
  runtime::GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{runtime::AggFn::kSum, 1, "s"}};
  auto plan = runtime::GroupByPlan::Make(t, spec);
  HashTableLayout layout(plan.value());
  const uint64_t cap = SharedTableCapacity(layout, 48 << 10);
  EXPECT_GT(cap, 0u);
  EXPECT_LE(cap * static_cast<uint64_t>(layout.entry_bytes()),
            static_cast<uint64_t>(48 << 10));
  // Doubling would not fit.
  EXPECT_GT(cap * 2 * static_cast<uint64_t>(layout.entry_bytes()),
            static_cast<uint64_t>(48 << 10));
  EXPECT_EQ(SharedTableCapacity(layout, 0), 0u);
}

}  // namespace
}  // namespace blusim::groupby
