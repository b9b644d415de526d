// Deep tests of the device group-by: each kernel forced and verified
// against the CPU chain, the overflow/retry error path, wide keys,
// lock-typed payloads, and the all-Fs key sentinel fallback.

#include "groupby/gpu_groupby.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "groupby/kernels.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"

namespace blusim::groupby {
namespace {

using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;
using gpusim::GroupByKernelKind;
using runtime::AggFn;
using runtime::GroupByPlan;
using runtime::GroupBySpec;

std::shared_ptr<Table> MakeTable(uint64_t rows, uint64_t groups,
                                 uint64_t seed, bool with_decimal = false,
                                 bool wide = false) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"k2", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  schema.AddField({"d", DataType::kFloat64, false});
  schema.AddField({"dec", DataType::kDecimal128, false});
  auto t = std::make_shared<Table>(schema);
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(groups)));
    t->column(1).AppendInt64(static_cast<int64_t>(rng.Below(3)));
    t->column(2).AppendInt64(rng.Range(-50, 50));
    t->column(3).AppendDouble(static_cast<double>(rng.Below(1000)) / 8.0);
    t->column(4).AppendDecimal(Decimal128(rng.Range(-9, 9)));
  }
  (void)with_decimal;
  (void)wide;
  return t;
}

GroupBySpec BasicSpec(bool with_decimal, bool wide, int extra_aggs = 0) {
  GroupBySpec spec;
  spec.key_columns = wide ? std::vector<int>{0, 1} : std::vector<int>{0};
  spec.aggregates = {{AggFn::kSum, 2, "sum_v"},
                     {AggFn::kCount, -1, "n"},
                     {AggFn::kMin, 3, "min_d"}};
  if (with_decimal) spec.aggregates.push_back({AggFn::kSum, 4, "dec"});
  for (int i = 0; i < extra_aggs; ++i) {
    spec.aggregates.push_back({AggFn::kMax, 3, "mx" + std::to_string(i)});
  }
  return spec;
}

class GpuGroupByTest : public ::testing::Test {
 protected:
  gpusim::DeviceSpec spec_;
  gpusim::HostSpec host_;
  gpusim::SimDevice device_{0, spec_, host_, 2};
  gpusim::PinnedHostPool pinned_{128ULL << 20};
  runtime::ThreadPool pool_{2};
  GpuModerator moderator_;

  // Runs GPU and CPU paths and verifies identical group structure and
  // integer/decimal aggregates (float sums compared with tolerance).
  void VerifyAgainstCpu(const Table& table, const GroupBySpec& spec,
                        GpuGroupByStats* stats,
                        const GpuGroupByOptions& options = {}) {
    auto plan = GroupByPlan::Make(table, spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto gpu = GpuGroupBy::Execute(plan.value(), &device_, &pinned_, &pool_,
                                   &moderator_, nullptr, options, stats);
    ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
    auto cpu = runtime::CpuGroupBy::Execute(plan.value(), &pool_);
    ASSERT_TRUE(cpu.ok());
    ASSERT_EQ(gpu->num_groups, cpu->num_groups);

    auto index = [&](const Table& t) {
      std::map<std::string, size_t> m;
      const size_t kcols = spec.key_columns.size();
      for (size_t r = 0; r < t.num_rows(); ++r) {
        std::string key;
        for (size_t c = 0; c < kcols; ++c) {
          key += std::to_string(t.column(c).GetInt64(r)) + "|";
        }
        m[key] = r;
      }
      return m;
    };
    const auto gi = index(*gpu->table);
    const auto ci = index(*cpu->table);
    ASSERT_EQ(gi.size(), ci.size());
    const size_t kcols = spec.key_columns.size();
    for (const auto& [key, grow] : gi) {
      auto it = ci.find(key);
      ASSERT_NE(it, ci.end()) << key;
      const size_t crow = it->second;
      for (size_t a = 0; a < spec.aggregates.size(); ++a) {
        const columnar::Column& gc = gpu->table->column(kcols + a);
        const columnar::Column& cc = cpu->table->column(kcols + a);
        switch (gc.type()) {
          case DataType::kFloat64:
            EXPECT_NEAR(gc.float64_data()[grow], cc.float64_data()[crow],
                        1e-6);
            break;
          case DataType::kDecimal128:
            EXPECT_EQ(gc.decimal_data()[grow], cc.decimal_data()[crow]);
            break;
          default:
            EXPECT_EQ(gc.GetInt64(grow), cc.GetInt64(crow));
            break;
        }
      }
    }
  }
};

TEST_F(GpuGroupByTest, Kernel1RegularPath) {
  auto t = MakeTable(40000, 3000, 1);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(false, false), &stats);
  EXPECT_EQ(stats.kernel_used, GroupByKernelKind::kRegular);
  EXPECT_EQ(stats.retries, 0);
}

TEST_F(GpuGroupByTest, Kernel2SharedMemPath) {
  auto t = MakeTable(40000, 8, 2);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(false, false), &stats);
  EXPECT_EQ(stats.kernel_used, GroupByKernelKind::kSharedMem);
}

TEST_F(GpuGroupByTest, Kernel3ManyAggregates) {
  auto t = MakeTable(40000, 3000, 3);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(false, false, /*extra_aggs=*/4), &stats);
  EXPECT_EQ(stats.kernel_used, GroupByKernelKind::kRowLock);
}

TEST_F(GpuGroupByTest, Kernel3LowContention) {
  // rows/groups ~ 1.1. Kernel 3 saves ~5 ns per row here; at 20k rows the
  // kernels' modeled times round to the same microsecond and the tie goes
  // to kernel 1, so the input is large enough for the saving to show.
  auto t = MakeTable(200000, 180000, 4);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(false, false), &stats);
  EXPECT_EQ(stats.kernel_used, GroupByKernelKind::kRowLock);
}

TEST_F(GpuGroupByTest, WideKeyLockInsertPath) {
  auto t = MakeTable(30000, 500, 5);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(false, /*wide=*/true), &stats);
}

TEST_F(GpuGroupByTest, DecimalLockTypedAggregation) {
  auto t = MakeTable(30000, 1000, 6);
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, BasicSpec(/*with_decimal=*/true, false), &stats);
}

TEST_F(GpuGroupByTest, NullPayloadsSkipped) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, true});
  auto t = std::make_shared<Table>(schema);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(100)));
    if (rng.NextDouble() < 0.25) t->column(1).AppendNull();
    else t->column(1).AppendInt64(rng.Range(0, 10));
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, 1, "n_v"},
                     {AggFn::kCount, -1, "n"}};
  GpuGroupByStats stats;
  VerifyAgainstCpu(*t, spec, &stats);
}

TEST_F(GpuGroupByTest, SentinelKeyFallsBackToCpu) {
  // A key of -1 packs to all-Fs, colliding with the empty-entry marker.
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 1000; ++i) {
    t->column(0).AppendInt64(i % 3 == 0 ? -1 : i % 7);
    t->column(1).AppendInt64(1);
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());
  GpuGroupByStats stats;
  auto out = GpuGroupBy::Execute(plan.value(), &device_, &pinned_, &pool_,
                                 &moderator_, nullptr, {}, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotSupported);
}

TEST_F(GpuGroupByTest, EmptySelectionYieldsEmptyTable) {
  auto t = MakeTable(100, 10, 9);
  auto plan = GroupByPlan::Make(*t, BasicSpec(false, false));
  ASSERT_TRUE(plan.ok());
  std::vector<uint32_t> empty_selection;
  GpuGroupByStats stats;
  auto out = GpuGroupBy::Execute(plan.value(), &device_, &pinned_, &pool_,
                                 &moderator_, &empty_selection, {}, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->table->num_rows(), 0u);
}

TEST_F(GpuGroupByTest, ReservationReleasedAfterExecution) {
  auto t = MakeTable(30000, 1000, 10);
  auto plan = GroupByPlan::Make(*t, BasicSpec(false, false));
  GpuGroupByStats stats;
  auto out = GpuGroupBy::Execute(plan.value(), &device_, &pinned_, &pool_,
                                 &moderator_, nullptr, {}, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(device_.memory().reserved(), 0u);
  EXPECT_EQ(pinned_.allocated(), 0u);
  EXPECT_EQ(device_.outstanding_jobs(), 0);
}

TEST_F(GpuGroupByTest, DeviceTooSmallReturnsRecoverableStatus) {
  gpusim::SimDevice tiny(1, spec_.WithMemory(4096), host_, 1);
  auto t = MakeTable(30000, 1000, 11);
  auto plan = GroupByPlan::Make(*t, BasicSpec(false, false));
  GpuGroupByStats stats;
  auto out = GpuGroupBy::Execute(plan.value(), &tiny, &pinned_, &pool_,
                                 &moderator_, nullptr, {}, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsRecoverableOnHost());
}

// Direct kernel test: a deliberately tiny table must overflow and report
// it via the overflow counter (the error-detection path of section 4.2).
TEST_F(GpuGroupByTest, KernelReportsOverflowOnFullTable) {
  auto t = MakeTable(5000, 1000, 12);
  auto plan = GroupByPlan::Make(*t, BasicSpec(false, false));
  ASSERT_TRUE(plan.ok());
  auto staged = StageForDevice(plan.value(), &pinned_, &pool_, nullptr);
  ASSERT_TRUE(staged.ok());

  const HashTableLayout layout(plan.value());
  const uint64_t capacity = 64;  // far fewer than 1000 groups
  auto reservation = device_.memory().Reserve(
      layout.TableBytes(capacity) + staged->pinned_bytes());
  ASSERT_TRUE(reservation.ok());

  DeviceInput input;
  input.rows = staged->rows;
  input.wide_key = false;
  auto upload = [&](const gpusim::PinnedBuffer& src,
                    gpusim::DeviceBuffer* dst) {
    auto buf = device_.memory().Alloc(reservation.value(), src.size());
    ASSERT_TRUE(buf.ok());
    device_.CopyToDevice(src.data(), &buf.value(), src.size(), true);
    *dst = std::move(buf).value();
  };
  upload(staged->keys, &input.keys);
  upload(staged->row_ids, &input.row_ids);
  input.slots.resize(plan->slots().size());
  for (size_t s = 0; s < plan->slots().size(); ++s) {
    if (staged->payloads[s].valid()) {
      upload(staged->payloads[s], &input.slots[s].values);
    }
  }

  auto table_buf = device_.memory().Alloc(reservation.value(),
                                          layout.TableBytes(capacity));
  ASSERT_TRUE(table_buf.ok());
  ASSERT_TRUE(InitHashTable(&device_, layout, plan.value(),
                            table_buf->data(), capacity)
                  .ok());
  std::atomic<uint64_t> overflow{0};
  GroupByKernelArgs args;
  args.plan = &plan.value();
  args.layout = &layout;
  args.input = &input;
  args.table = table_buf->data();
  args.capacity = capacity;
  args.overflow = &overflow;
  ASSERT_TRUE(RunKernelRegular(&device_, args).ok());
  EXPECT_GT(overflow.load(), 0u);
}

}  // namespace
}  // namespace blusim::groupby
