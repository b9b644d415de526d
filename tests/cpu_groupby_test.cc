// Property tests for the CPU group-by chain (figure 1) against a naive
// std::map reference, parameterized across key shapes, group counts, null
// density and data types.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "columnar/table.h"
#include "common/hash.h"
#include "common/rng.h"
#include "runtime/cpu_groupby.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;

struct Params {
  uint64_t rows;
  uint64_t groups;
  double null_fraction;
  bool wide_key;   // group by (i64, i32) instead of i64
  bool use_selection;
};

class CpuGroupByParamTest : public ::testing::TestWithParam<Params> {};

struct Ref {
  int64_t sum_i = 0;
  double sum_d = 0;
  int64_t count_star = 0;
  int64_t count_col = 0;
  double min_d = 1e308;
  Decimal128 dec_sum;
};

TEST_P(CpuGroupByParamTest, MatchesNaiveReference) {
  const Params p = GetParam();
  Schema schema;
  schema.AddField({"k1", DataType::kInt64, false});
  schema.AddField({"k2", DataType::kInt32, false});
  schema.AddField({"vi", DataType::kInt64, true});
  schema.AddField({"vd", DataType::kFloat64, false});
  schema.AddField({"dec", DataType::kDecimal128, false});
  Table t(schema);
  Rng rng(p.rows + p.groups);
  std::vector<bool> null_at(p.rows);
  for (uint64_t i = 0; i < p.rows; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(p.groups)));
    t.column(1).AppendInt32(static_cast<int32_t>(rng.Below(3)));
    null_at[i] = rng.NextDouble() < p.null_fraction;
    if (null_at[i]) t.column(2).AppendNull();
    else t.column(2).AppendInt64(rng.Range(-100, 100));
    t.column(3).AppendDouble(static_cast<double>(rng.Below(1000)) / 4.0);
    t.column(4).AppendDecimal(Decimal128(rng.Range(-1000, 1000)));
  }

  std::vector<uint32_t> selection;
  const std::vector<uint32_t>* sel_ptr = nullptr;
  if (p.use_selection) {
    for (uint32_t i = 0; i < p.rows; i += 3) selection.push_back(i);
    sel_ptr = &selection;
  }

  GroupBySpec spec;
  spec.key_columns = p.wide_key ? std::vector<int>{0, 1}
                                : std::vector<int>{0};
  spec.aggregates = {{AggFn::kSum, 2, "sum_i"},   {AggFn::kSum, 3, "sum_d"},
                     {AggFn::kCount, -1, "n"},    {AggFn::kCount, 2, "n_i"},
                     {AggFn::kMin, 3, "min_d"},   {AggFn::kSum, 4, "dec"},
                     {AggFn::kAvg, 3, "avg_d"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->wide_key(), p.wide_key);

  ThreadPool pool(2);
  auto out = CpuGroupBy::Execute(plan.value(), &pool, sel_ptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Naive reference.
  std::map<std::pair<int64_t, int32_t>, Ref> ref;
  const uint64_t n = sel_ptr ? selection.size() : p.rows;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row = sel_ptr ? selection[i] : static_cast<uint32_t>(i);
    std::pair<int64_t, int32_t> key{t.column(0).int64_data()[row],
                                    p.wide_key
                                        ? t.column(1).int32_data()[row]
                                        : 0};
    Ref& r = ref[key];
    if (!null_at[row]) {
      r.sum_i += t.column(2).int64_data()[row];
      ++r.count_col;
    }
    r.sum_d += t.column(3).float64_data()[row];
    ++r.count_star;
    r.min_d = std::min(r.min_d, t.column(3).float64_data()[row]);
    r.dec_sum += t.column(4).decimal_data()[row];
  }
  ASSERT_EQ(out->num_groups, ref.size());

  const Table& result = *out->table;
  const size_t kcols = spec.key_columns.size();
  for (size_t r = 0; r < result.num_rows(); ++r) {
    std::pair<int64_t, int32_t> key{result.column(0).int64_data()[r],
                                    p.wide_key
                                        ? result.column(1).int32_data()[r]
                                        : 0};
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    const Ref& e = it->second;
    EXPECT_EQ(result.column(kcols + 0).int64_data()[r], e.sum_i);
    EXPECT_NEAR(result.column(kcols + 1).float64_data()[r], e.sum_d,
                1e-6 * std::abs(e.sum_d) + 1e-9);
    EXPECT_EQ(result.column(kcols + 2).int64_data()[r], e.count_star);
    EXPECT_EQ(result.column(kcols + 3).int64_data()[r], e.count_col);
    EXPECT_DOUBLE_EQ(result.column(kcols + 4).float64_data()[r], e.min_d);
    EXPECT_EQ(result.column(kcols + 5).decimal_data()[r], e.dec_sum);
    const double avg = e.sum_d / static_cast<double>(e.count_star);
    EXPECT_NEAR(result.column(kcols + 6).float64_data()[r], avg,
                1e-6 * std::abs(avg) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuGroupByParamTest,
    ::testing::Values(Params{100, 5, 0.0, false, false},
                      Params{5000, 100, 0.0, false, false},
                      Params{5000, 100, 0.3, false, false},
                      Params{20000, 1000, 0.1, false, false},
                      Params{20000, 7, 0.0, true, false},
                      Params{20000, 900, 0.2, true, false},
                      Params{10000, 50, 0.0, false, true},
                      Params{10000, 10000, 0.0, false, false},
                      Params{1, 1, 0.0, false, false},
                      Params{70000, 3, 0.0, false, false}));

TEST(CpuGroupByTest, EmptyInputYieldsEmptyResult) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());
  auto out = CpuGroupBy::Execute(plan.value(), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_groups, 0u);
  EXPECT_EQ(out->table->num_rows(), 0u);
}

TEST(CpuGroupByTest, WorksWithoutThreadPool) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    t.column(0).AppendInt64(i % 4);
    t.column(1).AppendInt64(1);
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  auto plan = GroupByPlan::Make(t, spec);
  auto out = CpuGroupBy::Execute(plan.value(), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_groups, 4u);
  EXPECT_EQ(out->table->column(1).int64_data()[0], 25);
}

TEST(CpuGroupByTest, HashPartitionRangeEstimatesAndShardsBelowItsBits) {
  // One HashPartition range of 8 (partition 5) over a two-morsel input:
  // every key hash shares the range's top 3 bits. Told so, the chain
  // (given no estimate) counts the range's own groups and, its keys being
  // near-unique, spreads its own partitions by the bits below; reading the
  // shared bits instead estimates from the partition index and sends every
  // row to one partition.
  constexpr uint32_t kPartitions = 8;
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kInt64, false});
  Table t(schema);
  Rng rng(5);
  for (int i = 0; i < 600000; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(2000000)));
    t.column(1).AppendInt64(1);
  }
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());
  std::vector<uint32_t> partition;
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    if (HashPartition(plan->KeyHash(row), kPartitions) == 5) {
      partition.push_back(row);
    }
  }
  ASSERT_GT(partition.size(), CpuGroupBy::kMorselRows);

  ThreadPool pool(3);
  CpuGroupByStats stats;
  auto out = CpuGroupBy::ExecuteToFlat(plan.value(), &pool, &partition,
                                       kPartitions, /*estimated_groups=*/0,
                                       &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.strategy, CpuGroupByStrategy::kPartition);
  EXPECT_GT(stats.partitions, 1u);
  EXPECT_EQ(stats.nonempty_partitions, stats.partitions);
  EXPECT_EQ(stats.partial_groups, NumGroups(*out));
}

// Near-unique keys take the partition-first strategy: a narrow (packed
// int64) key and a 24-byte wide key (three int64 columns), with a nullable
// payload and a DECIMAL128 payload, over a selection of several morsels.
TEST(CpuGroupByTest, PartitionFirstMatchesReferenceNarrowAndWide) {
  constexpr uint64_t kRows = 160000;
  Schema schema;
  schema.AddField({"a", DataType::kInt64, false});
  schema.AddField({"b", DataType::kInt64, false});
  schema.AddField({"c", DataType::kInt64, false});
  schema.AddField({"vi", DataType::kInt64, true});
  schema.AddField({"dec", DataType::kDecimal128, false});
  Table t(schema);
  Rng rng(2024);
  std::vector<bool> null_at(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(5000000)));
    t.column(1).AppendInt64(static_cast<int64_t>(rng.Next() >> 1));
    t.column(2).AppendInt64(static_cast<int64_t>(rng.Below(7)));
    null_at[i] = rng.NextDouble() < 0.3;
    if (null_at[i]) t.column(3).AppendNull();
    else t.column(3).AppendInt64(rng.Range(-100, 100));
    t.column(4).AppendDecimal(Decimal128(rng.Range(-100000, 100000)));
  }
  std::vector<uint32_t> selection;
  for (uint32_t i = 0; i < kRows; ++i) {
    if (i % 7 != 3) selection.push_back(i);
  }

  for (const bool wide : {false, true}) {
    GroupBySpec spec;
    spec.key_columns = wide ? std::vector<int>{0, 1, 2} : std::vector<int>{0};
    spec.aggregates = {{AggFn::kSum, 3, "sum_i"},
                       {AggFn::kCount, 3, "n_i"},
                       {AggFn::kCount, -1, "n"},
                       {AggFn::kSum, 4, "dec"},
                       {AggFn::kMax, 4, "dec_max"}};
    auto plan = GroupByPlan::Make(t, spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->wide_key(), wide);
    ASSERT_EQ(plan->key_bytes(), wide ? 24 : 8);

    struct RefGroup {
      int64_t sum_i = 0;
      int64_t n_i = 0;
      int64_t n = 0;
      Decimal128 dec;
      Decimal128 dec_max = Decimal128(std::numeric_limits<int64_t>::min());
    };
    std::map<std::tuple<int64_t, int64_t, int64_t>, RefGroup> ref;
    for (uint32_t row : selection) {
      const auto key = std::make_tuple(
          t.column(0).int64_data()[row],
          wide ? t.column(1).int64_data()[row] : 0,
          wide ? t.column(2).int64_data()[row] : 0);
      RefGroup& g = ref[key];
      if (!null_at[row]) {
        g.sum_i += t.column(3).int64_data()[row];
        ++g.n_i;
      }
      ++g.n;
      g.dec += t.column(4).decimal_data()[row];
      g.dec_max = std::max(g.dec_max, t.column(4).decimal_data()[row]);
    }

    ThreadPool pool(3);
    CpuGroupByStats stats;
    auto out = CpuGroupBy::Execute(plan.value(), &pool, &selection,
                                   /*estimated_groups=*/0, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(stats.strategy, CpuGroupByStrategy::kPartition);
    ASSERT_EQ(out->num_groups, ref.size());
    const Table& res = *out->table;
    const size_t k = spec.key_columns.size();
    for (size_t r = 0; r < res.num_rows(); ++r) {
      const auto key = std::make_tuple(
          res.column(0).int64_data()[r],
          wide ? res.column(1).int64_data()[r] : 0,
          wide ? res.column(2).int64_data()[r] : 0);
      auto it = ref.find(key);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(res.column(k + 0).int64_data()[r], it->second.sum_i);
      EXPECT_EQ(res.column(k + 1).int64_data()[r], it->second.n_i);
      EXPECT_EQ(res.column(k + 2).int64_data()[r], it->second.n);
      EXPECT_EQ(res.column(k + 3).decimal_data()[r], it->second.dec);
      EXPECT_EQ(res.column(k + 4).decimal_data()[r], it->second.dec_max);
    }
  }
}

// The estimate sizes the tables and nothing else: estimates of 1, the
// exact count, 10x it and none (the chain counts the keys itself) give the
// same result table, row for row. The estimate of 1 undersizes every local
// table, which then grows.
TEST(CpuGroupByTest, EstimateOnlySizesTables) {
  Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"g", DataType::kInt32, false});
  schema.AddField({"v", DataType::kInt64, true});
  schema.AddField({"d", DataType::kFloat64, false});
  Table t(schema);
  Rng rng(314);
  for (int i = 0; i < 300000; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(3000)));
    t.column(1).AppendInt32(static_cast<int32_t>(rng.Below(2)));
    if (rng.NextDouble() < 0.1) t.column(2).AppendNull();
    else t.column(2).AppendInt64(rng.Range(-1000, 1000));
    t.column(3).AppendDouble(rng.NextDouble());
  }
  std::vector<uint32_t> selection;
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    if (row % 5 != 1) selection.push_back(row);
  }
  GroupBySpec spec;
  spec.key_columns = {0, 1};
  spec.aggregates = {{AggFn::kSum, 2, "s"},
                     {AggFn::kCount, 2, "n"},
                     {AggFn::kSum, 3, "sd"},
                     {AggFn::kMax, 3, "mx"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());

  ThreadPool pool(3);
  auto reference = CpuGroupBy::Execute(plan.value(), &pool, &selection);
  ASSERT_TRUE(reference.ok());
  const uint64_t groups = reference->num_groups;
  ASSERT_GT(groups, 5000u);
  for (const uint64_t estimate :
       {uint64_t{1}, groups, 10 * groups, uint64_t{0}}) {
    CpuGroupByStats stats;
    auto out =
        CpuGroupBy::Execute(plan.value(), &pool, &selection, estimate, &stats);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(stats.strategy, CpuGroupByStrategy::kLocal);
    if (estimate == 1) {
      EXPECT_GT(stats.local_rehashes, 0u);
    }
    const Table& a = *reference->table;
    const Table& b = *out->table;
    ASSERT_EQ(a.num_rows(), b.num_rows()) << "estimate " << estimate;
    EXPECT_EQ(a.column(0).int64_data(), b.column(0).int64_data());
    EXPECT_EQ(a.column(1).int32_data(), b.column(1).int32_data());
    EXPECT_EQ(a.column(2).int64_data(), b.column(2).int64_data());
    EXPECT_EQ(a.column(3).int64_data(), b.column(3).int64_data());
    EXPECT_EQ(a.column(4).float64_data(), b.column(4).float64_data());
    EXPECT_EQ(a.column(5).float64_data(), b.column(5).float64_data());
  }
}

}  // namespace
}  // namespace blusim::runtime
