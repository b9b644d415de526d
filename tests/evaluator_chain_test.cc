// Unit tests for the evaluator chain stages (LCOG/CCAT, LCOV, HASH) and
// the accumulator primitives (AGGD/SUM/CNT semantics + merge), including
// the parameterized aggregate-function x type sweep.

#include <gtest/gtest.h>

#include "columnar/table.h"
#include "runtime/evaluators.h"
#include "runtime/group_result.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;

std::shared_ptr<Table> SmallTable() {
  Schema schema;
  schema.AddField({"k", DataType::kInt32, false});
  schema.AddField({"v", DataType::kInt64, true});
  schema.AddField({"d", DataType::kFloat64, false});
  auto t = std::make_shared<Table>(schema);
  // rows: (1, 10, 0.5) (2, NULL, 1.5) (1, 30, 2.5)
  t->column(0).AppendInt32(1);
  t->column(1).AppendInt64(10);
  t->column(2).AppendDouble(0.5);
  t->column(0).AppendInt32(2);
  t->column(1).AppendNull();
  t->column(2).AppendDouble(1.5);
  t->column(0).AppendInt32(1);
  t->column(1).AppendInt64(30);
  t->column(2).AppendDouble(2.5);
  return t;
}

GroupByPlan MakePlan(const Table& t) {
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"},
                     {AggFn::kCount, 1, "nv"},
                     {AggFn::kMin, 2, "m"}};
  auto plan = GroupByPlan::Make(t, spec);
  EXPECT_TRUE(plan.ok());
  return std::move(plan).value();
}

TEST(EvaluatorChainTest, KeysPackedPerPlan) {
  auto t = SmallTable();
  GroupByPlan plan = MakePlan(*t);
  GroupByChain chain(&plan);
  Stride stride;
  stride.range = MorselRange{0, 3};
  ASSERT_TRUE(chain.ProcessStride(&stride).ok());
  ASSERT_EQ(stride.packed_keys.size(), 3u);
  EXPECT_EQ(stride.packed_keys[0], plan.PackKey(0));
  EXPECT_EQ(stride.packed_keys[0], stride.packed_keys[2]);  // same key 1
  EXPECT_NE(stride.packed_keys[0], stride.packed_keys[1]);
}

TEST(EvaluatorChainTest, PayloadsLoadedWithValidity) {
  auto t = SmallTable();
  GroupByPlan plan = MakePlan(*t);
  GroupByChain chain(&plan);
  Stride stride;
  stride.range = MorselRange{0, 3};
  ASSERT_TRUE(chain.ProcessStride(&stride).ok());
  // Slot 0: SUM(v), int64 with a NULL in row 1.
  const PayloadVector& pv = stride.payloads[0];
  EXPECT_EQ(pv.i64[0], 10);
  EXPECT_FALSE(pv.IsValid(1));
  EXPECT_EQ(pv.i64[2], 30);
  // Slot 1: COUNT(v) ships validity only.
  const PayloadVector& cv = stride.payloads[1];
  EXPECT_TRUE(cv.IsValid(0));
  EXPECT_FALSE(cv.IsValid(1));
  // Slot 2: MIN(d), doubles.
  EXPECT_DOUBLE_EQ(stride.payloads[2].f64[1], 1.5);
}

TEST(EvaluatorChainTest, HashesFeedKmv) {
  auto t = SmallTable();
  GroupByPlan plan = MakePlan(*t);
  GroupByChain chain(&plan);
  Stride stride;
  stride.range = MorselRange{0, 3};
  ASSERT_TRUE(chain.ProcessStride(&stride).ok());
  ASSERT_EQ(stride.hashes.size(), 3u);
  EXPECT_EQ(stride.hashes[0], stride.hashes[2]);
}

TEST(EvaluatorChainTest, SelectionVectorRemapsRows) {
  auto t = SmallTable();
  GroupByPlan plan = MakePlan(*t);
  GroupByChain chain(&plan);
  const std::vector<uint32_t> selection = {2, 0};
  Stride stride;
  stride.range = MorselRange{0, 2};
  stride.selection = &selection;
  ASSERT_TRUE(chain.ProcessStride(&stride).ok());
  EXPECT_EQ(stride.InputRow(0), 2u);
  EXPECT_EQ(stride.payloads[0].i64[0], 30);  // row 2's value
  EXPECT_EQ(stride.payloads[0].i64[1], 10);  // row 0's value
}

// --- accumulator sweep: every (fn, acc type) combination ---

struct AggCase {
  AggFn fn;
  DataType type;
};

class AccumulatorSweep : public ::testing::TestWithParam<AggCase> {};

TEST_P(AccumulatorSweep, InitAccumulateMergeConsistent) {
  const AggCase c = GetParam();
  AggSlot slot;
  slot.fn = c.fn;
  slot.input_column = 0;
  slot.input_type = c.type;
  slot.acc_type = AggAccumulatorType(c.fn, c.type);
  slot.slot_bytes = AggSlotBytes(c.fn, c.type);

  PayloadVector pv;
  pv.type = slot.acc_type;
  const int64_t values[] = {5, -3, 9, 9, 0};
  for (int64_t v : values) {
    switch (slot.acc_type) {
      case DataType::kFloat64: pv.f64.push_back(static_cast<double>(v));
        break;
      case DataType::kDecimal128: pv.dec.push_back(Decimal128(v)); break;
      default: pv.i64.push_back(v); break;
    }
  }

  // Accumulate all five in one accumulator; also split 2/3 and merge.
  AccValue whole, part1, part2;
  InitAcc(slot, &whole);
  InitAcc(slot, &part1);
  InitAcc(slot, &part2);
  for (size_t i = 0; i < 5; ++i) AccumulateRow(slot, pv, i, &whole);
  for (size_t i = 0; i < 2; ++i) AccumulateRow(slot, pv, i, &part1);
  for (size_t i = 2; i < 5; ++i) AccumulateRow(slot, pv, i, &part2);
  MergeAcc(slot, part2, &part1);

  auto expect_equal = [&](const AccValue& a, const AccValue& b) {
    switch (slot.acc_type) {
      case DataType::kFloat64: EXPECT_DOUBLE_EQ(a.f64, b.f64); break;
      case DataType::kDecimal128: EXPECT_EQ(a.dec, b.dec); break;
      default: EXPECT_EQ(a.i64, b.i64); break;
    }
  };
  expect_equal(whole, part1);

  // And the absolute value is right.
  switch (c.fn) {
    case AggFn::kSum:
      switch (slot.acc_type) {
        case DataType::kFloat64: EXPECT_DOUBLE_EQ(whole.f64, 20.0); break;
        case DataType::kDecimal128:
          EXPECT_EQ(whole.dec, Decimal128(20));
          break;
        default: EXPECT_EQ(whole.i64, 20); break;
      }
      break;
    case AggFn::kCount:
      EXPECT_EQ(whole.i64, 5);
      break;
    case AggFn::kMin:
      switch (slot.acc_type) {
        case DataType::kFloat64: EXPECT_DOUBLE_EQ(whole.f64, -3.0); break;
        case DataType::kDecimal128:
          EXPECT_EQ(whole.dec, Decimal128(-3));
          break;
        default: EXPECT_EQ(whole.i64, -3); break;
      }
      break;
    case AggFn::kMax:
      switch (slot.acc_type) {
        case DataType::kFloat64: EXPECT_DOUBLE_EQ(whole.f64, 9.0); break;
        case DataType::kDecimal128:
          EXPECT_EQ(whole.dec, Decimal128(9));
          break;
        default: EXPECT_EQ(whole.i64, 9); break;
      }
      break;
    case AggFn::kAvg:
      break;  // decomposed before reaching accumulators
  }
}

INSTANTIATE_TEST_SUITE_P(
    FnByType, AccumulatorSweep,
    ::testing::Values(AggCase{AggFn::kSum, DataType::kInt64},
                      AggCase{AggFn::kSum, DataType::kInt32},
                      AggCase{AggFn::kSum, DataType::kFloat64},
                      AggCase{AggFn::kSum, DataType::kDecimal128},
                      AggCase{AggFn::kCount, DataType::kInt64},
                      AggCase{AggFn::kMin, DataType::kInt64},
                      AggCase{AggFn::kMin, DataType::kInt32},
                      AggCase{AggFn::kMin, DataType::kFloat64},
                      AggCase{AggFn::kMin, DataType::kDecimal128},
                      AggCase{AggFn::kMax, DataType::kInt64},
                      AggCase{AggFn::kMax, DataType::kInt32},
                      AggCase{AggFn::kMax, DataType::kFloat64},
                      AggCase{AggFn::kMax, DataType::kDecimal128}));

TEST(AggMetadataTest, AccumulatorTypesWiden) {
  EXPECT_EQ(AggAccumulatorType(AggFn::kSum, DataType::kInt32),
            DataType::kInt64);
  EXPECT_EQ(AggAccumulatorType(AggFn::kSum, DataType::kFloat64),
            DataType::kFloat64);
  EXPECT_EQ(AggAccumulatorType(AggFn::kMin, DataType::kInt32),
            DataType::kInt32);
  EXPECT_EQ(AggAccumulatorType(AggFn::kCount, DataType::kString),
            DataType::kInt64);
  EXPECT_EQ(AggSlotBytes(AggFn::kMin, DataType::kInt32), 4);
  EXPECT_EQ(AggSlotBytes(AggFn::kSum, DataType::kDecimal128), 16);
}

TEST(MaterializeTest, DefaultColumnNamesAndAvg) {
  auto t = SmallTable();
  GroupBySpec spec;
  spec.key_columns = {0};
  spec.aggregates = {{AggFn::kAvg, 2, ""}, {AggFn::kCount, -1, ""}};
  auto plan = GroupByPlan::Make(*t, spec);
  ASSERT_TRUE(plan.ok());
  FlatGroups groups;
  groups.rep_rows = {0};
  groups.accs.resize(plan->slots().size());
  for (size_t s = 0; s < plan->slots().size(); ++s) {
    InitAcc(plan->slots()[s], &groups.accs[s]);
  }
  groups.accs[0].f64 = 9.0;  // AVG sum
  groups.accs[1].i64 = 3;    // AVG count
  groups.accs[2].i64 = 3;    // COUNT(*)
  auto result = MaterializeGroups(plan.value(), {groups});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().field(1).name, "AVG(d)");
  EXPECT_EQ((*result)->schema().field(2).name, "COUNT(*)");
  EXPECT_DOUBLE_EQ((*result)->column(1).float64_data()[0], 3.0);
  EXPECT_EQ((*result)->column(2).int64_data()[0], 3);
}

}  // namespace
}  // namespace blusim::runtime
