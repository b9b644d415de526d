// Tests for the scan/filter and hash-join operators.

#include "runtime/operators.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Schema;
using columnar::Table;

std::shared_ptr<Table> FactTable() {
  Schema schema;
  schema.AddField({"fk", DataType::kInt32, false});
  schema.AddField({"v", DataType::kFloat64, false});
  schema.AddField({"tag", DataType::kString, false});
  schema.AddField({"nullable", DataType::kInt64, true});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < 1000; ++i) {
    t->column(0).AppendInt32(i % 10);
    t->column(1).AppendDouble(i * 0.5);
    t->column(2).AppendString(i % 3 == 0 ? "hot" : "cold");
    if (i % 7 == 0) t->column(3).AppendNull();
    else t->column(3).AppendInt64(i);
  }
  return t;
}

TEST(FilterScanTest, NoPredicatesSelectsEverything) {
  auto t = FactTable();
  auto sel = FilterScan(*t, {}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 1000u);
  EXPECT_EQ((*sel)[0], 0u);
  EXPECT_EQ((*sel)[999], 999u);
}

TEST(FilterScanTest, NumericOperators) {
  auto t = FactTable();
  struct Case {
    CmpOp op;
    double lo, hi;
    size_t expected;
  };
  // v = i * 0.5, i in [0, 1000)
  const Case cases[] = {
      {CmpOp::kLt, 5.0, 0, 10},        // i < 10
      {CmpOp::kLe, 5.0, 0, 11},        // i <= 10
      {CmpOp::kGt, 498.5, 0, 2},       // i > 997
      {CmpOp::kGe, 498.5, 0, 3},       // i >= 997
      {CmpOp::kEq, 100.0, 0, 1},       // i == 200
      {CmpOp::kNe, 100.0, 0, 999},
      {CmpOp::kBetween, 10.0, 12.0, 5},  // i in [20, 24]
  };
  for (const Case& c : cases) {
    Predicate p;
    p.column = 1;
    p.op = c.op;
    p.lo = c.lo;
    p.hi = c.hi;
    auto sel = FilterScan(*t, {p}, nullptr);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel->size(), c.expected) << "op " << static_cast<int>(c.op);
  }
}

TEST(FilterScanTest, StringEquality) {
  auto t = FactTable();
  Predicate p;
  p.column = 2;
  p.op = CmpOp::kEq;
  p.str = "hot";
  auto sel = FilterScan(*t, {p}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 334u);  // ceil(1000/3)
}

TEST(FilterScanTest, NullsNeverQualify) {
  auto t = FactTable();
  Predicate p;
  p.column = 3;
  p.op = CmpOp::kGe;
  p.lo = -1e18;
  auto sel = FilterScan(*t, {p}, nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 1000u - 143u);  // 143 nulls (i % 7 == 0)
}

TEST(FilterScanTest, ConjunctionAndParallelStability) {
  auto t = FactTable();
  Predicate a;
  a.column = 0;
  a.op = CmpOp::kEq;
  a.lo = 3;
  Predicate b;
  b.column = 2;
  b.op = CmpOp::kEq;
  b.str = "hot";
  ThreadPool pool(3);
  auto sel = FilterScan(*t, {a, b}, &pool);
  ASSERT_TRUE(sel.ok());
  auto serial = FilterScan(*t, {a, b}, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*sel, *serial);  // ascending row ids either way
  for (uint32_t row : *sel) {
    EXPECT_EQ(t->column(0).int32_data()[row], 3);
    EXPECT_EQ(t->column(2).string_data()[row], "hot");
  }
}

TEST(FilterScanTest, BadColumnRejected) {
  auto t = FactTable();
  Predicate p;
  p.column = 42;
  EXPECT_FALSE(FilterScan(*t, {p}, nullptr).ok());
}

std::shared_ptr<Table> DimTable(int rows) {
  Schema schema;
  schema.AddField({"pk", DataType::kInt32, false});
  schema.AddField({"attr", DataType::kInt32, false});
  auto t = std::make_shared<Table>(schema);
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt32(i);
    t->column(1).AppendInt32(i % 2);
  }
  return t;
}

TEST(HashJoinTest, MatchesAllFactRowsWithMatchingKeys) {
  auto fact = FactTable();     // fk in [0, 10)
  auto dim = DimTable(10);
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, nullptr, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1000u);
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ(fact->column(0).int32_data()[r->fact_rows[i]],
              dim->column(0).int32_data()[r->dim_rows[i]]);
  }
}

TEST(HashJoinTest, DimSelectionActsAsSemiJoinFilter) {
  auto fact = FactTable();
  auto dim = DimTable(10);
  // Only dim rows with attr == 0 (even pks).
  Predicate p;
  p.column = 1;
  p.op = CmpOp::kEq;
  p.lo = 0;
  auto dim_sel = FilterScan(*dim, {p}, nullptr);
  ASSERT_TRUE(dim_sel.ok());
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, nullptr, &dim_sel.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 500u);  // half the fk values survive
  for (uint32_t row : r->fact_rows) {
    EXPECT_EQ(fact->column(0).int32_data()[row] % 2, 0);
  }
}

TEST(HashJoinTest, FactSelectionRespected) {
  auto fact = FactTable();
  auto dim = DimTable(5);  // pks 0..4: fk 5..9 dangle
  std::vector<uint32_t> fact_sel = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, *dim, spec, nullptr, &fact_sel, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);  // fks 0..4 match
}

TEST(HashJoinTest, DuplicateBuildKeyRejected) {
  auto fact = FactTable();
  Schema schema;
  schema.AddField({"pk", DataType::kInt32, false});
  Table dim(schema);
  dim.column(0).AppendInt32(1);
  dim.column(0).AppendInt32(1);
  JoinSpec spec{0, 0};
  auto r = HashJoin(*fact, dim, spec, nullptr, nullptr, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, BadColumnsRejected) {
  auto fact = FactTable();
  auto dim = DimTable(5);
  EXPECT_FALSE(HashJoin(*fact, *dim, JoinSpec{-1, 0}, nullptr, nullptr,
                        nullptr)
                   .ok());
  EXPECT_FALSE(HashJoin(*fact, *dim, JoinSpec{0, 9}, nullptr, nullptr,
                        nullptr)
                   .ok());
  // A non-integer key column is rejected, not read as an integer.
  auto floats = HashJoin(*fact, *dim, JoinSpec{1, 0}, nullptr, nullptr,
                         nullptr);
  ASSERT_FALSE(floats.ok());
  EXPECT_EQ(floats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace blusim::runtime
