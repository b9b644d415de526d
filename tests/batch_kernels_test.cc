// Differential tests of the column-at-a-time host kernels against per-row
// oracles written here: the predicate kernel (SelectRows / FilterScan), the
// key kernel (GroupByPlan::PackKeys / FillWideKeys / HashKeys) and the KMV
// sketch's kept set against a std::set of the k smallest distinct hashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "columnar/table.h"
#include "common/hash.h"
#include "common/kmv.h"
#include "common/rng.h"
#include "runtime/groupby_plan.h"
#include "runtime/operators.h"
#include "runtime/partition_sweep.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {
namespace {

using columnar::Column;
using columnar::DataType;
using columnar::Decimal128;
using columnar::Schema;
using columnar::Table;

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Column indices of AllTypesTable.
enum Col { kI32 = 0, kDate, kI64, kF64, kDec, kStr, kNumCols };

// Every DataType, each with NULLs; int64 values beyond 2^53, NaN and
// infinite doubles, decimals with a nonzero high word.
Table AllTypesTable(uint64_t rows, uint64_t seed) {
  Schema schema;
  schema.AddField({"i32", DataType::kInt32, true});
  schema.AddField({"date", DataType::kDate, true});
  schema.AddField({"i64", DataType::kInt64, true});
  schema.AddField({"f64", DataType::kFloat64, true});
  schema.AddField({"dec", DataType::kDecimal128, true});
  schema.AddField({"str", DataType::kString, true});
  Table t(schema);
  Rng rng(seed);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0,
                             0.5};
  for (uint64_t r = 0; r < rows; ++r) {
    for (int c = 0; c < kNumCols; ++c) {
      Column& col = t.column(static_cast<size_t>(c));
      if (rng.Below(10) == 0) {
        col.AppendNull();
        continue;
      }
      switch (c) {
        case kI32:
          col.AppendInt32(static_cast<int32_t>(rng.Range(-20, 20)));
          break;
        case kDate:
          col.AppendDate(static_cast<int32_t>(rng.Range(18000, 18030)));
          break;
        case kI64:
          // Around 2^53, where distinct int64 values share one double.
          col.AppendInt64(rng.Below(2) == 0 ? rng.Range(-20, 20)
                                            : kTwo53 + rng.Range(-3, 3));
          break;
        case kF64:
          col.AppendDouble(rng.Below(8) == 0
                               ? specials[rng.Below(5)]
                               : static_cast<double>(rng.Range(-20, 20)));
          break;
        case kDec:
          col.AppendDecimal(rng.Below(4) == 0
                                ? Decimal128(rng.Range(-2, 2), rng.Next())
                                : Decimal128(rng.Range(-20, 20)));
          break;
        case kStr:
          col.AppendString("s" + std::to_string(rng.Below(12)));
          break;
      }
    }
  }
  return t;
}

// The per-row reference: SQL NULLs never match, numbers compare as
// Column::GetDouble doubles, BETWEEN on strings matches nothing.
bool OracleMatch(const Table& t, const Predicate& p, uint32_t row) {
  const Column& col = t.column(static_cast<size_t>(p.column));
  if (col.IsNull(row)) return false;
  if (col.type() == DataType::kString) {
    const std::string& s = col.GetString(row);
    switch (p.op) {
      case CmpOp::kEq: return s == p.str;
      case CmpOp::kNe: return s != p.str;
      case CmpOp::kLt: return s < p.str;
      case CmpOp::kLe: return s <= p.str;
      case CmpOp::kGt: return s > p.str;
      case CmpOp::kGe: return s >= p.str;
      case CmpOp::kBetween: return false;
    }
    return false;
  }
  const double v = col.GetDouble(row);
  switch (p.op) {
    case CmpOp::kEq: return v == p.lo;
    case CmpOp::kNe: return v != p.lo;
    case CmpOp::kLt: return v < p.lo;
    case CmpOp::kLe: return v <= p.lo;
    case CmpOp::kGt: return v > p.lo;
    case CmpOp::kGe: return v >= p.lo;
    case CmpOp::kBetween: return v >= p.lo && v <= p.hi;
  }
  return false;
}

std::vector<uint32_t> OracleSelect(const Table& t,
                                   const std::vector<Predicate>& preds,
                                   const std::vector<uint32_t>& input) {
  std::vector<uint32_t> out;
  for (uint32_t row : input) {
    bool match = true;
    for (const Predicate& p : preds) match = match && OracleMatch(t, p, row);
    if (match) out.push_back(row);
  }
  return out;
}

std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> rows(t.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,     CmpOp::kLe,
                          CmpOp::kGt, CmpOp::kGe, CmpOp::kBetween};

// Predicates over one column: every operator against a few constants,
// BETWEEN also with lo > hi.
std::vector<Predicate> PredicatesOn(int column) {
  std::vector<Predicate> preds;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bounds[] = {
      {0.0, 10.0},
      {-5.0, 5.0},
      {10.0, -10.0},  // lo > hi: BETWEEN matches nothing
      {static_cast<double>(kTwo53), static_cast<double>(kTwo53 + 2)},
      {18010.0, 18020.0},
      {0.5, 0.5},
      {nan, 1.0},
  };
  const char* strs[] = {"s3", "", "s10", "zzz"};
  for (CmpOp op : kOps) {
    for (const auto& [lo, hi] : bounds) {
      Predicate p;
      p.column = column;
      p.op = op;
      p.lo = lo;
      p.hi = hi;
      p.str = strs[preds.size() % 4];
      preds.push_back(p);
    }
  }
  return preds;
}

TEST(PredicateKernelTest, EveryTypeAndOperatorMatchesTheRowOracle) {
  const Table t = AllTypesTable(3000, 1);
  const std::vector<uint32_t> all = AllRows(t);
  for (int c = 0; c < kNumCols; ++c) {
    for (const Predicate& p : PredicatesOn(c)) {
      std::vector<uint32_t> got;
      SelectRows(t, {p}, nullptr, MorselRange{0, t.num_rows()}, &got);
      EXPECT_EQ(got, OracleSelect(t, {p}, all))
          << "column " << c << " op " << static_cast<int>(p.op) << " lo "
          << p.lo << " hi " << p.hi << " str '" << p.str << "'";
    }
  }
}

TEST(PredicateKernelTest, EdgeValuesCompareAsDoubles) {
  Schema schema;
  schema.AddField({"i64", DataType::kInt64, false});
  schema.AddField({"f64", DataType::kFloat64, false});
  Table t(schema);
  t.column(0).AppendInt64(kTwo53 + 1);  // rounds to 2^53 as a double
  t.column(0).AppendInt64(kTwo53 + 2);
  t.column(1).AppendDouble(std::numeric_limits<double>::quiet_NaN());
  t.column(1).AppendDouble(1.0);
  std::vector<uint32_t> got;
  SelectRows(t, {{0, CmpOp::kEq, static_cast<double>(kTwo53), 0.0, ""}},
             nullptr, MorselRange{0, 2}, &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{0}));
  // NaN fails every comparison but kNe.
  SelectRows(t, {{1, CmpOp::kNe, 1.0, 0.0, ""}}, nullptr, MorselRange{0, 2},
             &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{0}));
  SelectRows(t, {{1, CmpOp::kLe, 1.0, 0.0, ""}}, nullptr, MorselRange{0, 2},
             &got);
  EXPECT_EQ(got, (std::vector<uint32_t>{1}));
}

TEST(PredicateKernelTest, ConjunctionsOverSelectionsMatchTheRowOracle) {
  const Table t = AllTypesTable(4000, 2);
  std::vector<uint32_t> selection;
  for (uint32_t r = 1; r < t.num_rows(); r += 3) selection.push_back(r);
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Predicate> preds;
    const uint64_t n = 1 + rng.Below(3);
    for (uint64_t i = 0; i < n; ++i) {
      const std::vector<Predicate> pool =
          PredicatesOn(static_cast<int>(rng.Below(kNumCols)));
      preds.push_back(pool[rng.Below(pool.size())]);
    }
    // A window of the selection, as a staging morsel reads it.
    const uint64_t begin = rng.Below(selection.size() / 2);
    const uint64_t end = begin + rng.Below(selection.size() - begin);
    std::vector<uint32_t> got;
    SelectRows(t, preds, selection.data(), MorselRange{begin, end}, &got);
    const std::vector<uint32_t> window(selection.begin() + begin,
                                       selection.begin() + end);
    EXPECT_EQ(got, OracleSelect(t, preds, window)) << "trial " << trial;
  }
  // No predicates: every input row, in order.
  std::vector<uint32_t> got;
  SelectRows(t, {}, selection.data(), MorselRange{0, selection.size()}, &got);
  EXPECT_EQ(got, selection);
}

TEST(PredicateKernelTest, EmptyTableSelectsNothing) {
  const Table t = AllTypesTable(0, 3);
  std::vector<uint32_t> got = {1, 2, 3};
  SelectRows(t, PredicatesOn(kI64), nullptr, MorselRange{0, 0}, &got);
  EXPECT_TRUE(got.empty());
  ThreadPool pool(2);
  auto scanned = FilterScan(t, PredicatesOn(kStr), &pool);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->empty());
}

TEST(PredicateKernelTest, PooledFilterScanMatchesTheRowOracle) {
  // Several morsels, scanned on a pool and concatenated in morsel order.
  const Table t = AllTypesTable(150000, 4);
  const std::vector<uint32_t> all = AllRows(t);
  ThreadPool pool(3);
  const std::vector<std::vector<Predicate>> filters = {
      {},
      {{kI32, CmpOp::kBetween, -5, 5, ""}},
      {{kI64, CmpOp::kGe, static_cast<double>(kTwo53), 0, ""},
       {kStr, CmpOp::kNe, 0, 0, "s3"},
       {kDec, CmpOp::kLt, 10, 0, ""}},
      {{kF64, CmpOp::kNe, 0, 0, ""},
       {kDate, CmpOp::kBetween, 18030, 18000, ""}},
  };
  for (const auto& filter : filters) {
    auto got = FilterScan(t, filter, &pool);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleSelect(t, filter, all));
  }
}

// --- The key kernel --------------------------------------------------------

// Key columns without NULLs of every key type, plus a 128-bit decimal.
Table KeyTable(uint64_t rows) {
  Schema schema;
  schema.AddField({"i32", DataType::kInt32, false});
  schema.AddField({"date", DataType::kDate, false});
  schema.AddField({"i64", DataType::kInt64, false});
  schema.AddField({"f64", DataType::kFloat64, false});
  schema.AddField({"dec", DataType::kDecimal128, false});
  schema.AddField({"str", DataType::kString, false});
  Table t(schema);
  Rng rng(11);
  for (uint64_t r = 0; r < rows; ++r) {
    t.column(kI32).AppendInt32(static_cast<int32_t>(rng.Range(-40, 40)));
    t.column(kDate).AppendDate(static_cast<int32_t>(rng.Range(18000, 18400)));
    t.column(kI64).AppendInt64(static_cast<int64_t>(rng.Next()));
    t.column(kF64).AppendDouble(static_cast<double>(rng.Range(-9, 9)) / 4);
    t.column(kDec).AppendDecimal(
        Decimal128(rng.Range(-3, 3), rng.Below(1000)));
    t.column(kStr).AppendString("k" + std::to_string(rng.Below(30)));
  }
  return t;
}

// Per-row reference of one key component: 32-bit values zero-extended
// (strings by their dictionary code), int64/float64 as raw bits.
uint64_t OracleComponent(const GroupByPlan& plan, size_t i, uint32_t row) {
  const Column& col =
      plan.table().column(static_cast<size_t>(plan.spec().key_columns[i]));
  switch (col.type()) {
    case DataType::kString:
      return static_cast<uint32_t>(plan.string_codes()[i][row]);
    case DataType::kInt32:
    case DataType::kDate:
      return static_cast<uint32_t>(col.int32_data()[row]);
    case DataType::kInt64:
      return static_cast<uint64_t>(col.int64_data()[row]);
    case DataType::kFloat64: {
      uint64_t bits;
      std::memcpy(&bits, &col.float64_data()[row], 8);
      return bits;
    }
    case DataType::kDecimal128:
      break;
  }
  ADD_FAILURE() << "no 64-bit component for a decimal";
  return 0;
}

uint64_t OraclePack(const GroupByPlan& plan, uint32_t row) {
  uint64_t key = 0;
  for (size_t i = 0; i < plan.spec().key_columns.size(); ++i) {
    const int w = plan.component_bits()[i];
    const uint64_t v = OracleComponent(plan, i, row);
    key = w >= 64 ? v : (key << w) | (v & ((uint64_t{1} << w) - 1));
  }
  return key;
}

WideKey OracleWide(const GroupByPlan& plan, uint32_t row) {
  WideKey key;
  size_t off = 0;
  for (size_t i = 0; i < plan.spec().key_columns.size(); ++i) {
    const int w = plan.component_bits()[i];
    if (w == 128) {
      const Column& col = plan.table().column(
          static_cast<size_t>(plan.spec().key_columns[i]));
      std::memcpy(key.bytes + off, &col.decimal_data()[row], 16);
    } else {
      const uint64_t v = OracleComponent(plan, i, row);
      std::memcpy(key.bytes + off, &v, static_cast<size_t>(w / 8));
    }
    off += static_cast<size_t>(w / 8);
  }
  key.len = static_cast<uint8_t>(off);
  return key;
}

class KeyKernelTest : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(KeyKernelTest, BatchMatchesTheRowOracle) {
  const Table t = KeyTable(1500);
  GroupBySpec spec;
  spec.key_columns = GetParam();
  spec.aggregates = {{AggFn::kCount, -1, "n"}};
  auto plan = GroupByPlan::Make(t, spec);
  ASSERT_TRUE(plan.ok());
  // The whole table, and a window of a descending-stride selection that
  // spans several of HashKeys' wide-key blocks.
  std::vector<uint32_t> selection;
  for (uint32_t r = static_cast<uint32_t>(t.num_rows()); r-- > 0;) {
    if (r % 2 == 1) selection.push_back(r);
  }
  struct Batch {
    const uint32_t* rows;
    MorselRange range;
  };
  const Batch batches[] = {{nullptr, {0, t.num_rows()}},
                           {nullptr, {7, 600}},
                           {selection.data(), {3, selection.size()}}};
  for (const Batch& b : batches) {
    const uint64_t n = b.range.size();
    auto row_of = [&](uint64_t j) {
      return b.rows ? b.rows[b.range.begin + j]
                    : static_cast<uint32_t>(b.range.begin + j);
    };
    std::vector<uint64_t> hashes(n);
    plan->HashKeys(b.rows, b.range, hashes.data());
    if (plan->wide_key()) {
      std::vector<WideKey> keys(n);
      plan->FillWideKeys(b.rows, b.range, keys.data());
      for (uint64_t j = 0; j < n; ++j) {
        const WideKey want = OracleWide(*plan, row_of(j));
        ASSERT_EQ(keys[j].len, want.len);
        ASSERT_EQ(std::memcmp(keys[j].bytes, want.bytes, WideKey::kCapacity),
                  0)
            << "row " << row_of(j);
        ASSERT_EQ(hashes[j], Murmur3_64(want.bytes, want.len));
        WideKey one;
        plan->FillWideKey(row_of(j), &one);
        ASSERT_TRUE(one == want);
        ASSERT_EQ(plan->KeyHash(row_of(j)), hashes[j]);
      }
    } else {
      std::vector<uint64_t> keys(n);
      plan->PackKeys(b.rows, b.range, keys.data());
      for (uint64_t j = 0; j < n; ++j) {
        const uint64_t want = OraclePack(*plan, row_of(j));
        ASSERT_EQ(keys[j], want) << "row " << row_of(j);
        ASSERT_EQ(hashes[j], Mix64(want));
        ASSERT_EQ(plan->PackKey(row_of(j)), want);
        ASSERT_EQ(plan->KeyHash(row_of(j)), hashes[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyShapes, KeyKernelTest,
    ::testing::Values(
        // Narrow: each 32-bit type, a lone 64-bit component, and shifts.
        std::vector<int>{kI32}, std::vector<int>{kDate},
        std::vector<int>{kStr}, std::vector<int>{kI64},
        std::vector<int>{kF64}, std::vector<int>{kI32, kStr},
        std::vector<int>{kDate, kI32},
        // Wide: 24-byte keys with a decimal component, and a 20-byte one.
        std::vector<int>{kDec, kI64}, std::vector<int>{kI32, kDec, kStr},
        std::vector<int>{kI64, kF64, kDate}));

// --- The KMV sketch --------------------------------------------------------

// The kept set must be the k smallest distinct hashes, and the estimate
// the one they determine.
void ExpectSketchIsReference(const KmvSketch& sketch,
                             const std::set<uint64_t>& seen) {
  const size_t k = sketch.k();
  std::vector<uint64_t> kept = sketch.kept_hashes();
  std::sort(kept.begin(), kept.end());
  std::vector<uint64_t> want;
  for (uint64_t h : seen) {
    if (want.size() == k) break;
    want.push_back(h);
  }
  ASSERT_EQ(kept, want);
  if (want.size() < k) {
    EXPECT_EQ(sketch.Estimate(), want.size());
    return;
  }
  const double hk = static_cast<double>(want.back()) / 18446744073709551616.0;
  EXPECT_EQ(sketch.Estimate(),
            static_cast<uint64_t>((static_cast<double>(k) - 1.0) / hk));
}

struct KmvCase {
  size_t k;
  uint64_t distinct;
};

class KmvDifferentialTest : public ::testing::TestWithParam<KmvCase> {};

TEST_P(KmvDifferentialTest, RepeatedStreamsKeepTheKSmallest) {
  const KmvCase c = GetParam();
  // Three shuffled passes over `distinct` hashes (Mix64(0) == 0, so the
  // zero hash is among them).
  std::vector<uint64_t> stream;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < c.distinct; ++i) stream.push_back(Mix64(i));
  }
  Rng rng(c.distinct);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.Below(i)]);
  }
  KmvSketch sketch(c.k);
  std::set<uint64_t> seen;
  for (size_t i = 0; i < stream.size(); ++i) {
    sketch.AddHash(stream[i]);
    seen.insert(stream[i]);
    if (i % 4099 == 0) ExpectSketchIsReference(sketch, seen);
  }
  ExpectSketchIsReference(sketch, seen);

  // Merge in both orders: two overlapping halves give the same sketch.
  KmvSketch a(c.k);
  KmvSketch b(c.k);
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 3 == 0 ? a : b).AddHash(stream[i]);
  }
  KmvSketch ab = a;
  ab.Merge(b);
  KmvSketch ba = b;
  ba.Merge(a);
  ExpectSketchIsReference(ab, seen);
  ExpectSketchIsReference(ba, seen);
  EXPECT_EQ(ab.Estimate(), ba.Estimate());
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, KmvDifferentialTest,
                         ::testing::Values(KmvCase{256, 255},
                                           KmvCase{256, 256},
                                           KmvCase{256, 257},
                                           KmvCase{256, 300},
                                           KmvCase{512, 3333},
                                           KmvCase{256, 100000}));

TEST(KmvDifferentialTest, DescendingStreamEvictsOnEveryHash) {
  // Every hash after the heap fills evicts the root: the membership index
  // must drop each evicted hash and hold each new one.
  KmvSketch sketch(16);
  std::set<uint64_t> seen;
  for (uint64_t h = 5000; h > 0; --h) {
    sketch.AddHash(h * 977);
    seen.insert(h * 977);
    sketch.AddHash(h * 977);  // an immediate repeat is a no-op
  }
  ExpectSketchIsReference(sketch, seen);
  for (uint64_t h : std::vector<uint64_t>(sketch.kept_hashes())) {
    sketch.AddHash(h);
  }
  ExpectSketchIsReference(sketch, seen);
  sketch.AddHash(0);
  sketch.AddHash(0);
  seen.insert(0);
  ExpectSketchIsReference(sketch, seen);
}

TEST(CountDistinctKeysTest, PooledEstimateEqualsTheSerialSketch) {
  const Table t = KeyTable(200000);
  for (const std::vector<int>& keys :
       {std::vector<int>{kI32}, std::vector<int>{kDate, kI32},
        std::vector<int>{kI64}, std::vector<int>{kDec, kStr}}) {
    GroupBySpec spec;
    spec.key_columns = keys;
    spec.aggregates = {{AggFn::kCount, -1, "n"}};
    auto plan = GroupByPlan::Make(t, spec);
    ASSERT_TRUE(plan.ok());
    std::vector<uint32_t> selection;
    for (uint32_t r = 0; r < t.num_rows(); r += 2) selection.push_back(r);
    KmvSketch serial(512);
    for (uint32_t row : selection) serial.AddHash(plan->KeyHash(row));
    ThreadPool pool(3);
    EXPECT_EQ(CountDistinctKeys(*plan, &pool, &selection, 512),
              serial.Estimate());
    EXPECT_EQ(CountDistinctKeys(*plan, nullptr, &selection, 512),
              serial.Estimate());
  }
}

}  // namespace
}  // namespace blusim::runtime
