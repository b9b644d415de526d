#include "runtime/group_result.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "common/logging.h"

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;
using columnar::Decimal128;
using columnar::Field;
using columnar::Schema;
using columnar::Table;

void InitAcc(const AggSlot& slot, AccValue* acc) {
  *acc = AccValue{};
  if (slot.fn == AggFn::kMin) {
    switch (slot.acc_type) {
      case DataType::kInt32:
      case DataType::kDate:
        acc->i64 = std::numeric_limits<int32_t>::max();
        break;
      case DataType::kInt64:
        acc->i64 = std::numeric_limits<int64_t>::max();
        break;
      case DataType::kFloat64:
        acc->f64 = std::numeric_limits<double>::infinity();
        break;
      case DataType::kDecimal128:
        acc->dec = Decimal128(std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<uint64_t>::max());
        break;
      default:
        break;
    }
  } else if (slot.fn == AggFn::kMax) {
    switch (slot.acc_type) {
      case DataType::kInt32:
      case DataType::kDate:
        acc->i64 = std::numeric_limits<int32_t>::min();
        break;
      case DataType::kInt64:
        acc->i64 = std::numeric_limits<int64_t>::min();
        break;
      case DataType::kFloat64:
        acc->f64 = -std::numeric_limits<double>::infinity();
        break;
      case DataType::kDecimal128:
        acc->dec = Decimal128(std::numeric_limits<int64_t>::min(), 0);
        break;
      default:
        break;
    }
  }
}

void AccumulateRow(const AggSlot& slot, const PayloadVector& pv, size_t i,
                   AccValue* acc) {
  if (slot.fn == AggFn::kCount) {
    // COUNT(*) counts all rows; COUNT(col) skips NULLs.
    if (slot.input_column < 0 || pv.IsValid(i)) ++acc->i64;
    return;
  }
  if (!pv.IsValid(i)) return;
  switch (slot.acc_type) {
    case DataType::kFloat64: {
      const double v = pv.f64[i];
      if (slot.fn == AggFn::kSum) acc->f64 += v;
      else if (slot.fn == AggFn::kMin) acc->f64 = std::min(acc->f64, v);
      else acc->f64 = std::max(acc->f64, v);
      break;
    }
    case DataType::kDecimal128: {
      const Decimal128& v = pv.dec[i];
      if (slot.fn == AggFn::kSum) acc->dec += v;
      else if (slot.fn == AggFn::kMin) acc->dec = std::min(acc->dec, v);
      else acc->dec = std::max(acc->dec, v);
      break;
    }
    default: {
      const int64_t v = pv.i64[i];
      if (slot.fn == AggFn::kSum) acc->i64 += v;
      else if (slot.fn == AggFn::kMin) acc->i64 = std::min(acc->i64, v);
      else acc->i64 = std::max(acc->i64, v);
      break;
    }
  }
}

void MergeAcc(const AggSlot& slot, const AccValue& from, AccValue* into) {
  switch (slot.fn) {
    case AggFn::kSum:
    case AggFn::kCount:
      switch (slot.acc_type) {
        case DataType::kFloat64: into->f64 += from.f64; break;
        case DataType::kDecimal128: into->dec += from.dec; break;
        default: into->i64 += from.i64; break;
      }
      break;
    case AggFn::kMin:
      switch (slot.acc_type) {
        case DataType::kFloat64:
          into->f64 = std::min(into->f64, from.f64);
          break;
        case DataType::kDecimal128:
          into->dec = std::min(into->dec, from.dec);
          break;
        default:
          into->i64 = std::min(into->i64, from.i64);
          break;
      }
      break;
    case AggFn::kMax:
      switch (slot.acc_type) {
        case DataType::kFloat64:
          into->f64 = std::max(into->f64, from.f64);
          break;
        case DataType::kDecimal128:
          into->dec = std::max(into->dec, from.dec);
          break;
        default:
          into->i64 = std::max(into->i64, from.i64);
          break;
      }
      break;
    case AggFn::kAvg:
      BLUSIM_CHECK(false);  // decomposed at plan time
      break;
  }
}

namespace {

// The accumulator member a value type lives in.
template <typename T>
T& AccField(AccValue& acc);
template <>
int64_t& AccField<int64_t>(AccValue& acc) { return acc.i64; }
template <>
double& AccField<double>(AccValue& acc) { return acc.f64; }
template <>
Decimal128& AccField<Decimal128>(AccValue& acc) { return acc.dec; }
template <typename T>
const T& AccField(const AccValue& acc) {
  return AccField<T>(const_cast<AccValue&>(acc));
}

struct SumOp {
  template <typename T>
  void operator()(T& acc, const T& v) const { acc += v; }
};
struct MinOp {
  template <typename T>
  void operator()(T& acc, const T& v) const { acc = std::min(acc, v); }
};
struct MaxOp {
  template <typename T>
  void operator()(T& acc, const T& v) const { acc = std::max(acc, v); }
};

// Calls f(op) with the combining operation of `fn` (COUNT merges as SUM).
template <typename F>
void WithOp(AggFn fn, F&& f) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kCount:
      return f(SumOp{});
    case AggFn::kMin:
      return f(MinOp{});
    case AggFn::kMax:
      return f(MaxOp{});
    case AggFn::kAvg:
      BLUSIM_CHECK(false);  // decomposed at plan time
  }
}

// One typed AGGD loop: rows begin .. begin+n-1 of `values` into slot s of
// groups gids[0..n), skipping rows `valid` marks NULL when it is non-empty.
template <typename T, typename Op>
void AggregateValues(Op op, const T* values, const std::vector<bool>& valid,
                     size_t begin, size_t n, const uint32_t* gids, size_t s,
                     size_t num_slots, AccValue* accs) {
  if (valid.empty()) {
    for (size_t i = 0; i < n; ++i) {
      op(AccField<T>(accs[gids[i] * num_slots + s]), values[begin + i]);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!valid[begin + i]) continue;
    op(AccField<T>(accs[gids[i] * num_slots + s]), values[begin + i]);
  }
}

template <typename T, typename Op>
void MergeValues(Op op, size_t n, const uint32_t* from_gids,
                 const AccValue* from, const uint32_t* into_gids, size_t s,
                 size_t num_slots, AccValue* into) {
  for (size_t i = 0; i < n; ++i) {
    op(AccField<T>(into[into_gids[i] * num_slots + s]),
       AccField<T>(from[from_gids[i] * num_slots + s]));
  }
}

}  // namespace

void AccumulateSlot(const AggSlot& slot, const PayloadVector& pv,
                    size_t begin, size_t n, const uint32_t* gids, size_t s,
                    size_t num_slots, AccValue* accs) {
  if (slot.fn == AggFn::kCount) {
    // COUNT(*) counts all rows; COUNT(col) skips NULLs.
    const bool all = slot.input_column < 0 || pv.valid.empty();
    for (size_t i = 0; i < n; ++i) {
      if (all || pv.valid[begin + i]) ++accs[gids[i] * num_slots + s].i64;
    }
    return;
  }
  WithOp(slot.fn, [&](auto op) {
    switch (slot.acc_type) {
      case DataType::kFloat64:
        return AggregateValues(op, pv.f64.data(), pv.valid, begin, n, gids, s,
                               num_slots, accs);
      case DataType::kDecimal128:
        return AggregateValues(op, pv.dec.data(), pv.valid, begin, n, gids, s,
                               num_slots, accs);
      default:
        return AggregateValues(op, pv.i64.data(), pv.valid, begin, n, gids, s,
                               num_slots, accs);
    }
  });
}

void MergeSlot(const AggSlot& slot, size_t n, const uint32_t* from_gids,
               const AccValue* from, const uint32_t* into_gids, size_t s,
               size_t num_slots, AccValue* into) {
  WithOp(slot.fn, [&](auto op) {
    switch (slot.acc_type) {
      case DataType::kFloat64:
        return MergeValues<double>(op, n, from_gids, from, into_gids, s,
                                   num_slots, into);
      case DataType::kDecimal128:
        return MergeValues<Decimal128>(op, n, from_gids, from, into_gids, s,
                                       num_slots, into);
      default:
        return MergeValues<int64_t>(op, n, from_gids, from, into_gids, s,
                                    num_slots, into);
    }
  });
}

uint64_t NumGroups(const GroupPieces& groups) {
  uint64_t n = 0;
  for (const FlatGroups& piece : groups) n += piece.num_groups();
  return n;
}

namespace {

// Results at least this large fill their columns in parallel: a task per
// key column and per aggregate column segment, which write disjoint
// storage, so the tasks share nothing.
constexpr uint64_t kParallelMaterializeGroups = 65536;

// The field of result column `c` (keys first, then the user aggregates).
Field ResultField(const GroupByPlan& plan, size_t c) {
  const Table& input = plan.table();
  const size_t num_keys = plan.spec().key_columns.size();
  if (c < num_keys) {
    return input.schema().field(
        static_cast<size_t>(plan.spec().key_columns[c]));
  }
  const OutputAgg& out = plan.outputs()[c - num_keys];
  Field f;
  f.name = out.desc.output_name;
  if (f.name.empty()) {
    f.name = std::string(AggFnName(out.desc.fn)) + "(" +
             (out.desc.column >= 0
                  ? input.schema().field(static_cast<size_t>(out.desc.column))
                        .name
                  : "*") +
             ")";
  }
  f.type = out.desc.fn == AggFn::kAvg
               ? DataType::kFloat64
               : plan.slots()[static_cast<size_t>(out.slot)].acc_type;
  return f;
}

// Calls f(T{}, value) for an aggregate result column: T is its storage
// type and value(accs) its value for the group whose accumulators start at
// `accs` (AVG finalized as SUM / COUNT).
template <typename F>
void WithAggregate(const GroupByPlan& plan, const OutputAgg& out, F&& f) {
  const auto s = static_cast<size_t>(out.slot);
  const DataType acc_type = plan.slots()[s].acc_type;
  if (out.desc.fn == AggFn::kAvg) {
    const auto n = static_cast<size_t>(out.count_slot);
    auto avg = [n](double sum, const AccValue* a) {
      const int64_t count = a[n].i64;
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    };
    switch (acc_type) {
      case DataType::kFloat64:
        return f(double{}, [=](const AccValue* a) { return avg(a[s].f64, a); });
      case DataType::kDecimal128:
        return f(double{}, [=](const AccValue* a) {
          return avg(a[s].dec.ToDouble(), a);
        });
      default:
        return f(double{}, [=](const AccValue* a) {
          return avg(static_cast<double>(a[s].i64), a);
        });
    }
  }
  switch (acc_type) {
    case DataType::kFloat64:
      return f(double{}, [s](const AccValue* a) { return a[s].f64; });
    case DataType::kDecimal128:
      return f(Decimal128{}, [s](const AccValue* a) { return a[s].dec; });
    case DataType::kInt32:
    case DataType::kDate:
      return f(int32_t{}, [s](const AccValue* a) {
        return static_cast<int32_t>(a[s].i64);
      });
    default:
      return f(int64_t{}, [s](const AccValue* a) { return a[s].i64; });
  }
}

// A run of one piece's groups and where it lands in the result.
struct Segment {
  const FlatGroups* piece = nullptr;
  size_t begin = 0;  // first group of the piece
  size_t end = 0;
  size_t out = 0;  // its result row
};

// Segments of at most this many groups, so a result of one large piece
// still spreads over the pool.
constexpr size_t kSegmentGroups = 16384;

}  // namespace

Result<std::shared_ptr<Table>> MaterializeGroups(
    const GroupByPlan& plan, const GroupPieces& groups, ThreadPool* pool,
    const std::vector<uint32_t>* positions, const std::vector<int>& columns) {
  const size_t num_keys = plan.spec().key_columns.size();
  const size_t num_result_columns = num_keys + plan.outputs().size();
  std::vector<size_t> picked;
  if (columns.empty()) {
    for (size_t c = 0; c < num_result_columns; ++c) picked.push_back(c);
  }
  for (const int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= num_result_columns) {
      return Status::InvalidArgument("bad group result column " +
                                     std::to_string(c));
    }
    picked.push_back(static_cast<size_t>(c));
  }
  Schema schema;
  for (const size_t c : picked) schema.AddField(ResultField(plan, c));
  auto result = std::make_shared<Table>(std::move(schema));
  const size_t num_slots = plan.slots().size();

  // The rows to gather: every group, a piece segment at a time, or the
  // groups at `positions`, each resolved once to its representative row
  // and its accumulators.
  std::vector<Segment> segments;
  std::vector<uint32_t> rep_rows;
  std::vector<const AccValue*> accs;
  uint64_t num_rows = 0;
  if (positions == nullptr) {
    for (const FlatGroups& piece : groups) {
      for (size_t begin = 0; begin < piece.num_groups();
           begin += kSegmentGroups) {
        const size_t end = std::min<size_t>(piece.num_groups(),
                                            begin + kSegmentGroups);
        segments.push_back({&piece, begin, end, num_rows});
        num_rows += end - begin;
      }
    }
  } else {
    std::vector<uint64_t> starts;  // first group position of each piece
    uint64_t start = 0;
    for (const FlatGroups& piece : groups) {
      starts.push_back(start);
      start += piece.num_groups();
    }
    num_rows = positions->size();
    rep_rows.reserve(num_rows);
    accs.reserve(num_rows);
    for (const uint32_t p : *positions) {
      const auto at = static_cast<size_t>(
          std::upper_bound(starts.begin(), starts.end(), uint64_t{p}) -
          starts.begin() - 1);
      const uint64_t g = p - starts[at];
      rep_rows.push_back(groups[at].rep_rows[g]);
      accs.push_back(groups[at].accs.data() + g * num_slots);
    }
  }

  // The tasks: each key column whole (typed gathers of the representative
  // rows), and each aggregate column a segment or a chunk of the positions
  // at a time, into its preallocated values.
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < picked.size(); ++i) {
    Column* dst = &result->column(i);
    const size_t c = picked[i];
    if (c < num_keys) {
      const Column* src = &plan.table().column(
          static_cast<size_t>(plan.spec().key_columns[c]));
      dst->Reserve(num_rows);
      tasks.push_back([&, src, dst] {
        if (positions != nullptr) {
          dst->AppendRows(*src, rep_rows.data(), rep_rows.size());
          return;
        }
        for (const FlatGroups& piece : groups) {
          dst->AppendRows(*src, piece.rep_rows.data(), piece.rep_rows.size());
        }
      });
      continue;
    }
    WithAggregate(plan, plan.outputs()[c - num_keys], [&](auto tag,
                                                          auto value) {
      using T = decltype(tag);
      T* data = dst->AppendValues<T>(num_rows);
      if (positions != nullptr) {
        for (size_t begin = 0; begin < num_rows; begin += kSegmentGroups) {
          const size_t end = std::min<size_t>(num_rows, begin + kSegmentGroups);
          tasks.push_back([&accs, begin, end, data, value] {
            for (size_t r = begin; r < end; ++r) data[r] = value(accs[r]);
          });
        }
        return;
      }
      for (const Segment& seg : segments) {
        tasks.push_back([seg, data, value, num_slots] {
          const AccValue* piece_accs = seg.piece->accs.data();
          for (size_t g = seg.begin; g < seg.end; ++g) {
            data[seg.out + g - seg.begin] = value(piece_accs + g * num_slots);
          }
        });
      }
    });
  }
  auto run = [&](uint64_t t) { tasks[t](); };
  if (pool != nullptr && num_rows >= kParallelMaterializeGroups) {
    pool->ParallelFor(tasks.size(), run);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run(t);
  }
  BLUSIM_RETURN_NOT_OK(result->Validate());
  return result;
}

Result<GroupByOutput> MaterializeOutput(const GroupByPlan& plan,
                                        const GroupPieces& groups,
                                        ThreadPool* pool) {
  GroupByOutput out;
  out.num_groups = NumGroups(groups);
  BLUSIM_ASSIGN_OR_RETURN(out.table, MaterializeGroups(plan, groups, pool));
  return out;
}

}  // namespace blusim::runtime
