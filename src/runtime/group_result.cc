#include "runtime/group_result.h"

#include <algorithm>
#include <limits>

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

// Results at least this large fill their columns in parallel, one column
// per task: columns are separate objects, so the tasks share nothing.
constexpr uint64_t kParallelMaterializeGroups = 65536;

Result<std::shared_ptr<Table>> MaterializePieces(
    const GroupByPlan& plan, const std::vector<const FlatGroups*>& pieces,
    ThreadPool* pool) {
  const Table& input = plan.table();
  const size_t num_slots = plan.slots().size();
  uint64_t num_groups = 0;
  for (const FlatGroups* piece : pieces) num_groups += piece->num_groups();

  Schema schema;
  for (int kc : plan.spec().key_columns) {
    schema.AddField(input.schema().field(static_cast<size_t>(kc)));
  }
  for (const OutputAgg& out : plan.outputs()) {
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
    schema.AddField(f);
  }

  auto result = std::make_shared<Table>(std::move(schema));
  result->Reserve(num_groups);

  // Column c: a grouping key read from each group's representative row, or
  // an aggregate read from its accumulators, over the pieces in order.
  const size_t num_keys = plan.spec().key_columns.size();
  auto fill_column = [&](uint64_t c) {
    Column& dst = result->column(c);
    if (c < num_keys) {
      const Column& src =
          input.column(static_cast<size_t>(plan.spec().key_columns[c]));
      for (const FlatGroups* groups : pieces) {
        for (uint32_t rep : groups->rep_rows) dst.AppendFrom(src, rep);
      }
      return;
    }
    const OutputAgg& out = plan.outputs()[c - num_keys];
    const AggSlot& slot = plan.slots()[static_cast<size_t>(out.slot)];
    const auto slot_index = static_cast<size_t>(out.slot);
    for (const FlatGroups* groups : pieces) {
      const AccValue* accs = groups->accs.data();
      const size_t n = groups->num_groups();
      if (out.desc.fn == AggFn::kAvg) {
        const auto count_index = static_cast<size_t>(out.count_slot);
        for (size_t g = 0; g < n; ++g) {
          const AccValue& a = accs[g * num_slots + slot_index];
          const int64_t count = accs[g * num_slots + count_index].i64;
          double sum;
          switch (slot.acc_type) {
            case DataType::kFloat64: sum = a.f64; break;
            case DataType::kDecimal128: sum = a.dec.ToDouble(); break;
            default: sum = static_cast<double>(a.i64); break;
          }
          dst.AppendDouble(count == 0 ? 0.0
                                      : sum / static_cast<double>(count));
        }
        continue;
      }
      for (size_t g = 0; g < n; ++g) {
        const AccValue& a = accs[g * num_slots + slot_index];
        switch (slot.acc_type) {
          case DataType::kFloat64: dst.AppendDouble(a.f64); break;
          case DataType::kDecimal128: dst.AppendDecimal(a.dec); break;
          case DataType::kInt32:
          case DataType::kDate:
            dst.AppendInt32(static_cast<int32_t>(a.i64));
            break;
          default: dst.AppendInt64(a.i64); break;
        }
      }
    }
  };
  const size_t num_columns = num_keys + plan.outputs().size();
  if (pool != nullptr && num_groups >= kParallelMaterializeGroups) {
    pool->ParallelFor(num_columns, fill_column);
  } else {
    for (size_t c = 0; c < num_columns; ++c) fill_column(c);
  }

  BLUSIM_RETURN_NOT_OK(result->Validate());
  return result;
}

}  // namespace

Result<std::shared_ptr<Table>> MaterializeGroupsFlat(
    const GroupByPlan& plan, const FlatGroups& groups) {
  return MaterializePieces(plan, {&groups}, /*pool=*/nullptr);
}

Result<std::shared_ptr<Table>> MaterializeGroupsFlat(
    const GroupByPlan& plan, const std::vector<FlatGroups>& pieces,
    ThreadPool* pool) {
  std::vector<const FlatGroups*> ptrs;
  ptrs.reserve(pieces.size());
  for (const FlatGroups& piece : pieces) ptrs.push_back(&piece);
  return MaterializePieces(plan, ptrs, pool);
}

}  // namespace blusim::runtime
