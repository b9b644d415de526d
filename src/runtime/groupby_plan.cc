#include "runtime/groupby_plan.h"

#include "columnar/dictionary.h"
#include "common/hash.h"
#include "common/logging.h"

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;
using columnar::Table;

namespace {

// Bit width of one key component when packed into the concatenated key.
int ComponentBits(DataType type) {
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:  // dictionary code
      return 32;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 64;
    case DataType::kDecimal128:
      return 128;
  }
  return 64;
}

// The raw component value of row `row` in key column `col` as a 64-bit
// pattern (strings via their dictionary code).
uint64_t ComponentValue(const Column& col, const std::vector<int32_t>& codes,
                        size_t row) {
  if (col.type() == DataType::kString) {
    return static_cast<uint32_t>(codes[row]);
  }
  if (col.type() == DataType::kInt32 || col.type() == DataType::kDate) {
    return static_cast<uint32_t>(col.int32_data()[row]);
  }
  return col.HashableKey(row);
}

}  // namespace

Result<GroupByPlan> GroupByPlan::Make(const Table& table,
                                      const GroupBySpec& spec) {
  GroupByPlan plan;
  plan.table_ = &table;
  plan.spec_ = spec;

  if (spec.key_columns.empty()) {
    return Status::InvalidArgument("group-by requires at least one key");
  }

  // Resolve key columns, compute component widths, encode string keys.
  plan.string_codes_.resize(spec.key_columns.size());
  int bits = 0;
  for (size_t i = 0; i < spec.key_columns.size(); ++i) {
    const int c = spec.key_columns[i];
    if (c < 0 || static_cast<size_t>(c) >= table.num_columns()) {
      return Status::InvalidArgument("bad key column index " +
                                     std::to_string(c));
    }
    const Column& col = table.column(static_cast<size_t>(c));
    const int w = ComponentBits(col.type());
    plan.component_bits_.push_back(w);
    bits += w;
    if (col.type() == DataType::kString) {
      // BLU operates on dictionary codes; encode once, single-threaded,
      // before the parallel chain starts (the generator normally ships
      // pre-encoded columns -- this is the fallback for raw strings).
      columnar::Dictionary dict;
      plan.string_codes_[i] = dict.EncodeColumn(col);
    }
  }
  plan.key_bits_ = bits;
  plan.wide_key_ = bits > 64;
  if (plan.wide_key_) {
    int bytes = 0;
    for (int w : plan.component_bits_) bytes += w / 8;
    if (bytes > WideKey::kCapacity) {
      return Status::NotSupported("concatenated grouping key exceeds " +
                                  std::to_string(WideKey::kCapacity) +
                                  " bytes");
    }
    plan.wide_key_bytes_ = bytes;
  }

  // Compile aggregates into internal slots (AVG -> SUM + COUNT).
  for (const AggregateDesc& desc : spec.aggregates) {
    DataType input_type = DataType::kInt64;
    if (desc.column >= 0) {
      if (static_cast<size_t>(desc.column) >= table.num_columns()) {
        return Status::InvalidArgument("bad aggregate column index " +
                                       std::to_string(desc.column));
      }
      input_type = table.column(static_cast<size_t>(desc.column)).type();
    } else if (desc.fn != AggFn::kCount) {
      return Status::InvalidArgument("only COUNT may omit its column");
    }
    if (input_type == DataType::kString) {
      // Aggregating raw strings is out of scope (the paper's engine
      // aggregates numerics; strings appear as grouping keys). DECIMAL128
      // exercises the lock-based device aggregation path instead.
      return Status::NotSupported("aggregate over string column");
    }

    auto add_slot = [&](AggFn fn) {
      AggSlot slot;
      slot.fn = fn;
      slot.input_column = fn == AggFn::kCount && desc.fn == AggFn::kAvg
                              ? desc.column
                              : desc.column;
      slot.input_type = input_type;
      slot.acc_type = AggAccumulatorType(fn, input_type);
      slot.slot_bytes = AggSlotBytes(fn, input_type);
      slot.lock_required = !columnar::HasDeviceAtomicSupport(slot.acc_type);
      plan.slots_.push_back(slot);
      return static_cast<int>(plan.slots_.size() - 1);
    };

    OutputAgg out;
    out.desc = desc;
    if (desc.fn == AggFn::kAvg) {
      out.slot = add_slot(AggFn::kSum);
      out.count_slot = add_slot(AggFn::kCount);
    } else {
      out.slot = add_slot(desc.fn);
    }
    plan.outputs_.push_back(out);
  }

  return plan;
}

bool GroupByPlan::needs_locks() const {
  if (wide_key_) return true;
  for (const AggSlot& s : slots_) {
    if (s.lock_required) return true;
  }
  return false;
}

int GroupByPlan::payload_bytes_per_row() const {
  int bytes = 0;
  for (const AggSlot& s : slots_) {
    if (s.input_column < 0) continue;  // COUNT(*) ships no payload
    const int w = columnar::DataTypeWidth(s.input_type);
    bytes += w == 0 ? 8 : w;  // strings ship an 8-byte prefix handle
  }
  return bytes;
}

uint64_t GroupByPlan::PackKey(size_t row) const {
  BLUSIM_DCHECK(!wide_key_);
  uint64_t key = 0;
  for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
    const Column& col =
        table_->column(static_cast<size_t>(spec_.key_columns[i]));
    const uint64_t v = ComponentValue(col, string_codes_[i], row);
    const int w = component_bits_[i];
    key = (w >= 64) ? v : ((key << w) | (v & ((1ULL << w) - 1)));
  }
  return key;
}

uint64_t GroupByPlan::KeyHash(size_t row) const {
  if (!wide_key_) return Mix64(PackKey(row));
  WideKey wk;
  FillWideKey(row, &wk);
  return Murmur3_64(wk.bytes, wk.len);
}

void GroupByPlan::FillWideKey(size_t row, WideKey* out) const {
  BLUSIM_DCHECK(wide_key_);
  uint8_t* p = out->bytes;
  for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
    const Column& col =
        table_->column(static_cast<size_t>(spec_.key_columns[i]));
    const int w = component_bits_[i];
    if (w == 128) {
      const columnar::Decimal128& d = col.GetDecimal(row);
      std::memcpy(p, &d, 16);
      p += 16;
    } else if (w == 64) {
      const uint64_t v = ComponentValue(col, string_codes_[i], row);
      std::memcpy(p, &v, 8);
      p += 8;
    } else {
      const uint32_t v =
          static_cast<uint32_t>(ComponentValue(col, string_codes_[i], row));
      std::memcpy(p, &v, 4);
      p += 4;
    }
  }
  out->len = static_cast<uint8_t>(p - out->bytes);
  // Zero the tail so bytewise equality over kCapacity stays well-defined.
  std::memset(p, 0, static_cast<size_t>(WideKey::kCapacity - out->len));
}

}  // namespace blusim::runtime
