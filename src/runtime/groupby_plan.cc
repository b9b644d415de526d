#include "runtime/groupby_plan.h"

#include <algorithm>

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

// Calls f(j, row) for input row j of a batch: row id range.begin + j when
// `rows` is nullptr, else rows[range.begin + j].
template <typename F>
void ForEachRow(const uint32_t* rows, MorselRange range, F&& f) {
  const uint64_t n = range.size();
  if (rows == nullptr) {
    const auto base = static_cast<uint32_t>(range.begin);
    for (uint64_t j = 0; j < n; ++j) f(j, base + static_cast<uint32_t>(j));
  } else {
    const uint32_t* batch = rows + range.begin;
    for (uint64_t j = 0; j < n; ++j) f(j, batch[j]);
  }
}

// Calls `f` with a reader of one key column's component value, as a 64-bit
// pattern, for a row id: 32-bit values (int32/date, and string dictionary
// codes) zero-extended, int64 and float64 values as their raw bits.
// DECIMAL128 components are copied whole by FillWideKeys instead.
template <typename F>
void WithComponent(const Column& col, const std::vector<int32_t>& codes,
                   F&& f) {
  switch (col.type()) {
    case DataType::kString:
    case DataType::kInt32:
    case DataType::kDate: {
      const int32_t* data = col.type() == DataType::kString
                                ? codes.data()
                                : col.int32_data().data();
      return f([data](uint32_t row) -> uint64_t {
        return static_cast<uint32_t>(data[row]);
      });
    }
    case DataType::kInt64: {
      const int64_t* data = col.int64_data().data();
      return f([data](uint32_t row) -> uint64_t {
        return static_cast<uint64_t>(data[row]);
      });
    }
    case DataType::kFloat64: {
      const double* data = col.float64_data().data();
      return f([data](uint32_t row) -> uint64_t {
        uint64_t bits;
        std::memcpy(&bits, &data[row], sizeof(bits));
        return bits;
      });
    }
    case DataType::kDecimal128:
      BLUSIM_CHECK(false);
  }
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

void GroupByPlan::PackKeys(const uint32_t* rows, MorselRange range,
                           uint64_t* out) const {
  BLUSIM_DCHECK(!wide_key_);
  for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
    const Column& col =
        table_->column(static_cast<size_t>(spec_.key_columns[i]));
    const int w = component_bits_[i];
    const uint64_t mask = w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
    WithComponent(col, string_codes_[i], [&](auto value) {
      if (i == 0 || w >= 64) {
        ForEachRow(rows, range, [&](uint64_t j, uint32_t row) {
          out[j] = value(row) & mask;
        });
      } else {
        ForEachRow(rows, range, [&](uint64_t j, uint32_t row) {
          out[j] = (out[j] << w) | (value(row) & mask);
        });
      }
    });
  }
}

void GroupByPlan::FillWideKeys(const uint32_t* rows, MorselRange range,
                               WideKey* out) const {
  BLUSIM_DCHECK(wide_key_);
  size_t offset = 0;
  for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
    const Column& col =
        table_->column(static_cast<size_t>(spec_.key_columns[i]));
    const int w = component_bits_[i];
    if (w == 128) {
      const columnar::Decimal128* data = col.decimal_data().data();
      ForEachRow(rows, range, [&](uint64_t j, uint32_t row) {
        std::memcpy(out[j].bytes + offset, &data[row], 16);
      });
    } else {
      WithComponent(col, string_codes_[i], [&](auto value) {
        ForEachRow(rows, range, [&](uint64_t j, uint32_t row) {
          const uint64_t v = value(row);
          if (w == 64) {
            std::memcpy(out[j].bytes + offset, &v, 8);
          } else {
            const auto v32 = static_cast<uint32_t>(v);
            std::memcpy(out[j].bytes + offset, &v32, 4);
          }
        });
      });
    }
    offset += static_cast<size_t>(w / 8);
  }
  // Zero the tail so bytewise equality over kCapacity stays well-defined.
  for (uint64_t j = 0; j < range.size(); ++j) {
    out[j].len = static_cast<uint8_t>(offset);
    std::memset(out[j].bytes + offset, 0, WideKey::kCapacity - offset);
  }
}

void GroupByPlan::HashKeys(const uint32_t* rows, MorselRange range,
                           uint64_t* out) const {
  if (!wide_key_) {
    PackKeys(rows, range, out);
    for (uint64_t j = 0; j < range.size(); ++j) out[j] = Mix64(out[j]);
    return;
  }
  // Wide keys are filled a block at a time into a small buffer and hashed.
  constexpr uint64_t kBlock = 256;
  std::vector<WideKey> keys(std::min(range.size(), kBlock));
  for (uint64_t begin = range.begin; begin < range.end; begin += kBlock) {
    const MorselRange block{begin, std::min(begin + kBlock, range.end)};
    FillWideKeys(rows, block, keys.data());
    uint64_t* dst = out + (begin - range.begin);
    for (uint64_t j = 0; j < block.size(); ++j) {
      dst[j] = Murmur3_64(keys[j].bytes, keys[j].len);
    }
  }
}

uint64_t GroupByPlan::PackKey(size_t row) const {
  const auto r = static_cast<uint32_t>(row);
  uint64_t key = 0;
  PackKeys(&r, MorselRange{0, 1}, &key);
  return key;
}

void GroupByPlan::FillWideKey(size_t row, WideKey* out) const {
  const auto r = static_cast<uint32_t>(row);
  FillWideKeys(&r, MorselRange{0, 1}, out);
}

uint64_t GroupByPlan::KeyHash(size_t row) const {
  const auto r = static_cast<uint32_t>(row);
  uint64_t hash = 0;
  HashKeys(&r, MorselRange{0, 1}, &hash);
  return hash;
}

}  // namespace blusim::runtime
