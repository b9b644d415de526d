#include "sort/key_encoder.h"

#include <cstring>

#include "common/logging.h"

namespace blusim::sort {

using columnar::Column;
using columnar::DataType;
using columnar::Decimal128;
using columnar::Table;

namespace {

void PutU32(uint64_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  PutU32(v >> 32, out);
  PutU32(v & 0xFFFFFFFFULL, out);
}

// IEEE-754 total-order transform: positive values get the sign bit set,
// negative values are bit-inverted, so unsigned byte order matches value
// order (NaNs sort above all numbers).
uint64_t EncodeDoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & 0x8000000000000000ULL) return ~bits;
  return bits | 0x8000000000000000ULL;
}

// Encoded byte length of one key column (0 marks variable-length strings).
int FixedEncodedBytes(DataType type) {
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
      return 4;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kDecimal128:
      return 16;
    case DataType::kString:
      return 0;
  }
  return 8;
}

}  // namespace

Result<KeyEncoder> KeyEncoder::Make(const Table& table,
                                    std::vector<SortKey> keys) {
  if (keys.empty()) {
    return Status::InvalidArgument("sort requires at least one key");
  }
  KeyEncoder enc;
  enc.table_ = &table;

  int fixed = 0;
  for (const SortKey& k : keys) {
    if (k.column < 0 || static_cast<size_t>(k.column) >= table.num_columns()) {
      return Status::InvalidArgument("bad sort column " +
                                     std::to_string(k.column));
    }
    const DataType type =
        table.column(static_cast<size_t>(k.column)).type();
    const int w = FixedEncodedBytes(type);
    if (w == 0) {
      enc.has_strings_ = true;
    } else {
      fixed += w;
    }
  }
  enc.keys_ = std::move(keys);
  enc.fixed_bytes_ = fixed;

  int max_bytes = fixed;
  if (enc.has_strings_) {
    // Strings are variable length; find the longest encoded row.
    uint64_t longest = 0;
    for (const SortKey& k : enc.keys_) {
      const Column& col = table.column(static_cast<size_t>(k.column));
      if (col.type() != DataType::kString) continue;
      uint64_t m = 0;
      for (const std::string& s : col.string_data()) {
        m = std::max<uint64_t>(m, s.size() + 1);  // + terminator
      }
      longest += m;
    }
    max_bytes += static_cast<int>(longest);
  }
  enc.levels_ = (max_bytes + 3) / 4;
  if (enc.levels_ == 0) enc.levels_ = 1;
  return enc;
}

void KeyEncoder::EncodeRow(uint32_t row, std::vector<uint8_t>* out) const {
  for (const SortKey& k : keys_) {
    const Column& col = table_->column(static_cast<size_t>(k.column));
    const size_t start = out->size();
    switch (col.type()) {
      case DataType::kInt32:
      case DataType::kDate: {
        const uint32_t v =
            static_cast<uint32_t>(col.int32_data()[row]) ^ 0x80000000U;
        PutU32(v, out);
        break;
      }
      case DataType::kInt64: {
        const uint64_t v =
            static_cast<uint64_t>(col.int64_data()[row]) ^
            0x8000000000000000ULL;
        PutU64(v, out);
        break;
      }
      case DataType::kFloat64:
        PutU64(EncodeDoubleBits(col.float64_data()[row]), out);
        break;
      case DataType::kDecimal128: {
        const Decimal128& d = col.decimal_data()[row];
        PutU64(static_cast<uint64_t>(d.hi) ^ 0x8000000000000000ULL, out);
        PutU64(d.lo, out);
        break;
      }
      case DataType::kString: {
        const std::string& s = col.string_data()[row];
        out->insert(out->end(), s.begin(), s.end());
        out->push_back(0);  // terminator keeps the encoding prefix-free
        break;
      }
    }
    if (!k.ascending) {
      for (size_t i = start; i < out->size(); ++i) {
        (*out)[i] = static_cast<uint8_t>(~(*out)[i]);
      }
    }
  }
}

namespace {

// Big-endian stores into an encoded key.
void StoreU32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v >> 24);
  out[1] = static_cast<uint8_t>(v >> 16);
  out[2] = static_cast<uint8_t>(v >> 8);
  out[3] = static_cast<uint8_t>(v);
}

void StoreU64(uint64_t v, uint8_t* out) {
  StoreU32(static_cast<uint32_t>(v >> 32), out);
  StoreU32(static_cast<uint32_t>(v), out + 4);
}

}  // namespace

void KeyEncoder::EncodeAll(std::vector<uint8_t>* blob,
                           std::vector<uint64_t>* offsets) const {
  const size_t n = table_->num_rows();
  const auto fixed = static_cast<uint64_t>(fixed_bytes_);
  offsets->clear();
  // Each row's write position, advanced column by column: r * fixed plus
  // the columns written so far, or -- with strings -- a position per row
  // from the rows' prefix-summed lengths.
  std::vector<uint64_t> pos;
  uint64_t total = n * fixed;
  if (has_strings_) {
    offsets->assign(n + 1, fixed);
    for (const SortKey& k : keys_) {
      const Column& col = table_->column(static_cast<size_t>(k.column));
      if (col.type() != DataType::kString) continue;
      const std::vector<std::string>& data = col.string_data();
      for (size_t r = 0; r < n; ++r) (*offsets)[r] += data[r].size() + 1;
    }
    total = 0;
    for (size_t r = 0; r <= n; ++r) {
      const uint64_t len = r < n ? (*offsets)[r] : 0;
      (*offsets)[r] = total;
      total += len;
    }
    pos.assign(offsets->begin(), offsets->end() - 1);
  }
  blob->resize(total);
  uint8_t* base = blob->data();
  uint64_t column_offset = 0;
  auto at = [&](size_t r) {
    return base + (has_strings_ ? pos[r] : r * fixed + column_offset);
  };
  auto advance = [&](size_t r, uint64_t width) {
    if (has_strings_) pos[r] += width;
  };
  for (const SortKey& k : keys_) {
    const Column& col = table_->column(static_cast<size_t>(k.column));
    // Descending keys invert every encoded byte.
    const uint64_t invert = k.ascending ? 0 : ~uint64_t{0};
    switch (col.type()) {
      case DataType::kInt32:
      case DataType::kDate: {
        const std::vector<int32_t>& data = col.int32_data();
        for (size_t r = 0; r < n; ++r) {
          StoreU32(static_cast<uint32_t>(data[r]) ^ 0x80000000U ^
                       static_cast<uint32_t>(invert),
                   at(r));
          advance(r, 4);
        }
        break;
      }
      case DataType::kInt64: {
        const std::vector<int64_t>& data = col.int64_data();
        for (size_t r = 0; r < n; ++r) {
          StoreU64(static_cast<uint64_t>(data[r]) ^ 0x8000000000000000ULL ^
                       invert,
                   at(r));
          advance(r, 8);
        }
        break;
      }
      case DataType::kFloat64: {
        const std::vector<double>& data = col.float64_data();
        for (size_t r = 0; r < n; ++r) {
          StoreU64(EncodeDoubleBits(data[r]) ^ invert, at(r));
          advance(r, 8);
        }
        break;
      }
      case DataType::kDecimal128: {
        const std::vector<Decimal128>& data = col.decimal_data();
        for (size_t r = 0; r < n; ++r) {
          uint8_t* out = at(r);
          StoreU64(static_cast<uint64_t>(data[r].hi) ^ 0x8000000000000000ULL ^
                       invert,
                   out);
          StoreU64(data[r].lo ^ invert, out + 8);
          advance(r, 16);
        }
        break;
      }
      case DataType::kString: {
        const std::vector<std::string>& data = col.string_data();
        const auto mask = static_cast<uint8_t>(invert);
        for (size_t r = 0; r < n; ++r) {
          const std::string& v = data[r];
          uint8_t* out = at(r);
          for (size_t i = 0; i < v.size(); ++i) {
            out[i] = static_cast<uint8_t>(v[i]) ^ mask;
          }
          out[v.size()] = mask;  // terminator keeps the encoding prefix-free
          advance(r, v.size() + 1);
        }
        break;
      }
    }
    column_offset += static_cast<uint64_t>(FixedEncodedBytes(col.type()));
  }
}

uint32_t KeyEncoder::PartialKey(uint32_t row, int level) const {
  // Fast path for fixed-width keys: compute the 4 bytes directly without
  // materializing the whole stream.
  std::vector<uint8_t> buf;
  buf.reserve(static_cast<size_t>(fixed_bytes_) + 16);
  EncodeRow(row, &buf);
  uint32_t v = 0;
  const size_t base = static_cast<size_t>(level) * 4;
  for (size_t i = 0; i < 4; ++i) {
    v <<= 8;
    if (base + i < buf.size()) v |= buf[base + i];
  }
  return v;
}

bool KeyEncoder::RowLess(uint32_t a, uint32_t b) const {
  std::vector<uint8_t> ka, kb;
  EncodeRow(a, &ka);
  EncodeRow(b, &kb);
  const int cmp = std::memcmp(ka.data(), kb.data(), std::min(ka.size(),
                                                             kb.size()));
  if (cmp != 0) return cmp < 0;
  if (ka.size() != kb.size()) return ka.size() < kb.size();
  return a < b;  // deterministic tie-break
}

bool KeyEncoder::RowEqual(uint32_t a, uint32_t b) const {
  std::vector<uint8_t> ka, kb;
  EncodeRow(a, &ka);
  EncodeRow(b, &kb);
  return ka == kb;
}

}  // namespace blusim::sort
