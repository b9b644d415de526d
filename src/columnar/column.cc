#include "columnar/column.h"

#include <type_traits>

#include "common/hash.h"

namespace blusim::columnar {

namespace {

template <typename T>
std::vector<T> MakeStorage() {
  return {};
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
      data_ = MakeStorage<int32_t>();
      break;
    case DataType::kInt64:
      data_ = MakeStorage<int64_t>();
      break;
    case DataType::kFloat64:
      data_ = MakeStorage<double>();
      break;
    case DataType::kDecimal128:
      data_ = MakeStorage<Decimal128>();
      break;
    case DataType::kString:
      data_ = MakeStorage<std::string>();
      break;
  }
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

uint64_t Column::byte_size() const {
  if (type_ == DataType::kString) {
    uint64_t total = 0;
    for (const std::string& s : std::get<std::vector<std::string>>(data_)) {
      total += s.size() + sizeof(uint32_t);  // data + offset entry
    }
    return total;
  }
  return size() * static_cast<uint64_t>(DataTypeWidth(type_));
}

void Column::Reserve(size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void Column::MarkValid() {
  if (!valid_.empty()) valid_.push_back(true);
}

void Column::AppendInt32Impl(int32_t v) {
  BLUSIM_CHECK(type_ == DataType::kInt32 || type_ == DataType::kDate);
  std::get<std::vector<int32_t>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendInt32(int32_t v) { AppendInt32Impl(v); }

void Column::AppendInt64(int64_t v) {
  BLUSIM_CHECK(type_ == DataType::kInt64);
  std::get<std::vector<int64_t>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendDouble(double v) {
  BLUSIM_CHECK(type_ == DataType::kFloat64);
  std::get<std::vector<double>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendDecimal(const Decimal128& v) {
  BLUSIM_CHECK(type_ == DataType::kDecimal128);
  std::get<std::vector<Decimal128>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendString(std::string v) {
  BLUSIM_CHECK(type_ == DataType::kString);
  std::get<std::vector<std::string>>(data_).push_back(std::move(v));
  MarkValid();
}

void Column::AppendNull() {
  const size_t n = size();
  if (valid_.empty()) {
    valid_.assign(n, true);
  }
  // Append a type-default slot so the value vector stays aligned.
  std::visit([](auto& v) { v.emplace_back(); }, data_);
  valid_.push_back(false);
  ++null_count_;
}

void Column::AppendFrom(const Column& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (src.type()) {
    case DataType::kInt32:
    case DataType::kDate:
      AppendInt32Impl(src.int32_data()[row]);
      break;
    case DataType::kInt64:
      AppendInt64(src.int64_data()[row]);
      break;
    case DataType::kFloat64:
      AppendDouble(src.float64_data()[row]);
      break;
    case DataType::kDecimal128:
      AppendDecimal(src.decimal_data()[row]);
      break;
    case DataType::kString:
      AppendString(src.string_data()[row]);
      break;
  }
}

void Column::AppendRows(const Column& src, const uint32_t* rows, size_t n) {
  BLUSIM_CHECK(src.data_.index() == data_.index());
  const size_t base = size();
  const bool nullable = src.has_nulls();
  std::visit(
      [&](auto& data) {
        using Vec = std::decay_t<decltype(data)>;
        const Vec& from = std::get<Vec>(src.data_);
        data.resize(base + n);
        if (!nullable) {
          for (size_t i = 0; i < n; ++i) data[base + i] = from[rows[i]];
          return;
        }
        // A null keeps the type-default value, as AppendNull leaves it.
        for (size_t i = 0; i < n; ++i) {
          if (!src.IsNull(rows[i])) data[base + i] = from[rows[i]];
        }
      },
      data_);
  if (nullable) {
    if (valid_.empty()) valid_.assign(base, true);
    valid_.resize(base + n);
    for (size_t i = 0; i < n; ++i) {
      const bool valid = !src.IsNull(rows[i]);
      valid_[base + i] = valid;
      null_count_ += valid ? 0 : 1;
    }
    // The validity bitmap stays empty until the first null.
    if (null_count_ == 0) valid_.clear();
  } else if (!valid_.empty()) {
    valid_.resize(base + n, true);
  }
}

const std::vector<int32_t>& Column::int32_data() const {
  BLUSIM_CHECK(type_ == DataType::kInt32 || type_ == DataType::kDate);
  return std::get<std::vector<int32_t>>(data_);
}

const std::vector<int64_t>& Column::int64_data() const {
  BLUSIM_CHECK(type_ == DataType::kInt64);
  return std::get<std::vector<int64_t>>(data_);
}

const std::vector<double>& Column::float64_data() const {
  BLUSIM_CHECK(type_ == DataType::kFloat64);
  return std::get<std::vector<double>>(data_);
}

const std::vector<Decimal128>& Column::decimal_data() const {
  BLUSIM_CHECK(type_ == DataType::kDecimal128);
  return std::get<std::vector<Decimal128>>(data_);
}

const std::vector<std::string>& Column::string_data() const {
  BLUSIM_CHECK(type_ == DataType::kString);
  return std::get<std::vector<std::string>>(data_);
}

int64_t Column::GetInt64(size_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
      return std::get<std::vector<int32_t>>(data_)[i];
    case DataType::kInt64:
      return std::get<std::vector<int64_t>>(data_)[i];
    default:
      BLUSIM_CHECK(false);
  }
  return 0;
}

double Column::GetDouble(size_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
      return std::get<std::vector<int32_t>>(data_)[i];
    case DataType::kInt64:
      return static_cast<double>(std::get<std::vector<int64_t>>(data_)[i]);
    case DataType::kFloat64:
      return std::get<std::vector<double>>(data_)[i];
    case DataType::kDecimal128:
      return std::get<std::vector<Decimal128>>(data_)[i].ToDouble();
    case DataType::kString:
      BLUSIM_CHECK(false);
  }
  return 0;
}

const std::string& Column::GetString(size_t i) const {
  BLUSIM_CHECK(type_ == DataType::kString);
  return std::get<std::vector<std::string>>(data_)[i];
}

const Decimal128& Column::GetDecimal(size_t i) const {
  BLUSIM_CHECK(type_ == DataType::kDecimal128);
  return std::get<std::vector<Decimal128>>(data_)[i];
}

uint64_t Column::HashableKey(size_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
      return static_cast<uint64_t>(
          static_cast<int64_t>(std::get<std::vector<int32_t>>(data_)[i]));
    case DataType::kInt64:
      return static_cast<uint64_t>(std::get<std::vector<int64_t>>(data_)[i]);
    case DataType::kFloat64: {
      const double d = std::get<std::vector<double>>(data_)[i];
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    case DataType::kDecimal128: {
      const Decimal128& d = std::get<std::vector<Decimal128>>(data_)[i];
      return Murmur3_64(&d, sizeof(d));
    }
    case DataType::kString: {
      const std::string& s = std::get<std::vector<std::string>>(data_)[i];
      return Murmur3_64(s.data(), s.size());
    }
  }
  return 0;
}

}  // namespace blusim::columnar
