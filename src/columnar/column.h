#ifndef BLUSIM_COLUMNAR_COLUMN_H_
#define BLUSIM_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "columnar/types.h"
#include "common/logging.h"

namespace blusim::columnar {

// One in-memory column: a typed value vector plus an optional validity
// (null) bitmap. Storage is columnar and contiguous, as in BLU; operators
// read the typed vectors directly for scan speed.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;
  uint64_t byte_size() const;

  // --- Appenders (type must match; checked) ---
  void AppendInt32(int32_t v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendDecimal(const Decimal128& v);
  void AppendString(std::string v);
  void AppendDate(int32_t days) { AppendInt32Impl(days); }
  void AppendNull();
  // Appends `src`'s value at `row`, or a null; `src` has this type. The
  // one-cell oracle of AppendRows.
  void AppendFrom(const Column& src, size_t row);
  // Appends `src`'s values (or nulls) at rows[0..n), in order: the typed
  // gather, one type switch per call. `src` has this type.
  void AppendRows(const Column& src, const uint32_t* rows, size_t n);
  // Appends n non-null, value-initialized values of storage type T (int32_t
  // for INT32/DATE, int64_t, double, Decimal128, std::string) and returns
  // them for the caller to fill; one type check per call. The pointer is
  // valid until the next append.
  template <typename T>
  T* AppendValues(size_t n) {
    BLUSIM_CHECK(std::holds_alternative<std::vector<T>>(data_));
    std::vector<T>& data = std::get<std::vector<T>>(data_);
    const size_t base = data.size();
    data.resize(base + n);
    if (!valid_.empty()) valid_.resize(base + n, true);
    return data.data() + base;
  }

  void Reserve(size_t n);

  // --- Null handling ---
  bool has_nulls() const { return null_count_ > 0; }
  uint64_t null_count() const { return null_count_; }
  bool IsNull(size_t i) const {
    return null_count_ > 0 && valid_.size() > i && !valid_[i];
  }

  // --- Typed vector access (type must match; checked) ---
  const std::vector<int32_t>& int32_data() const;
  const std::vector<int64_t>& int64_data() const;
  const std::vector<double>& float64_data() const;
  const std::vector<Decimal128>& decimal_data() const;
  const std::vector<std::string>& string_data() const;

  // --- Generic element access with widening conversions ---
  // Integer-family value widened to int64 (INT32/INT64/DATE).
  int64_t GetInt64(size_t i) const;
  // Numeric value as double (any numeric type incl. DECIMAL128).
  double GetDouble(size_t i) const;
  const std::string& GetString(size_t i) const;
  const Decimal128& GetDecimal(size_t i) const;

  // 64-bit hashable representation of row i's value (for the HASH
  // evaluator). Strings hash their bytes via Murmur.
  uint64_t HashableKey(size_t i) const;

 private:
  void AppendInt32Impl(int32_t v);
  void MarkValid();

  DataType type_;
  std::variant<std::vector<int32_t>, std::vector<int64_t>,
               std::vector<double>, std::vector<Decimal128>,
               std::vector<std::string>>
      data_;
  std::vector<bool> valid_;  // empty until first null appended
  uint64_t null_count_ = 0;
};

}  // namespace blusim::columnar

#endif  // BLUSIM_COLUMNAR_COLUMN_H_
