#include "runtime/predicate.h"

#include <type_traits>

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;
using columnar::Table;

namespace {

// Calls `f` with the numeric comparison `p` makes, on a value read as a
// double. NaN compares false under every operator but kNe.
template <typename F>
void WithNumericCmp(const Predicate& p, F&& f) {
  const double lo = p.lo;
  const double hi = p.hi;
  switch (p.op) {
    case CmpOp::kEq: return f([lo](double v) { return v == lo; });
    case CmpOp::kNe: return f([lo](double v) { return v != lo; });
    case CmpOp::kLt: return f([lo](double v) { return v < lo; });
    case CmpOp::kLe: return f([lo](double v) { return v <= lo; });
    case CmpOp::kGt: return f([lo](double v) { return v > lo; });
    case CmpOp::kGe: return f([lo](double v) { return v >= lo; });
    case CmpOp::kBetween:
      return f([lo, hi](double v) { return v >= lo && v <= hi; });
  }
}

// Calls `f` with the string comparison `p` makes against `p.str`.
template <typename F>
void WithStringCmp(const Predicate& p, F&& f) {
  const std::string* s = &p.str;
  switch (p.op) {
    case CmpOp::kEq: return f([s](const std::string& v) { return v == *s; });
    case CmpOp::kNe: return f([s](const std::string& v) { return v != *s; });
    case CmpOp::kLt: return f([s](const std::string& v) { return v < *s; });
    case CmpOp::kLe: return f([s](const std::string& v) { return v <= *s; });
    case CmpOp::kGt: return f([s](const std::string& v) { return v > *s; });
    case CmpOp::kGe: return f([s](const std::string& v) { return v >= *s; });
    case CmpOp::kBetween: return f([](const std::string&) { return false; });
  }
}

// Calls `f` with a test of one row id against `p`, specialized for the
// column's storage type and for whether it holds NULLs. Numeric values are
// widened exactly as Column::GetDouble widens them.
template <typename F>
void WithRowTest(const Predicate& p, const Column& col, F&& f) {
  auto typed = [&](const auto* data, auto cmp) {
    if (col.has_nulls()) {
      f([&col, data, cmp](uint32_t row) {
        return !col.IsNull(row) && cmp(data[row]);
      });
    } else {
      f([data, cmp](uint32_t row) { return cmp(data[row]); });
    }
  };
  auto numeric = [&](const auto* data) {
    WithNumericCmp(p, [&](auto cmp) {
      typed(data, [cmp](const auto& v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     columnar::Decimal128>) {
          return cmp(v.ToDouble());
        } else {
          return cmp(static_cast<double>(v));
        }
      });
    });
  };
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate:
      return numeric(col.int32_data().data());
    case DataType::kInt64:
      return numeric(col.int64_data().data());
    case DataType::kFloat64:
      return numeric(col.float64_data().data());
    case DataType::kDecimal128:
      return numeric(col.decimal_data().data());
    case DataType::kString:
      return WithStringCmp(
          p, [&](auto cmp) { typed(col.string_data().data(), cmp); });
  }
}

// Writes every input row to `out` and keeps those passing `test`; returns
// how many passed. The unconditional store keeps the loop branch-free.
template <typename Test>
size_t Generate(Test test, const uint32_t* rows, MorselRange range,
                uint32_t* out) {
  size_t n = 0;
  if (rows == nullptr) {
    for (uint64_t r = range.begin; r < range.end; ++r) {
      const auto row = static_cast<uint32_t>(r);
      out[n] = row;
      n += test(row) ? 1 : 0;
    }
  } else {
    for (uint64_t i = range.begin; i < range.end; ++i) {
      const uint32_t row = rows[i];
      out[n] = row;
      n += test(row) ? 1 : 0;
    }
  }
  return n;
}

// Compacts the `count` candidates in `sel` to those passing `test`.
template <typename Test>
size_t Refine(Test test, uint32_t* sel, size_t count) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t row = sel[i];
    sel[n] = row;
    n += test(row) ? 1 : 0;
  }
  return n;
}

}  // namespace

void SelectRows(const Table& table, const std::vector<Predicate>& predicates,
                const uint32_t* rows, MorselRange range,
                std::vector<uint32_t>* out) {
  out->resize(range.size());
  size_t n = 0;
  if (predicates.empty()) {
    n = Generate([](uint32_t) { return true; }, rows, range, out->data());
  } else {
    const Predicate& first = predicates.front();
    WithRowTest(first, table.column(static_cast<size_t>(first.column)),
                [&](auto test) {
                  n = Generate(test, rows, range, out->data());
                });
    for (size_t i = 1; i < predicates.size() && n > 0; ++i) {
      const Predicate& p = predicates[i];
      WithRowTest(p, table.column(static_cast<size_t>(p.column)),
                  [&](auto test) { n = Refine(test, out->data(), n); });
    }
  }
  out->resize(n);
}

Status ValidatePredicates(const Table& table,
                          const std::vector<Predicate>& predicates) {
  for (const Predicate& p : predicates) {
    if (p.column < 0 || static_cast<size_t>(p.column) >= table.num_columns()) {
      return Status::InvalidArgument("predicate on bad column " +
                                     std::to_string(p.column));
    }
  }
  return Status::OK();
}

}  // namespace blusim::runtime
