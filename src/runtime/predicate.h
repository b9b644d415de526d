#ifndef BLUSIM_RUNTIME_PREDICATE_H_
#define BLUSIM_RUNTIME_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Comparison operators for scan predicates.
enum class CmpOp : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,  // lo <= v <= hi
};

// One conjunct of a scan filter. Numeric comparisons use `lo`/`hi`
// (BETWEEN uses both); string comparisons use `str` (BETWEEN on a string
// column matches nothing). Numeric values compare as doubles (Column::
// GetDouble: int64 and DECIMAL128 values round), and a NULL never matches.
struct Predicate {
  int column = -1;
  CmpOp op = CmpOp::kEq;
  double lo = 0.0;
  double hi = 0.0;
  std::string str;
};

// The predicate kernel, column-at-a-time: evaluates the conjunction of
// `predicates` over the input rows -- the row ids range.begin..range.end-1
// when `rows` is nullptr, else rows[range.begin..range.end) -- and replaces
// `*out` with the ids that satisfy it, in input order (ascending for an
// ascending input). The first predicate generates the candidates and each
// later one refines them in place, so the type and operator dispatch runs
// once per predicate per call, never per row. No predicates selects every
// input row. Column indices must be valid -- see ValidatePredicates.
void SelectRows(const columnar::Table& table,
                const std::vector<Predicate>& predicates, const uint32_t* rows,
                MorselRange range, std::vector<uint32_t>* out);

// Checks every predicate's column index against the table's schema.
Status ValidatePredicates(const columnar::Table& table,
                          const std::vector<Predicate>& predicates);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_PREDICATE_H_
