#ifndef BLUSIM_CORE_QUERY_H_
#define BLUSIM_CORE_QUERY_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "runtime/groupby_plan.h"
#include "runtime/operators.h"
#include "sort/key_encoder.h"

namespace blusim::core {

// One star-join leg: the fact table's FK column equi-joined to a dimension
// primary key, with optional dimension-side filters. Joins act as
// (semi-)join reducers on the fact selection, the dominant pattern in the
// BD Insights / Cognos ROLAP star schemas.
struct DimJoinSpec {
  std::string dim_table;
  int fact_fk_column = -1;
  int dim_pk_column = -1;
  std::vector<runtime::Predicate> dim_filters;
};

// Declarative query description, the engine's public input. Equivalent to
//
//   SELECT <keys>, <aggregates>
//   FROM fact [JOIN dims ON fk = pk]
//   WHERE <fact filters> [AND dim filters]
//   [GROUP BY <keys>] [ORDER BY <sort keys>] [LIMIT n]
//
// Group-by keys, aggregates and sort keys reference fact-table columns
// (group-by sort keys reference the group-by result's columns).
struct QuerySpec {
  std::string name;
  std::string fact_table;
  std::vector<runtime::Predicate> fact_filters;
  std::vector<DimJoinSpec> joins;
  std::optional<runtime::GroupBySpec> groupby;
  // Applied to the group-by result when groupby is set, otherwise to the
  // selected fact rows.
  std::vector<sort::SortKey> order_by;
  // Output columns for non-aggregating queries (fact column indexes;
  // empty = all columns).
  std::vector<int> projection;
  // 0 = no limit.
  uint64_t limit = 0;
};

// Observability class of a query, derived from its shape: the serving
// layer's SLO windows and the engine's cumulative latency histogram key on
// the same value so the two views agree. Join-bearing queries dominate
// their cost regardless of the group-by behind them, hence the order.
inline const char* QueryShapeName(const QuerySpec& query) {
  if (!query.joins.empty()) return "join";
  if (query.groupby.has_value()) return "groupby";
  if (!query.order_by.empty()) return "sort";
  return "simple";
}

// Every value QueryShapeName returns.
inline constexpr std::array<const char*, 4> kQueryShapeNames = {
    "join", "groupby", "sort", "simple"};

}  // namespace blusim::core

#endif  // BLUSIM_CORE_QUERY_H_
