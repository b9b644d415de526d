#ifndef BLUSIM_CORE_EXPLAIN_H_
#define BLUSIM_CORE_EXPLAIN_H_

#include <string>

#include "columnar/table.h"
#include "core/profile.h"
#include "core/query.h"
#include "core/router.h"
#include "runtime/groupby_plan.h"

namespace blusim::core {

// Renders a QuerySpec as readable SQL-ish text, resolving column indexes
// to names against the fact table.
std::string DescribeQuery(const QuerySpec& query,
                          const columnar::Table& fact);

// Renders the group-by evaluator chain a plan would execute, in the shape
// of the paper's figures:
//   CPU path  (figure 1): LCOG/LCOV -> CCAT -> HASH -> LGHT -> AGGD/SUM/
//                         CNT -> merge to global hash table
//   GPU path  (figure 2): LCOG/LCOV -> CCAT -> HASH(+KMV) -> MEMCPY ->
//                         GPU runtime [moderator -> kernel K1/K2/K3]
std::string RenderGroupByChain(const runtime::GroupByPlan& plan,
                               ExecutionPath path);

// EXPLAIN ANALYZE: the query text plus a per-node table of *measured*
// times from the execution profile. Each row is one PhaseRecord (plan
// node) with its simulated and host wall times in separate columns; the
// simulated column sums to QueryProfile::total_elapsed. Device group-by
// rows add the kernels' mean probes per row. Routing and estimate
// annotations from the query trace are appended.
std::string ExplainAnalyze(const QuerySpec& query, const columnar::Table& fact,
                           const QueryProfile& profile);

}  // namespace blusim::core

#endif  // BLUSIM_CORE_EXPLAIN_H_
