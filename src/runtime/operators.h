#ifndef BLUSIM_RUNTIME_OPERATORS_H_
#define BLUSIM_RUNTIME_OPERATORS_H_

#include <cstdint>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/predicate.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Evaluates the conjunction of `predicates` over `table` in parallel, one
// SelectRows call per morsel, and returns the selection vector of
// qualifying row ids (ascending).
Result<std::vector<uint32_t>> FilterScan(
    const columnar::Table& table, const std::vector<Predicate>& predicates,
    ThreadPool* pool);

// Equi-join spec: fact.fk_column == dim.pk_column. The probe side is the
// fact table (optionally pre-filtered via `fact_selection`), the build side
// the dimension table (optionally pre-filtered via `dim_selection`).
struct JoinSpec {
  int fact_fk_column = -1;
  int dim_pk_column = -1;
};

// Result of a hash join: parallel arrays of matching (fact_row, dim_row)
// pairs, ordered by fact row.
struct JoinResult {
  std::vector<uint32_t> fact_rows;
  std::vector<uint32_t> dim_rows;
  size_t size() const { return fact_rows.size(); }
};

// Hash join: builds on the dimension rows, probes with the fact rows.
// Dimension keys must be unique (primary key) -- duplicate build keys are
// rejected.
Result<JoinResult> HashJoin(const columnar::Table& fact,
                            const columnar::Table& dim, const JoinSpec& spec,
                            ThreadPool* pool,
                            const std::vector<uint32_t>* fact_selection,
                            const std::vector<uint32_t>* dim_selection);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_OPERATORS_H_
