#include "runtime/operators.h"

#include <mutex>

#include "common/flat_map.h"
#include "common/logging.h"

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;
using columnar::Table;

namespace {

constexpr uint64_t kMorselRows = 65536;

}  // namespace

Result<std::vector<uint32_t>> FilterScan(
    const Table& table, const std::vector<Predicate>& predicates,
    ThreadPool* pool) {
  BLUSIM_RETURN_NOT_OK(ValidatePredicates(table, predicates));
  const uint64_t total = table.num_rows();
  const uint64_t num_morsels = NumMorsels(total, kMorselRows);
  std::vector<std::vector<uint32_t>> partials(num_morsels);

  auto scan_morsel = [&](uint64_t m) {
    SelectRows(table, predicates, nullptr, GetMorsel(total, kMorselRows, m),
               &partials[m]);
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, scan_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) scan_morsel(m);
  }

  // Concatenate in morsel order -> ascending row ids.
  if (num_morsels == 1) return std::move(partials.front());
  size_t n = 0;
  for (const auto& p : partials) n += p.size();
  std::vector<uint32_t> selection;
  selection.reserve(n);
  for (const auto& p : partials) {
    selection.insert(selection.end(), p.begin(), p.end());
  }
  return selection;
}

Result<JoinResult> HashJoin(const Table& fact, const Table& dim,
                            const JoinSpec& spec, ThreadPool* pool,
                            const std::vector<uint32_t>* fact_selection,
                            const std::vector<uint32_t>* dim_selection) {
  if (spec.fact_fk_column < 0 ||
      static_cast<size_t>(spec.fact_fk_column) >= fact.num_columns()) {
    return Status::InvalidArgument("bad fact FK column");
  }
  if (spec.dim_pk_column < 0 ||
      static_cast<size_t>(spec.dim_pk_column) >= dim.num_columns()) {
    return Status::InvalidArgument("bad dim PK column");
  }
  const Column& fk = fact.column(static_cast<size_t>(spec.fact_fk_column));
  const Column& pk = dim.column(static_cast<size_t>(spec.dim_pk_column));
  for (const Column* key : {&fk, &pk}) {
    if (key->type() != DataType::kInt32 && key->type() != DataType::kDate &&
        key->type() != DataType::kInt64) {
      return Status::InvalidArgument("join keys must be integer columns");
    }
  }

  // Build phase (dimension side, typically small). Flat open-addressing
  // table sized up front: probes in the parallel phase below touch one
  // contiguous slot per step instead of chasing unordered_map nodes.
  const uint64_t build_rows = dim_selection ? dim_selection->size()
                                            : dim.num_rows();
  FlatMap64 build(build_rows);
  for (uint64_t i = 0; i < build_rows; ++i) {
    const uint32_t row = dim_selection ? (*dim_selection)[i]
                                       : static_cast<uint32_t>(i);
    if (pk.IsNull(row)) continue;
    if (!build.Insert(pk.GetInt64(row), row)) {
      return Status::InvalidArgument("duplicate build key in dimension");
    }
  }

  // Probe phase (fact side, parallel).
  const uint64_t total = fact_selection ? fact_selection->size()
                                        : fact.num_rows();
  const uint64_t num_morsels = NumMorsels(total, kMorselRows);
  std::vector<JoinResult> partials(num_morsels);

  // The FK column is read through its typed vector, once per morsel.
  const bool fk_nulls = fk.has_nulls();
  auto probe_morsel = [&](uint64_t m) {
    const MorselRange r = GetMorsel(total, kMorselRows, m);
    JoinResult& out = partials[m];
    out.fact_rows.reserve(r.size());
    out.dim_rows.reserve(r.size());
    auto probe = [&](const auto* keys) {
      for (uint64_t i = r.begin; i < r.end; ++i) {
        const uint32_t row = fact_selection ? (*fact_selection)[i]
                                            : static_cast<uint32_t>(i);
        if (fk_nulls && fk.IsNull(row)) continue;
        const uint32_t* dim_row = build.Find(static_cast<int64_t>(keys[row]));
        if (dim_row != nullptr) {
          out.fact_rows.push_back(row);
          out.dim_rows.push_back(*dim_row);
        }
      }
    };
    if (fk.type() == DataType::kInt64) {
      probe(fk.int64_data().data());
    } else {
      probe(fk.int32_data().data());
    }
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, probe_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) probe_morsel(m);
  }

  JoinResult result;
  size_t n = 0;
  for (const auto& p : partials) n += p.size();
  result.fact_rows.reserve(n);
  result.dim_rows.reserve(n);
  for (const auto& p : partials) {
    result.fact_rows.insert(result.fact_rows.end(), p.fact_rows.begin(),
                            p.fact_rows.end());
    result.dim_rows.insert(result.dim_rows.end(), p.dim_rows.begin(),
                           p.dim_rows.end());
  }
  return result;
}

}  // namespace blusim::runtime
