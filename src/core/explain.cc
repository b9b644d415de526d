#include "core/explain.h"

#include <iomanip>
#include <sstream>

namespace blusim::core {

using columnar::Table;
using runtime::AggFn;
using runtime::CmpOp;
using runtime::GroupByPlan;

namespace {

std::string ColName(const Table& t, int column) {
  if (column < 0 || static_cast<size_t>(column) >= t.num_columns()) {
    return "col" + std::to_string(column);
  }
  return t.schema().field(static_cast<size_t>(column)).name;
}

std::string PredicateText(const runtime::Predicate& p, const Table& t) {
  const std::string col = ColName(t, p.column);
  auto num = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  switch (p.op) {
    case CmpOp::kEq:
      return col + " = " + (p.str.empty() ? num(p.lo) : "'" + p.str + "'");
    case CmpOp::kNe:
      return col + " <> " + (p.str.empty() ? num(p.lo) : "'" + p.str + "'");
    case CmpOp::kLt: return col + " < " + num(p.lo);
    case CmpOp::kLe: return col + " <= " + num(p.lo);
    case CmpOp::kGt: return col + " > " + num(p.lo);
    case CmpOp::kGe: return col + " >= " + num(p.lo);
    case CmpOp::kBetween:
      return col + " BETWEEN " + num(p.lo) + " AND " + num(p.hi);
  }
  return col;
}

std::string AggregateText(const runtime::AggregateDesc& a, const Table& t) {
  std::string s = runtime::AggFnName(a.fn);
  s += "(";
  s += a.column < 0 ? "*" : ColName(t, a.column);
  s += ")";
  if (!a.output_name.empty()) s += " AS " + a.output_name;
  return s;
}

}  // namespace

std::string DescribeQuery(const QuerySpec& query, const Table& fact) {
  std::ostringstream os;
  os << "SELECT ";
  bool first = true;
  if (query.groupby.has_value()) {
    for (int k : query.groupby->key_columns) {
      os << (first ? "" : ", ") << ColName(fact, k);
      first = false;
    }
    for (const auto& a : query.groupby->aggregates) {
      os << (first ? "" : ", ") << AggregateText(a, fact);
      first = false;
    }
  } else if (!query.projection.empty()) {
    for (int c : query.projection) {
      os << (first ? "" : ", ") << ColName(fact, c);
      first = false;
    }
  } else {
    os << "*";
  }
  os << "\nFROM " << query.fact_table;
  for (const auto& join : query.joins) {
    os << "\n  JOIN " << join.dim_table << " ON "
       << ColName(fact, join.fact_fk_column) << " = " << join.dim_table
       << ".pk";
    if (!join.dim_filters.empty()) {
      os << " AND <" << join.dim_filters.size() << " dim filter(s)>";
    }
  }
  if (!query.fact_filters.empty()) {
    os << "\nWHERE ";
    for (size_t i = 0; i < query.fact_filters.size(); ++i) {
      if (i > 0) os << " AND ";
      os << PredicateText(query.fact_filters[i], fact);
    }
  }
  if (query.groupby.has_value()) {
    os << "\nGROUP BY ";
    for (size_t i = 0; i < query.groupby->key_columns.size(); ++i) {
      if (i > 0) os << ", ";
      os << ColName(fact, query.groupby->key_columns[i]);
    }
  }
  if (!query.order_by.empty()) {
    os << "\nORDER BY ";
    for (size_t i = 0; i < query.order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << "#" << query.order_by[i].column
         << (query.order_by[i].ascending ? " ASC" : " DESC");
    }
  }
  if (query.limit > 0) os << "\nLIMIT " << query.limit;
  return os.str();
}

std::string RenderGroupByChain(const GroupByPlan& plan, ExecutionPath path) {
  std::ostringstream os;
  const size_t nkeys = plan.spec().key_columns.size();
  os << "LCOG(keys=" << nkeys << ") / LCOV(payloads="
     << plan.slots().size() << ")";
  if (nkeys > 1) os << " -> CCAT(" << plan.key_bits() << "-bit key)";
  os << " -> HASH(" << (plan.wide_key() ? "murmur" : "mod") << ")";
  if (path == ExecutionPath::kGpu || path == ExecutionPath::kPartitioned) {
    os << "+KMV -> MEMCPY(pinned) -> GPU runtime [moderator -> ";
    // The kernels the moderator may pick from; it takes the cheapest
    // modeled one at run time. Wide keys rule out the shared-memory table.
    os << (plan.wide_key() ? "K1 regular | K3 rowlock"
                           : "K1 regular | K2 sharedmem | K3 rowlock");
    os << "]";
    if (path == ExecutionPath::kPartitioned) {
      os << " | hash-partition -> CPU lane (LGHT) + device lanes"
            " -> concat merge";
    }
  } else {
    os << " -> LGHT(local tables)";
    for (const auto& slot : plan.slots()) {
      switch (slot.fn) {
        case AggFn::kSum: os << " -> SUM"; break;
        case AggFn::kCount: os << " -> CNT"; break;
        default: os << " -> AGGD"; break;
      }
    }
    os << " -> merge to global hash table";
  }
  return os.str();
}

std::string ExplainAnalyze(const QuerySpec& query, const Table& fact,
                           const QueryProfile& profile) {
  std::ostringstream os;
  os << DescribeQuery(query, fact) << "\n\n";
  os << "EXPLAIN ANALYZE (" << profile.query_name << ")\n";
  os << "  groupby path: " << ExecutionPathName(profile.groupby_path)
     << "   sort path: " << ExecutionPathName(profile.sort_path)
     << "   gpu used: " << (profile.gpu_used ? "yes" : "no") << "\n";

  // Two clocks side by side: the cost model's simulated time and the host
  // wall time the engine spent on the node.
  os << "  " << std::left << std::setw(24) << "node" << std::right
     << std::setw(12) << "sim ms" << std::setw(12) << "wall ms"
     << std::setw(8) << "dop" << std::setw(8) << "dev" << std::setw(14)
     << "bytes" << std::setw(12) << "probes/row" << "\n";
  auto ms = [](int64_t us) { return static_cast<double>(us) / 1000.0; };
  SimTime sum = 0;
  int64_t wall_sum = 0;
  uint64_t bytes_sum = 0;
  bool any_overlapped = false;
  for (const PhaseRecord& phase : profile.phases) {
    // Overlapped phases (per-chunk lanes of a partitioned execution) are
    // shown for attribution with a "+ " prefix but not summed — their
    // wall time is carried by the umbrella phase.
    if (phase.overlapped) {
      any_overlapped = true;
    } else {
      sum += phase.elapsed;
      wall_sum += phase.wall_us;
    }
    bytes_sum += phase.bytes_moved;
    const std::string label =
        phase.overlapped ? "+ " + phase.label : phase.label;
    os << "  " << std::left << std::setw(24) << label << std::right
       << std::fixed << std::setprecision(3) << std::setw(12)
       << ms(phase.elapsed) << std::setw(12) << ms(phase.wall_us);
    if (phase.kind == PhaseRecord::Kind::kCpu) {
      os << std::setw(8) << phase.dop << std::setw(8) << "-";
    } else {
      os << std::setw(8) << "-" << std::setw(8) << phase.device_id;
    }
    if (phase.bytes_moved > 0) {
      os << std::setw(14) << phase.bytes_moved;
    } else {
      os << std::setw(14) << "-";
    }
    // Mean hash-table slots the group-by kernels examined per row: about 1
    // for a well-spread key, far more when probe sequences cluster.
    if (phase.kernel_rows > 0) {
      os << std::setw(12) << std::setprecision(2)
         << static_cast<double>(phase.kernel_probes) /
                static_cast<double>(phase.kernel_rows);
    } else {
      os << std::setw(12) << "-";
    }
    os << "\n";
  }
  os << "  " << std::left << std::setw(24) << "total" << std::right
     << std::fixed << std::setprecision(3) << std::setw(12) << ms(sum)
     << std::setw(12) << ms(wall_sum) << std::setw(8) << "" << std::setw(8)
     << "" << std::setw(14) << bytes_sum << "\n";
  if (any_overlapped) {
    os << "  (+ marks overlapped per-chunk phases; their time is carried "
          "by the umbrella phase and excluded from the totals)\n";
  }

  if (!profile.trace.annotations.empty()) {
    os << "  annotations:";
    for (const auto& [key, value] : profile.trace.annotations) {
      os << " " << key << "=" << value;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace blusim::core
