#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "workload/queries.h"

namespace blubench {

using blusim::columnar::Column;
using blusim::columnar::DataType;
using blusim::columnar::Table;
using blusim::core::QuerySpec;
using blusim::workload::QueryClass;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kDashboard, Workload::kOffload, Workload::kMultiuser}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDashboard: return "dashboard";
    case Workload::kOffload: return "offload";
    case Workload::kMultiuser: return "multiuser";
  }
  return "unknown";
}

blusim::workload::ScaleConfig MakeScale(uint64_t seed) {
  blusim::workload::ScaleConfig scale;
  scale.store_sales_rows = kStoreSalesRows;
  scale.customers = kStoreSalesRows / 12;
  scale.items = kStoreSalesRows / 60;
  scale.seed = seed;
  return scale;
}

blusim::core::EngineConfig MakeEngineConfig(bool gpu) {
  blusim::core::EngineConfig c;
  c.gpu_enabled = gpu;
  c.num_devices = 2;
  c.cpu_threads = 2;
  c.device_workers = 2;
  c.sort_workers = 2;
  c.query_dop = 24;
  c.device_spec = c.device_spec.WithMemory(
      std::max<uint64_t>(8ULL << 20, kStoreSalesRows * 96));
  c.pinned_pool_bytes = 128ULL << 20;
  c.thresholds.t1_min_rows = kStoreSalesRows * 2 / 5;
  c.thresholds.t2_min_groups = 8;
  c.sort_min_gpu_rows = static_cast<uint32_t>(kStoreSalesRows / 8);
  c.check_device = 0;
  return c;
}

namespace {

void Append(const std::vector<blusim::workload::WorkloadQuery>& from,
            std::vector<QueryClass> classes, std::vector<QuerySpec>* out) {
  for (const auto& q : from) {
    if (std::find(classes.begin(), classes.end(), q.qclass) != classes.end()) {
      out->push_back(q.spec);
    }
  }
}

// ORDER BY over store_sales sold from `first_date` on, projecting only the
// key columns so the hybrid sort, not row materialization, dominates.
QuerySpec SortQuery(const Table& ss, int first_date, const std::string& name,
                    const std::vector<std::string>& keys, bool ascending) {
  QuerySpec q;
  q.name = name;
  q.fact_table = "store_sales";
  blusim::runtime::Predicate recent;
  recent.column = blusim::workload::Col(ss, "ss_sold_date_sk");
  recent.op = blusim::runtime::CmpOp::kGe;
  recent.lo = first_date;
  q.fact_filters.push_back(recent);
  for (size_t i = 0; i < keys.size(); ++i) {
    q.projection.push_back(blusim::workload::Col(ss, keys[i]));
    q.order_by.push_back({static_cast<int>(i), ascending});
  }
  return q;
}

// Three-way comparison of two cells of one column (generated data has no
// nulls).
int Compare(const Column& col, size_t a, size_t b) {
  auto sign = [](auto x, auto y) { return x < y ? -1 : (y < x ? 1 : 0); };
  switch (col.type()) {
    case DataType::kFloat64:
      return sign(col.GetDouble(a), col.GetDouble(b));
    case DataType::kDecimal128:
      return sign(col.GetDecimal(a), col.GetDecimal(b));
    case DataType::kString:
      return sign(col.GetString(a), col.GetString(b));
    default:
      return sign(col.GetInt64(a), col.GetInt64(b));
  }
}

}  // namespace

std::vector<QuerySpec> MakeQueries(Workload w,
                                   const blusim::workload::Database& db,
                                   uint64_t seed) {
  std::vector<QuerySpec> out;
  const auto bdi = blusim::workload::MakeBdiQueries(db);
  const auto rolap = blusim::workload::MakeRolapQueries(db);
  const auto heavy = blusim::workload::MakeHandwrittenHeavyQueries(db);
  if (w != Workload::kOffload) {
    Append(bdi, {QueryClass::kSimple, QueryClass::kIntermediate}, &out);
  }
  if (w == Workload::kDashboard) return out;
  Append(rolap, {QueryClass::kRolap}, &out);
  Append(bdi, {QueryClass::kComplex}, &out);
  Append(heavy, {QueryClass::kHandwrittenHeavy}, &out);
  const Table& ss = *db.at("store_sales");
  // The seeded window (a parameter, as in TPC query generation) starts
  // half-way through the five years, so the input is 48-50% of the rows
  // and its simulated time differs between seeds. That stays above the
  // router's T1 (40% of the rows), so the sort takes the hybrid path.
  const int first_date = 913 + static_cast<int>(seed % 31);
  // 100 distinct keys; about 57k distinct (store, Zipf item) pairs, the
  // mid-range regime; and unique ticket numbers, sorted descending so the
  // generation order is not already the answer.
  out.push_back(SortQuery(ss, first_date, "SORT-few", {"ss_store_sk"}, true));
  out.push_back(SortQuery(ss, first_date, "SORT-mid",
                          {"ss_store_sk", "ss_item_sk"}, true));
  out.push_back(SortQuery(ss, first_date, "SORT-unique",
                          {"ss_ticket_number"}, false));
  return out;
}

bool SortsFactRows(const QuerySpec& q) {
  return !q.groupby.has_value() && !q.order_by.empty();
}

Fingerprint FingerprintOf(const Table& table) {
  Fingerprint fp;
  fp.rows = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    const bool floating = col.type() == DataType::kFloat64 ||
                          col.type() == DataType::kDecimal128;
    uint64_t exact = 0;
    double approx = 0.0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) {
        exact += 0x9e3779b97f4a7c15ULL;
      } else if (col.type() == DataType::kFloat64) {
        approx += col.GetDouble(r);
      } else if (col.type() == DataType::kDecimal128) {
        approx += col.GetDecimal(r).ToDouble();
      } else if (col.type() == DataType::kString) {
        exact += blusim::Mix64(std::hash<std::string>{}(col.GetString(r)));
      } else {
        exact += blusim::Mix64(static_cast<uint64_t>(col.GetInt64(r)));
      }
    }
    fp.exact.push_back(exact);
    fp.approx.push_back(floating ? approx : 0.0);
  }
  return fp;
}

bool SameResult(const Fingerprint& a, const Fingerprint& b) {
  if (a.rows != b.rows || a.exact != b.exact ||
      a.approx.size() != b.approx.size()) {
    return false;
  }
  for (size_t i = 0; i < a.approx.size(); ++i) {
    const double tol =
        1e-7 * std::max({std::fabs(a.approx[i]), std::fabs(b.approx[i]), 1.0});
    if (std::fabs(a.approx[i] - b.approx[i]) > tol) return false;
  }
  return true;
}

bool IsOrdered(const Table& table,
               const std::vector<blusim::sort::SortKey>& keys) {
  for (size_t r = 1; r < table.num_rows(); ++r) {
    for (const auto& key : keys) {
      const int c = Compare(table.column(key.column), r - 1, r);
      if (c == 0) continue;
      if ((c < 0) != key.ascending) return false;
      break;
    }
  }
  return true;
}

}  // namespace blubench
