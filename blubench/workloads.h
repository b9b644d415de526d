#ifndef BLUBENCH_WORKLOADS_H_
#define BLUBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "core/engine.h"
#include "core/query.h"
#include "workload/data_gen.h"

namespace blubench {

enum class Workload { kDashboard, kOffload, kMultiuser };

// Parses a workload name; false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// store_sales rows of the generated database, for every workload.
inline constexpr uint64_t kStoreSalesRows = 200000;

// Database scale: the 200k-row BD Insights rendition, seeded by the
// benchmark's --seed.
blusim::workload::ScaleConfig MakeScale(uint64_t seed);

// Engine configuration shared by every workload: 2 CPU pool threads,
// 2 device workers, 2 sort workers and 2 simulated K40s whose memory is
// proportioned to the data (96 bytes per store_sales row), a 128 MB pinned
// segment, and the device checker off. `gpu` = false is the correctness
// reference (baseline BLU, no device anywhere).
blusim::core::EngineConfig MakeEngineConfig(bool gpu);

// The queries a workload cycles through, in a fixed canonical order; the
// benchmark permutes them with its seed.
//   dashboard: 70 BDI simple + 25 BDI intermediate
//   offload:   46 ROLAP + 5 BDI complex + 2 hand-written heavy + 3
//              fact-row ORDER BY at three key cardinalities over a seeded
//              date window of about two and a half years
//   multiuser: all 151 of the above
std::vector<blusim::core::QuerySpec> MakeQueries(
    Workload w, const blusim::workload::Database& db, uint64_t seed);

// Order-independent fingerprint of a result table: the row count, an
// exact wrapping sum of hashed integer/string cells per column, and a
// floating-point sum per double/decimal column (compared with a relative
// tolerance, since device and host aggregate in different orders).
struct Fingerprint {
  uint64_t rows = 0;
  std::vector<uint64_t> exact;
  std::vector<double> approx;
};
Fingerprint FingerprintOf(const blusim::columnar::Table& table);
bool SameResult(const Fingerprint& a, const Fingerprint& b);

// True for a fact-row ORDER BY (no group-by), the queries the hybrid sort
// runs on.
bool SortsFactRows(const blusim::core::QuerySpec& q);

// True when `table` is ordered by `keys` (key columns of the result,
// compared lexicographically).
bool IsOrdered(const blusim::columnar::Table& table,
               const std::vector<blusim::sort::SortKey>& keys);

}  // namespace blubench

#endif  // BLUBENCH_WORKLOADS_H_
