#include "gpusim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/bit_util.h"

namespace blusim::gpusim {

namespace {

// ---- Calibration constants (all per-element costs in nanoseconds) ----
//
// Device-side constants are expressed as "work per CUDA core"; dividing by
// the effective parallel core count yields elapsed time. Effective
// utilization of the K40 for irregular hash workloads is far below 100%;
// 0.25 matches the rough throughputs reported for hash aggregation on
// Kepler-class parts (a few hundred million rows/s).
constexpr double kDeviceUtilization = 0.25;

// Kernel 1 (regular): per-row base work (load, hash, probe, CAS insert).
constexpr double kK1BaseNsPerRow = 6.0;
// Per-aggregate atomic read-modify-write on device memory.
constexpr double kK1AtomicNsPerAgg = 10.0;
// Extra cost when the key is > 64 bit and a per-entry lock replaces CAS.
constexpr double kWideKeyLockNs = 22.0;
// Extra cost per aggregate when the payload type has no atomic support and
// each aggregate must take a lock (section 4.4, approach 2).
constexpr double kLockTypedAggNs = 25.0;

// Kernel 2 (shared memory): shared-memory atomics are roughly an order of
// magnitude cheaper than device-memory atomics on Kepler.
constexpr double kK2BaseNsPerRow = 5.0;
constexpr double kK2AtomicNsPerAgg = 1.2;
// Merging one partial-table entry into the global table.
constexpr double kK2MergeNsPerEntry = 30.0;
// Rows processed per thread block before its shared table is merged.
constexpr uint64_t kK2RowsPerBlock = 16384;

// Kernel 3 (row lock): acquire+release of the full-row lock, then plain
// (non-atomic) aggregate updates under the lock.
constexpr double kK3LockNsPerRow = 20.0;
constexpr double kK3PlainNsPerAgg = 1.5;

// Fused scan->aggregate kernels: the per-row base work (load, hash, probe)
// drops because each row is one coalesced record read instead of gathers
// from a key array, a row-id array and per-slot value/validity arrays.
// Replaces the kernel's base constant; contention and per-aggregate terms
// are unchanged.
constexpr double kFusedScanNsPerRow = 3.5;

// Contention: the average number of rows per group drives serialization on
// hot hash entries. Penalty multiplies the synchronized portion of the work.
double AtomicContentionFactor(uint64_t rows, uint64_t groups) {
  if (groups == 0) groups = 1;
  const double rpg = static_cast<double>(rows) / static_cast<double>(groups);
  // Atomics to distinct addresses are conflict-free; the penalty grows
  // logarithmically once thousands of rows funnel into each group.
  return 1.0 + 0.35 * std::log2(1.0 + rpg / 64.0);
}

double RowLockContentionFactor(uint64_t rows, uint64_t groups) {
  if (groups == 0) groups = 1;
  const double rpg = static_cast<double>(rows) / static_cast<double>(groups);
  // A full-row lock serializes much harder under contention than per-payload
  // atomics do (section 4.3.3: kernel 3 targets *low* contention queries).
  return 1.0 + 0.3 * rpg / 16.0;
}

// Device sort: radix sort over 4-byte keys + 4-byte payloads, multiple
// passes over device memory (Merrill & Grimshaw radix sort, paper ref [18]).
constexpr double kSortNsPerElementPerCore = 28.0;

// Host-side per-element constants (per core, 3.92 GHz POWER8 class).
constexpr double kHostScanNsPerByte = 0.22;
constexpr double kHostGroupByBaseNsPerRow = 70.0;
constexpr double kHostGroupByNsPerAgg = 22.0;
constexpr double kHostSortNsPerRowLogRow = 4.0;
// Counting-sort passes over cached encoded keys: a handful of sequential
// sweeps instead of n log n cache-missing comparisons.
constexpr double kHostRadixSortNsPerRow = 7.0;
constexpr double kHostJoinBuildNsPerRow = 24.0;
constexpr double kHostJoinProbeNsPerRow = 14.0;
constexpr double kHostKeyGenNsPerRow = 6.0;
constexpr double kHostMemcpyGbps = 24.0;  // single-thread copy bandwidth
// Pinning host memory with the driver is very slow; done once at startup.
constexpr double kRegistrationGbps = 0.45;

// Fixed overhead of dispatching one kernel through the GPU runtime
// (launch, stream synchronization, result-ready signaling). Dominates for
// tiny inputs and is why the CPU wins below the T1 threshold.
constexpr double kKernelLaunchOverheadUs = 120.0;

inline SimTime NsToSimTime(double ns) {
  return static_cast<SimTime>(ns / 1000.0 + 0.5);  // ns -> us, rounded
}

}  // namespace

SimTime CostModel::TransferTime(uint64_t bytes, bool pinned) const {
  const double gbps =
      pinned ? device_.pcie_pinned_gbps : device_.pcie_unpinned_gbps;
  const double us = static_cast<double>(bytes) / (gbps * 1000.0);
  return static_cast<SimTime>(us + device_.pcie_latency_us + 0.5);
}

SimTime CostModel::HostRegistrationTime(uint64_t bytes) const {
  const double us = static_cast<double>(bytes) / (kRegistrationGbps * 1000.0);
  return static_cast<SimTime>(us + 0.5);
}

SimTime CostModel::HashTableInitTime(uint64_t table_bytes) const {
  // Parallel mask copy saturates device-memory bandwidth (section 4.3.1).
  const double us =
      static_cast<double>(table_bytes) / (device_.mem_bandwidth_gbps * 1000.0);
  return static_cast<SimTime>(us + 0.5) + 5;  // + small launch cost
}

const char* GroupByKernelKindName(GroupByKernelKind kind) {
  switch (kind) {
    case GroupByKernelKind::kRegular: return "groupby_regular";
    case GroupByKernelKind::kSharedMem: return "groupby_sharedmem";
    case GroupByKernelKind::kRowLock: return "groupby_rowlock";
  }
  return "groupby_unknown";
}

const char* GroupByKernelKindFusedName(GroupByKernelKind kind) {
  switch (kind) {
    case GroupByKernelKind::kRegular: return "groupby_regular_fused";
    case GroupByKernelKind::kSharedMem: return "groupby_sharedmem_fused";
    case GroupByKernelKind::kRowLock: return "groupby_rowlock_fused";
  }
  return "groupby_unknown_fused";
}

namespace {

// Shared shape of the three kernels' core-nanosecond cost; the SoA and
// fused variants differ only in `base_ns_per_row`.
double GroupByKernelCoreNs(GroupByKernelKind kind, const GroupByKernelParams& p,
                           double base_ns_per_row) {
  const double rows = static_cast<double>(p.rows);
  switch (kind) {
    case GroupByKernelKind::kRegular: {
      const double contention = AtomicContentionFactor(p.rows, p.groups);
      double per_row = base_ns_per_row;
      if (p.wide_key) per_row += kWideKeyLockNs * contention;
      const double per_agg =
          p.lock_typed_payload ? kLockTypedAggNs : kK1AtomicNsPerAgg;
      per_row += per_agg * p.num_aggregates * contention;
      return rows * per_row;
    }
    case GroupByKernelKind::kSharedMem: {
      // Shared-memory grouping is nearly contention-free (conflicts stay
      // inside one SMX); the merge step pays per partial table entry.
      double per_row = base_ns_per_row + kK2AtomicNsPerAgg * p.num_aggregates;
      double core_ns = rows * per_row;
      const uint64_t blocks =
          std::max<uint64_t>(1, CeilDiv(p.rows, kK2RowsPerBlock));
      core_ns += static_cast<double>(blocks) *
                 static_cast<double>(p.groups) * kK2MergeNsPerEntry;
      return core_ns;
    }
    case GroupByKernelKind::kRowLock: {
      const double contention = RowLockContentionFactor(p.rows, p.groups);
      double per_row = base_ns_per_row + kK3LockNsPerRow * contention +
                       kK3PlainNsPerAgg * p.num_aggregates;
      return rows * per_row;
    }
  }
  return 0.0;
}

double SoABaseNsPerRow(GroupByKernelKind kind) {
  return kind == GroupByKernelKind::kSharedMem ? kK2BaseNsPerRow
                                               : kK1BaseNsPerRow;
}

}  // namespace

SimTime CostModel::GroupByKernelTime(GroupByKernelKind kind,
                                     const GroupByKernelParams& p) const {
  const double effective_cores =
      static_cast<double>(device_.total_cores()) * kDeviceUtilization;
  const double core_ns = GroupByKernelCoreNs(kind, p, SoABaseNsPerRow(kind));
  const double us = core_ns / effective_cores / 1000.0;
  return static_cast<SimTime>(us + kKernelLaunchOverheadUs + 0.5);
}

SimTime CostModel::FusedScanAggregateTime(GroupByKernelKind kind,
                                          const GroupByKernelParams& p) const {
  const double effective_cores =
      static_cast<double>(device_.total_cores()) * kDeviceUtilization;
  const double core_ns = GroupByKernelCoreNs(kind, p, kFusedScanNsPerRow);
  const double us = core_ns / effective_cores / 1000.0;
  return static_cast<SimTime>(us + kKernelLaunchOverheadUs + 0.5);
}

SimTime CostModel::JoinBuildKernelTime(uint64_t build_rows) const {
  // Hash + CAS claim per build row.
  const double effective_cores =
      static_cast<double>(device_.total_cores()) * kDeviceUtilization;
  const double us =
      static_cast<double>(build_rows) * 14.0 / effective_cores / 1000.0;
  return static_cast<SimTime>(us + kKernelLaunchOverheadUs + 0.5);
}

SimTime CostModel::JoinProbeKernelTime(uint64_t probe_rows) const {
  // Hash + probe chain + atomic output-cursor append per probe row.
  const double effective_cores =
      static_cast<double>(device_.total_cores()) * kDeviceUtilization;
  const double us =
      static_cast<double>(probe_rows) * 10.0 / effective_cores / 1000.0;
  return static_cast<SimTime>(us + kKernelLaunchOverheadUs + 0.5);
}

SimTime CostModel::SortKernelTime(uint64_t n) const {
  const double effective_cores =
      static_cast<double>(device_.total_cores()) * kDeviceUtilization;
  const double us = static_cast<double>(n) * kSortNsPerElementPerCore /
                    effective_cores / 1000.0;
  return static_cast<SimTime>(us + kKernelLaunchOverheadUs + 0.5);
}

double CostModel::HostParallelFactor(int dop) const {
  if (dop <= 1) return 1.0;
  // Physical cores scale ~linearly; the first SMT tier (threads 25..48 on
  // the S824) adds ~0.40 core-equivalents per thread and the deeper SMT4
  // tier ~0.16, matching the paper's own 1-stream throughput curve across
  // degrees 24 -> 48 -> 64 (table 3: +44% then +8%). A 10% parallel
  // overhead applies past the first core.
  const int physical = std::min(dop, host_.cores);
  const int tier1 = std::clamp(dop - host_.cores, 0, host_.cores);
  const int tier2 =
      std::clamp(dop - 2 * host_.cores, 0,
                 host_.hw_threads() - 2 * host_.cores);
  const double effective = physical + 0.40 * tier1 + 0.16 * tier2;
  return 1.0 + (effective - 1.0) * 0.9;
}

SimTime CostModel::HostScanTime(uint64_t rows, int bytes_per_row,
                                int dop) const {
  const double ns = static_cast<double>(rows) *
                    static_cast<double>(bytes_per_row) * kHostScanNsPerByte /
                    HostParallelFactor(dop);
  return NsToSimTime(ns);
}

SimTime CostModel::HostGroupByTime(uint64_t rows, uint64_t groups,
                                   int num_aggregates, int dop) const {
  // Local per-thread tables then a global merge (figure 1 LGHT + merge).
  double per_row = kHostGroupByBaseNsPerRow +
                   kHostGroupByNsPerAgg * num_aggregates;
  double ns = static_cast<double>(rows) * per_row / HostParallelFactor(dop);
  // Global merge: each thread contributes up to `groups` entries.
  ns += static_cast<double>(std::min<uint64_t>(groups, rows)) *
        std::min(dop, host_.cores) * 18.0;
  return NsToSimTime(ns);
}

SimTime CostModel::HostSortTime(uint64_t rows, int dop) const {
  if (rows < 2) return 1;
  const double logn = std::log2(static_cast<double>(rows));
  const double ns = static_cast<double>(rows) * logn *
                    kHostSortNsPerRowLogRow / HostParallelFactor(dop);
  return NsToSimTime(ns);
}

SimTime CostModel::HostRadixSortTime(uint64_t rows, int dop) const {
  if (rows < 2) return 1;
  const double ns = static_cast<double>(rows) * kHostRadixSortNsPerRow /
                    HostParallelFactor(dop);
  return NsToSimTime(ns);
}

SimTime CostModel::HostJoinTime(uint64_t build_rows, uint64_t probe_rows,
                                int dop) const {
  const double ns = (static_cast<double>(build_rows) * kHostJoinBuildNsPerRow +
                     static_cast<double>(probe_rows) * kHostJoinProbeNsPerRow) /
                    HostParallelFactor(dop);
  return NsToSimTime(ns);
}

SimTime CostModel::HostKeyGenTime(uint64_t rows, int dop) const {
  const double ns = static_cast<double>(rows) * kHostKeyGenNsPerRow /
                    HostParallelFactor(dop);
  return NsToSimTime(ns);
}

SimTime CostModel::HostMemcpyTime(uint64_t bytes) const {
  const double us = static_cast<double>(bytes) / (kHostMemcpyGbps * 1000.0);
  return static_cast<SimTime>(us + 0.5);
}

SimTime CostModel::HostFusedStageTime(uint64_t rows_scanned,
                                      int scan_bytes_per_row,
                                      uint64_t staged_rows,
                                      uint64_t staged_bytes, int dop) const {
  const double factor = HostParallelFactor(dop);
  // Predicate scan touches every input row; key generation and the record
  // encode only run for survivors.
  double ns = static_cast<double>(rows_scanned) *
              static_cast<double>(scan_bytes_per_row) * kHostScanNsPerByte /
              factor;
  ns += static_cast<double>(staged_rows) * kHostKeyGenNsPerRow / factor;
  // Pinned record write at single-thread copy bandwidth (1 GB/s = 1 B/ns),
  // matching HostMemcpyTime's model.
  ns += static_cast<double>(staged_bytes) / kHostMemcpyGbps;
  return NsToSimTime(ns);
}

}  // namespace blusim::gpusim
