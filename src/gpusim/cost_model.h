#ifndef BLUSIM_GPUSIM_COST_MODEL_H_
#define BLUSIM_GPUSIM_COST_MODEL_H_

#include <cstdint>

#include "common/sim_clock.h"
#include "gpusim/specs.h"

namespace blusim::gpusim {

// Which group-by kernel the cost is being modeled for (paper section 4.3).
enum class GroupByKernelKind {
  kRegular = 1,    // kernel 1: global hash table, per-payload atomics
  kSharedMem = 2,  // kernel 2: per-SMX shared-memory partial tables
  kRowLock = 3,    // kernel 3: one row lock, all aggregates under it
};

// Stable kernel name used by the monitor, the metrics registry and the
// trace exporters ("groupby_regular" / "groupby_sharedmem" /
// "groupby_rowlock").
const char* GroupByKernelKindName(GroupByKernelKind kind);

// Fused-input variant of the same kernel ("groupby_regular_fused", ...),
// reported when the kernel consumes the interleaved record stream produced
// by fused staging instead of the SoA arrays.
const char* GroupByKernelKindFusedName(GroupByKernelKind kind);

// Parameters describing one group-by/aggregation kernel invocation.
struct GroupByKernelParams {
  uint64_t rows = 0;
  uint64_t groups = 0;          // (estimated) distinct groups
  int num_aggregates = 1;
  int record_bytes = 0;         // fused record stride (0 = SoA input)
  bool wide_key = false;        // key > 64 bit: lock path instead of CAS
  bool lock_typed_payload = false;  // payload type with no atomic support
};

// Deterministic analytical cost model, calibrated to the paper's hardware
// (Power S824 CPU side, Tesla K40 device side). All results are simulated
// microseconds (SimTime).
//
// The model is intentionally simple and fully documented: per-element costs
// scaled by the available parallelism, plus contention terms. Absolute
// magnitudes are approximate; the reproduced experiments depend on the
// *relative* behaviour (CPU/GPU crossover for small inputs, atomic-vs-lock
// tradeoffs, transfer overheads), which these formulas capture.
class CostModel {
 public:
  CostModel(const HostSpec& host, const DeviceSpec& device)
      : host_(host), device_(device) {}

  const HostSpec& host() const { return host_; }
  const DeviceSpec& device() const { return device_; }

  // --- PCIe transfers (section 2.1.2) ---
  SimTime TransferTime(uint64_t bytes, bool pinned) const;

  // One-time cost of registering (pinning) a host memory range with the
  // device. Expensive -- the engine does this once at startup for a single
  // large segment.
  SimTime HostRegistrationTime(uint64_t bytes) const;

  // --- Device kernels ---
  // Group-by/aggregation kernel execution time (sections 4.3, 4.4).
  SimTime GroupByKernelTime(GroupByKernelKind kind,
                            const GroupByKernelParams& p) const;

  // Fused scan->aggregate kernel over the interleaved record stream
  // (data-path fusion). Same contention and per-aggregate model as
  // GroupByKernelTime; only the per-row base cost differs, because the
  // fused kernels read one coalesced record per row instead of gathering
  // from strided SoA arrays.
  SimTime FusedScanAggregateTime(GroupByKernelKind kind,
                                 const GroupByKernelParams& p) const;

  // Hash-table mask initialization (parallel memset-like, section 4.3.1).
  SimTime HashTableInitTime(uint64_t table_bytes) const;

  // Radix sort of n (key4, payload4) entries on the device (section 3).
  SimTime SortKernelTime(uint64_t n) const;

  // Device hash-join kernels (prototype of the paper's future work).
  SimTime JoinBuildKernelTime(uint64_t build_rows) const;
  SimTime JoinProbeKernelTime(uint64_t probe_rows) const;

  // --- Host (CPU) operators ---
  // `dop` = degree of parallelism (DB2 sub-agent threads on the morsel).
  SimTime HostScanTime(uint64_t rows, int bytes_per_row, int dop) const;
  SimTime HostGroupByTime(uint64_t rows, uint64_t groups, int num_aggregates,
                          int dop) const;
  SimTime HostSortTime(uint64_t rows, int dop) const;
  // CPU radix sort over already-encoded 4-byte partial keys (the hybrid
  // sort's CPU job path, section 3): linear in rows, not n log n.
  SimTime HostRadixSortTime(uint64_t rows, int dop) const;
  SimTime HostJoinTime(uint64_t build_rows, uint64_t probe_rows,
                       int dop) const;
  // Partial-key/payload generation feeding the sort (section 3).
  SimTime HostKeyGenTime(uint64_t rows, int dop) const;
  // MEMCPY evaluator: copy into the pinned staging area (section 4.1).
  SimTime HostMemcpyTime(uint64_t bytes) const;

  // One-sweep fused staging (data-path fusion): predicate scan over every
  // input row, key generation for the filter survivors only, and the
  // pinned write of the compact records -- the single-pass replacement for
  // FilterScan + HostKeyGenTime(all rows) + HostMemcpyTime(SoA bytes).
  SimTime HostFusedStageTime(uint64_t rows_scanned, int scan_bytes_per_row,
                             uint64_t staged_rows, uint64_t staged_bytes,
                             int dop) const;

  // Effective parallel speedup for `dop` threads on this host: linear in
  // physical cores, diminishing returns across SMT threads.
  double HostParallelFactor(int dop) const;

 private:
  HostSpec host_;
  DeviceSpec device_;
};

}  // namespace blusim::gpusim

#endif  // BLUSIM_GPUSIM_COST_MODEL_H_
