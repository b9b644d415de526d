#ifndef BLUSIM_CORE_PROFILE_H_
#define BLUSIM_CORE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "core/router.h"
#include "obs/trace.h"

namespace blusim::core {

// One resource phase of an executed query. Phases are the unit the
// concurrency simulator (harness) replays: CPU phases share the host's
// cores, GPU phases occupy device memory and device compute.
struct PhaseRecord {
  enum class Kind : uint8_t {
    kCpu = 0,   // host work: scans, joins, the CPU group-by chain, keygen
    kGpu,       // device job: transfers + kernel(s); host threads are FREE
  };

  Kind kind = Kind::kCpu;
  std::string label;
  // Serial elapsed time of this phase as the engine measured it (simulated
  // microseconds); what ExplainAnalyze prints per plan node. Sums to
  // QueryProfile::total_elapsed.
  SimTime elapsed = 0;
  // Host wall time (steady clock, microseconds) the engine spent on the
  // work this phase stands for. The second clock: excluded from
  // total_elapsed and from the concurrency simulator, so it never moves a
  // simulated number.
  int64_t wall_us = 0;
  // kCpu: single-thread work in simulated microseconds and the degree of
  // parallelism the operator used.
  SimTime cpu_work = 0;
  int dop = 1;
  // kGpu: device occupancy (transfer + init + kernel + readback) and the
  // device memory reserved for the job's lifetime.
  SimTime device_time = 0;
  uint64_t device_mem = 0;
  int device_id = -1;
  // Bytes this phase physically moved (true wire/copy sizes, not aligned
  // allocations): pinned staging writes for CPU stage phases, PCIe traffic
  // (both directions) for GPU phases. 0 = the phase moves no bulk data.
  uint64_t bytes_moved = 0;
  // kGpu group-by phases: hash-table slots the kernels examined and the
  // rows they aggregated (ExplainAnalyze prints probes per row).
  uint64_t kernel_probes = 0;
  uint64_t kernel_rows = 0;
  // True for phases that ran inside another phase's wall-clock window (the
  // partitioned path's per-chunk lanes, whose time an umbrella phase
  // carries). Excluded from QueryProfile::total_elapsed, from the
  // ExplainAnalyze sum, and from the concurrency simulator's replay —
  // kept in the list for per-chunk attribution.
  bool overlapped = false;

  // Elapsed time on an otherwise-idle system (serial runs): cpu work
  // divided by the parallel speedup, or the device occupancy.
  SimTime IdleElapsed(double parallel_factor) const {
    if (kind == Kind::kGpu) return device_time;
    return static_cast<SimTime>(static_cast<double>(cpu_work) /
                                parallel_factor);
  }
};

// Execution record of one query: the phase list plus routing decisions.
struct QueryProfile {
  std::string query_name;
  std::vector<PhaseRecord> phases;
  ExecutionPath groupby_path = ExecutionPath::kCpu;
  ExecutionPath sort_path = ExecutionPath::kCpu;
  bool gpu_used = false;
  // True when a GPU-routed phase re-routed to the CPU after the routing
  // decision -- per-query budget cap, reservation denial or deadline, or a
  // recoverable device failure. This is the serving layer's graceful-
  // degradation outcome: the query still completes, just slower.
  bool degraded = false;
  uint64_t result_rows = 0;

  // Serial elapsed time (microseconds) on an idle system; `factors[dop]`
  // must come from CostModel::HostParallelFactor.
  SimTime total_elapsed = 0;

  // Timestamped span tree of the execution (scan/keygen/transfer/kernel/
  // merge/...), with routing and estimate annotations. Feeds the Chrome
  // trace exporter and ExplainAnalyze.
  obs::QueryTrace trace;
};

}  // namespace blusim::core

#endif  // BLUSIM_CORE_PROFILE_H_
