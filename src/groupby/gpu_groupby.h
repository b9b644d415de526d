#ifndef BLUSIM_GROUPBY_GPU_GROUPBY_H_
#define BLUSIM_GROUPBY_GPU_GROUPBY_H_

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "groupby/kernels.h"
#include "groupby/moderator.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "runtime/group_result.h"
#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::groupby {

// Timing/behaviour record of one device group-by execution. Times are
// simulated microseconds from the cost model unless named `*_wall_us`
// (host wall clock, steady clock).
struct GpuGroupByStats {
  SimTime stage_time = 0;      // chain + MEMCPY into pinned memory (host)
  SimTime transfer_in = 0;     // PCIe host -> device
  SimTime table_init = 0;      // parallel mask initialization
  SimTime kernel_time = 0;     // moderator-chosen kernel execution
  SimTime transfer_out = 0;    // PCIe device -> host (result readback)
  gpusim::GroupByKernelKind kernel_used =
      gpusim::GroupByKernelKind::kRegular;
  bool fused = false;          // fused record staging + fused kernel run
  int retries = 0;             // table-growth retries (estimate too low)
  uint64_t table_capacity = 0;
  uint64_t kmv_estimate = 0;
  uint64_t device_bytes_reserved = 0;
  uint64_t rows_scanned = 0;   // rows the staging sweep examined
  uint64_t rows_staged = 0;    // rows shipped to the device
  // Bytes-moved accounting (true wire sizes, not aligned allocations).
  uint64_t bytes_in = 0;       // host -> device input bytes
  uint64_t bytes_out = 0;      // device -> host readback bytes
  // Staged bytes the fused layout avoided shipping for the same survivor
  // set (SoA staging of rows_staged rows minus the fused record stream).
  uint64_t bytes_avoided = 0;
  // Work the kernels did, summed over every launch including overflowed
  // attempts.
  KernelWork work;
  // Host wall time of the staging sweep and of the kernel launches.
  int64_t stage_wall_us = 0;
  int64_t kernel_wall_us = 0;

  SimTime total() const {
    return stage_time + transfer_in + table_init + kernel_time +
           transfer_out;
  }
};

struct GpuGroupByOptions {
  // Maximum table-growth retries when the KMV estimate was too low.
  int max_retries = 3;
  // Data-path fusion: permit staging the input as interleaved records and
  // running the fused scan->aggregate kernels. The per-query decision is
  // cost-based (ChooseStageMode); this only gates eligibility
  // (EngineConfig::enable_fusion / --no-fusion).
  bool allow_fusion = true;
  // Optimizer estimates feeding the fused-vs-SoA cost comparison. 0 means
  // unknown (assume every scanned row is staged / groups from KMV later).
  uint64_t estimated_rows = 0;
  uint64_t estimated_groups = 0;
};

// Executes a group-by/aggregation on the simulated GPU: stages input into
// pinned memory, reserves device memory up front, transfers, initializes
// the mask, runs the moderator-selected kernel, recovers from group-count
// under-estimates by growing the table, and reads the result back.
//
// Returns OutOfDeviceMemory / DeviceUnavailable / NotSupported statuses
// that the hybrid router treats as "fall back to the CPU chain".
//
// `moderator` is not read: the kernel choice is the stateless
// GpuModerator::ChooseKernel. The parameter stays for existing callers.
class GpuGroupBy {
 public:
  // ExecuteToGroups, then every group materialized.
  static Result<runtime::GroupByOutput> Execute(
      const runtime::GroupByPlan& plan, gpusim::SimDevice* device,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      GpuModerator* moderator, const std::vector<uint32_t>* selection,
      const GpuGroupByOptions& options, GpuGroupByStats* stats);

  // Unmaterialized variant for PartitionedGroupBy, whose result keeps the
  // chunks' flat groups as its pieces. `hash_partitions` > 1
  // says the selection is one HashPartition range of that many; the
  // staging KMV estimate drops the range's shared hash bits.
  static Result<runtime::FlatGroups> ExecuteToGroups(
      const runtime::GroupByPlan& plan, gpusim::SimDevice* device,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      const std::vector<uint32_t>* selection, uint32_t hash_partitions,
      const GpuGroupByOptions& options, GpuGroupByStats* stats);

  // Device bytes a group-by on `rows` input rows with `capacity` hash
  // entries will reserve (inputs + table). Used by the scheduler to pick a
  // device before committing (section 2.2: "we know the amount of memory
  // that each kernel invocation call needs in advance").
  static uint64_t DeviceBytesNeeded(const runtime::GroupByPlan& plan,
                                    uint64_t rows, uint64_t capacity);

  // Fused-staging variant: the compact record stream plus the table. Falls
  // back to DeviceBytesNeeded when the plan is not fusable.
  static uint64_t FusedDeviceBytesNeeded(const runtime::GroupByPlan& plan,
                                         uint64_t rows, uint64_t capacity);

  // Cost-based fused-vs-SoA staging decision for one query, comparing the
  // modeled stage + transfer + kernel pipelines from the groupby/price.h
  // terms (the kernel term uses the regular kernel as the representative;
  // the moderator still picks the actual kernel later). Returns kSoA
  // whenever fusion is disabled or the plan has no fused layout (wide
  // keys).
  static StageMode ChooseStageMode(const runtime::GroupByPlan& plan,
                                   const gpusim::CostModel& cost,
                                   const GpuGroupByOptions& options,
                                   uint64_t input_rows, int dop);
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_GPU_GROUPBY_H_
