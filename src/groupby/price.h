#ifndef BLUSIM_GROUPBY_PRICE_H_
#define BLUSIM_GROUPBY_PRICE_H_

#include <cstddef>
#include <cstdint>

#include "common/sim_clock.h"
#include "gpusim/cost_model.h"
#include "groupby/staging.h"
#include "runtime/groupby_plan.h"

namespace blusim::groupby {

// The one price of a group-by. The runtime charges each step by calling
// its term on actual rows and groups; the router and the split choice call
// the run prices, built from the same terms, on estimates. gpusim keeps
// only the device and host primitives the terms are made of.

// `work` serial microseconds charged at `dop` host threads: the engine's
// phase convention (core::PhaseRecord::IdleElapsed).
SimTime AtDop(const gpusim::CostModel& cost, SimTime work, int dop);

// --- Terms ---

// Hash-partition sweep at dop 1: a key hash and a 4-byte row-id scatter
// per selected row.
SimTime PartitionSweepWork(const gpusim::CostModel& cost, uint64_t rows);

// Bytes per scanned row the fused sweep's predicates touch (the
// stage_filter columns; 8 as a floor for the key load).
int StageScanBytesPerRow(const runtime::GroupByPlan& plan);

// Host staging of one device chunk at `dop` pool threads: the fused sweep
// over the scanned rows, or the SoA chain's key generation plus MEMCPY.
SimTime StageTime(const gpusim::CostModel& cost,
                  const runtime::GroupByPlan& plan, StageMode mode,
                  uint64_t rows_scanned, uint64_t rows_staged, int dop);

// Kernel model parameters of `rows` staged rows holding `groups` groups.
gpusim::GroupByKernelParams KernelParams(const runtime::GroupByPlan& plan,
                                         StageMode mode, uint64_t rows,
                                         uint64_t groups);

// `kind`'s modeled time: the fused kernel model for record input
// (`record_bytes > 0`), the SoA one otherwise.
SimTime KernelTime(const gpusim::CostModel& cost,
                   gpusim::GroupByKernelKind kind,
                   const gpusim::GroupByKernelParams& params);

// One device chunk's job: the staged transfer, init of a table sized by
// ChooseCapacity(groups), the GpuModerator::ChooseKernel argmin kernel and
// the table readback. 0 for an empty chunk.
SimTime DeviceChunkTime(const gpusim::CostModel& cost,
                        const runtime::GroupByPlan& plan, StageMode mode,
                        uint64_t rows, uint64_t groups,
                        uint64_t usable_shared_mem);

// The CPU flat-table chain at dop 1, and charged at `dop`.
SimTime CpuChainWork(const gpusim::CostModel& cost, uint64_t rows,
                     uint64_t groups, size_t num_slots);
SimTime CpuChainTime(const gpusim::CostModel& cost, uint64_t rows,
                     uint64_t groups, size_t num_slots, int dop);

// Concatenation merge of hash partitions: one pass over the final rep-row
// and accumulator arrays plus per-group bookkeeping.
SimTime ConcatMergeTime(const gpusim::CostModel& cost, uint64_t groups,
                        size_t num_slots);

// --- Run prices ---

// A device group-by as a price sees it: estimates before a run, or a
// finished run's own counts (the groups then being its KMV estimate).
struct GroupByShape {
  uint64_t rows_scanned = 0;  // rows the staging sweep examines
  uint64_t rows = 0;          // rows aggregated
  uint64_t groups = 1;
  StageMode mode = StageMode::kSoA;
};

// The engine a run is charged on.
struct PriceEnv {
  int pool_dop = 1;   // staging pool threads
  int query_dop = 1;  // degree the host phases are charged at
  int num_devices = 1;
  uint64_t usable_shared_mem = 0;  // kernel 2's budget on one device
};

// What a one-partition run records, less any reservation wait: its
// staging at query dop, then its device chunk.
SimTime PriceOnePartition(const gpusim::CostModel& cost,
                          const runtime::GroupByPlan& plan,
                          const GroupByShape& shape, const PriceEnv& env);

// What a hash-partitioned run over `partitions` equal partitions records:
// sweep and device staging at query dop, max(CPU lane, slowest device
// lane), merge. The CPU lane takes round(cpu_fraction x partitions) of
// them (all without devices); the device lanes share the rest.
SimTime PricePartitioned(const gpusim::CostModel& cost,
                         const runtime::GroupByPlan& plan,
                         const GroupByShape& shape, const PriceEnv& env,
                         uint32_t partitions, double cpu_fraction);

// Argmin of PricePartitioned over the realizable CPU shares k/partitions;
// 1.0 (all-CPU) without devices.
double ChooseCpuSplit(const gpusim::CostModel& cost,
                      const runtime::GroupByPlan& plan,
                      const GroupByShape& shape, const PriceEnv& env,
                      uint32_t partitions);

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_PRICE_H_
