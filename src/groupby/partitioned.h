#ifndef BLUSIM_GROUPBY_PARTITIONED_H_
#define BLUSIM_GROUPBY_PARTITIONED_H_

#include <cstdint>
#include <vector>

#include "gpusim/cost_model.h"
#include "groupby/gpu_groupby.h"
#include "sched/gpu_scheduler.h"

namespace blusim::groupby {

// Per-chunk record of a partitioned execution. One chunk = one hash
// partition of the selection, processed end-to-end on either a device
// (through GpuGroupBy) or the CPU flat-table chain.
struct PartitionChunkStats {
  int partition = -1;        // hash-partition id
  bool on_gpu = false;       // processed through a device
  bool gpu_fallback = false; // device attempt failed, recovered on the CPU
  int device_id = -1;        // device that ran it (-1 = CPU)
  uint64_t rows = 0;
  uint64_t groups = 0;       // groups found in this partition
  uint64_t task_tag = 0;     // ambient task tag the worker carried
  SimTime wait_time = 0;     // scheduler reservation wait (device chunks)
  SimTime cpu_time = 0;      // modeled CPU-chain wall time (CPU chunks)
  GpuGroupByStats gpu;       // device timings (on_gpu chunks)
  // Host wall time (steady clock) of the reservation wait and of the whole
  // chunk in its lane: wait + staging + device job, or the CPU chain.
  int64_t wait_wall_us = 0;
  int64_t wall_us = 0;
};

struct PartitionedStats {
  std::vector<PartitionChunkStats> chunks;
  uint32_t num_partitions = 0;  // fan-out: 1, or a power of two >= 8
  StageMode stage_mode = StageMode::kSoA;  // device chunks' staging mode
  double cpu_split_fraction = 0.0;  // target CPU row share (model/forced)
  uint64_t cpu_rows = 0;  // rows actually aggregated on the CPU lane
  uint64_t gpu_rows = 0;  // rows actually aggregated on device lanes
  // Hash-partition sweep: serial (dop=1) simulated cost of hashing every
  // selected key and scattering its row id; callers divide by their
  // parallelism when charging it.
  SimTime partition_time = 0;
  // Sum of the device chunks' host staging time (the pinned MEMCPY work,
  // shared through the one thread pool).
  SimTime stage_time = 0;
  // Busy time of the CPU lane and the slowest device lane (device lanes
  // count reservation waits plus device occupancy; staging is excluded —
  // it is charged once via stage_time).
  SimTime cpu_lane_time = 0;
  SimTime gpu_lane_time = 0;
  // Host-side concatenation of the partial group sets (0 at one
  // partition, like partition_time).
  SimTime merge_time = 0;
  // Host wall time of the partition sweep and of the concatenation merge
  // (collecting the partitions' groups as the result's pieces; nothing is
  // materialized).
  int64_t partition_wall_us = 0;
  int64_t merge_wall_us = 0;
};

// How Execute splits its input: the router's decision. One partition is
// the single-device run; hash partitioning plans a fan-out from the
// smallest device and splits the rows between a CPU lane and the devices.
enum class Fanout : uint8_t { kOnePartition, kHashPartitioned };

// Knobs for one partitioned execution.
struct PartitionedOptions {
  GpuGroupByOptions gpu;  // estimates cover the whole input
  sched::WaitOptions wait;      // reservation-wait policy per device chunk
  // CPU share of the selected rows. Negative = choose from the group-by
  // price (ChooseCpuSplit, groupby/price.h); any fraction --
  // chosen or forced in [0, 1] -- is honored exactly, with no runtime
  // rebalancing (0 = device-only, 1 = CPU-only; oversize skewed
  // partitions still run on the CPU regardless).
  double cpu_split_fraction = -1.0;
  // DB2 degree of parallelism for the CPU lane's modeled times.
  int cpu_dop = 24;
};

// The engine's one device group-by driver (section 2.2: the input is
// partitioned into smaller chunks "operated on concurrently", then "merged
// together in the final step"). The paper's prototype ran oversize inputs
// on the CPU (figure 3's right branch); this implements the co-execution
// left as future work, and the plain single-device run is its
// one-partition case.
//
// One partition: the whole input is one chunk on one device, with no
// sweep, CPU lane, merge or copy; a null selection is the deferred fused
// scan under the plan's stage filter. A device failure returns its status
// and keeps the chunk's reservation wait in the stats.
//
// Either way the result is the groups as pieces (runtime::GroupPieces),
// not a table: the caller materializes only what it returns.
//
// Hash partitioning: the selection is hash-partitioned by group key, so
// partitions are disjoint in group space and the final merge is a
// concatenation of the partitions' group sets -- no re-hash, no copy.
// Partitions queue once, largest first; per-device driver threads drain
// the front through fused staging under the scheduler's FIFO-ticket
// placement while the calling thread drains a price-sized CPU share
// (smallest partitions) through the runtime::CpuGroupBy flat-table chain;
// neither lane takes the other's partitions. Device failures that are recoverable
// on the host (Status::IsRecoverableOnHost) retry the partition on the CPU
// instead of failing the query. It needs explicit row ids: a null
// selection is InvalidArgument.
class PartitionedGroupBy {
 public:
  static Result<runtime::GroupPieces> Execute(
      const runtime::GroupByPlan& plan, sched::GpuScheduler* scheduler,
      gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
      const std::vector<uint32_t>* selection, Fanout fanout,
      const PartitionedOptions& options, PartitionedStats* stats);

  // Device bytes a one-partition run over `input_rows` scanned rows
  // reserves: the staged inputs in the mode GpuGroupBy::ChooseStageMode
  // picks, plus a hash table sized for the options' group estimate.
  static uint64_t OnePartitionBytesNeeded(const runtime::GroupByPlan& plan,
                                          const gpusim::CostModel& cost,
                                          const GpuGroupByOptions& options,
                                          uint64_t input_rows, int dop);

  // Largest chunk row count whose device footprint (staged inputs for the
  // given stage mode + generously sized hash table) fits within
  // `device_memory_bytes`. Fused records are denser than SoA staging, so
  // kFusedRecords chunks hold more rows for the same budget.
  static uint64_t MaxRowsPerChunk(const runtime::GroupByPlan& plan,
                                  uint64_t estimated_groups,
                                  uint64_t device_memory_bytes,
                                  StageMode mode = StageMode::kSoA);

  // Hash-partition fan-out for Execute and the router's upgrade price:
  // enough partitions to feed every lane, doubled until the average one
  // fits a chunk of the smallest device. *max_rows_per_chunk gets the chunk
  // bound; 0 means one partition's table alone exceeds that device.
  static uint32_t ChooseFanOut(const runtime::GroupByPlan& plan,
                               uint64_t rows, uint64_t groups,
                               uint64_t min_device_memory, int num_devices,
                               StageMode mode, uint64_t* max_rows_per_chunk);
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_PARTITIONED_H_
