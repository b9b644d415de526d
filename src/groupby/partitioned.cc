#include "groupby/partitioned.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/annotations.h"
#include "common/bit_util.h"
#include "common/logging.h"
#include "common/task_tag.h"
#include "common/thread.h"
#include "common/wall_timer.h"
#include "groupby/layout.h"
#include "groupby/price.h"
#include "runtime/group_result.h"
#include "runtime/partition_sweep.h"

namespace blusim::groupby {

using runtime::GroupByPlan;
using runtime::GroupPieces;

namespace {

// Hash-partition fan-out bounds. The floor keeps the queue deep enough for
// lanes to self-balance; the ceiling bounds per-partition bookkeeping.
constexpr uint32_t kMinPartitionsPerDevice = 4;
constexpr uint32_t kMinPartitions = 8;
constexpr uint32_t kMaxPartitions = 1024;

// Per-partition execution state; each slot is owned by exactly one worker
// (the one that popped its partition id), so no locking beyond the queue
// pop/join edges is needed.
struct PartitionSlot {
  bool used = false;
  PartitionChunkStats chunk;  // the record Execute returns for it
  GroupPieces groups;  // the partition's groups, from either lane
};

// Shared work-queue state. Device lanes pop the front (largest remaining
// partition); the CPU lane runs only its pre-assigned share. The mutex is
// never held across partition work -- pop, release, execute.
struct WorkQueue {
  common::Mutex mu{"groupby.Partitioned.queue_mu", common::LockRank::kExec};
  std::deque<uint32_t> device_queue GUARDED_BY(mu);
  Status first_error GUARDED_BY(mu);
  bool abort GUARDED_BY(mu) = false;
};

// Device bytes one chunk reserves: its staged inputs in `mode` plus a hash
// table sized for `groups`.
uint64_t ChunkBytesNeeded(const GroupByPlan& plan, StageMode mode,
                          uint64_t rows, uint64_t groups) {
  return StagedBytes(plan, mode, rows) +
         HashTableLayout(plan).TableBytes(ChooseCapacity(groups));
}

// Runs one chunk on a device placed through the scheduler's FIFO-ticket
// reservation wait. `gpu` carries the chunk's own row and group estimates,
// which size the reservation; `hash_partitions` is the fan-out the chunk's
// selection is one HashPartition range of (1 when unpartitioned). A
// failure returns its status with the wait already recorded in `slot`.
Status RunDeviceChunk(const GroupByPlan& plan, sched::GpuScheduler* scheduler,
                      gpusim::PinnedHostPool* pinned_pool,
                      runtime::ThreadPool* thread_pool, StageMode mode,
                      const std::vector<uint32_t>* selection,
                      uint32_t hash_partitions, const GpuGroupByOptions& gpu,
                      const sched::WaitOptions& wait, PartitionSlot* slot) {
  const WallTimer timer;
  SimTime waited = 0;
  auto pick = scheduler->PickDeviceWithWait(
      ChunkBytesNeeded(plan, mode, gpu.estimated_rows, gpu.estimated_groups),
      &waited, wait);
  slot->chunk.wait_time = waited;
  slot->chunk.wait_wall_us = timer.ElapsedUs();
  BLUSIM_RETURN_NOT_OK(pick.status());
  slot->chunk.device_id = pick.value()->id();
  slot->groups.resize(1);
  BLUSIM_ASSIGN_OR_RETURN(
      slot->groups.front(),
      GpuGroupBy::ExecuteToGroups(plan, pick.value(), pinned_pool,
                                  thread_pool, selection, hash_partitions,
                                  gpu, &slot->chunk.gpu));
  slot->chunk.groups = runtime::NumGroups(slot->groups);
  slot->chunk.on_gpu = true;
  slot->chunk.wall_us = timer.ElapsedUs();
  return Status::OK();
}

// Appends a used slot's record to the stats and adds it to its side's
// totals.
void AddChunk(const PartitionSlot& slot, PartitionedStats* stats) {
  const PartitionChunkStats& cs = slot.chunk;
  if (cs.on_gpu) {
    stats->gpu_rows += cs.rows;
    stats->stage_time += cs.gpu.stage_time;
  } else {
    stats->cpu_rows += cs.rows;
  }
  stats->chunks.push_back(cs);
}

}  // namespace

uint64_t PartitionedGroupBy::OnePartitionBytesNeeded(
    const GroupByPlan& plan, const gpusim::CostModel& cost,
    const GpuGroupByOptions& options, uint64_t input_rows, int dop) {
  return ChunkBytesNeeded(
      plan, GpuGroupBy::ChooseStageMode(plan, cost, options, input_rows, dop),
      options.estimated_rows, options.estimated_groups);
}

uint64_t PartitionedGroupBy::MaxRowsPerChunk(const GroupByPlan& plan,
                                             uint64_t estimated_groups,
                                             uint64_t device_memory_bytes,
                                             StageMode mode) {
  const HashTableLayout layout(plan);
  // A chunk can hold at most min(groups, rows) distinct groups; size the
  // table for the full estimate (pessimistic but safe).
  const uint64_t table_bytes =
      layout.TableBytes(ChooseCapacity(estimated_groups));
  // Leave half the device free for concurrently scheduled work.
  const uint64_t budget = device_memory_bytes / 2;
  if (table_bytes >= budget) return 0;
  const uint64_t per_row =
      std::max<uint64_t>(1, StagedBytes(plan, mode, /*rows=*/1));
  return (budget - table_bytes) / per_row;
}

uint32_t PartitionedGroupBy::ChooseFanOut(const GroupByPlan& plan,
                                          uint64_t rows, uint64_t groups,
                                          uint64_t min_device_memory,
                                          int num_devices, StageMode mode,
                                          uint64_t* max_rows_per_chunk) {
  uint32_t p = static_cast<uint32_t>(NextPow2(std::max<uint64_t>(
      kMinPartitions, static_cast<uint64_t>(kMinPartitionsPerDevice) *
                          static_cast<uint64_t>(std::max(1, num_devices)))));
  uint64_t max_rows = 0;
  for (;;) {
    max_rows = MaxRowsPerChunk(plan, std::max<uint64_t>(1, groups / p),
                               min_device_memory, mode);
    if (max_rows == 0) break;
    if (CeilDiv(rows, p) <= max_rows || p >= kMaxPartitions) break;
    p *= 2;
  }
  *max_rows_per_chunk = max_rows;
  return p;
}

Result<GroupPieces> PartitionedGroupBy::Execute(
    const GroupByPlan& plan, sched::GpuScheduler* scheduler,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    const std::vector<uint32_t>* selection, Fanout fanout,
    const PartitionedOptions& options, PartitionedStats* stats) {
  BLUSIM_CHECK(stats != nullptr);
  *stats = PartitionedStats{};
  const int num_devices = static_cast<int>(scheduler->num_devices());
  if (num_devices == 0) {
    return Status::DeviceUnavailable("partitioned path requires devices");
  }
  // Every device shares the first one's host and, in a homogeneous fleet,
  // its spec: the split choice and host-side timing use its model.
  const gpusim::CostModel& cost = scheduler->device(0)->cost_model();
  const int pool_dop =
      thread_pool != nullptr ? std::max(1, thread_pool->num_threads()) : 1;

  // Device chunks' staging mode: the cost-based fused-vs-SoA decision over
  // the whole input (per-chunk ExecuteToGroups re-decides with the chunk's
  // own estimates; this level needs it for reservation and chunk sizing).
  const uint64_t input_rows =
      selection != nullptr ? selection->size() : plan.table().num_rows();
  const StageMode mode = GpuGroupBy::ChooseStageMode(
      plan, cost, options.gpu, input_rows, pool_dop);
  stats->stage_mode = mode;

  if (fanout == Fanout::kOnePartition) {
    // The single-device run: the router's estimates size the reservation.
    PartitionSlot slot;
    PartitionChunkStats& c = slot.chunk;
    c.partition = 0;
    c.task_tag = common::CurrentTaskTag();
    stats->num_partitions = 1;
    const Status st =
        RunDeviceChunk(plan, scheduler, pinned_pool, thread_pool, mode,
                       selection, /*hash_partitions=*/1, options.gpu,
                       options.wait, &slot);
    if (!st.ok()) {
      stats->chunks.push_back(c);  // keeps the reservation wait
      return st;
    }
    c.rows = c.gpu.rows_staged;
    AddChunk(slot, stats);
    stats->gpu_lane_time = c.wait_time + c.gpu.total() - c.gpu.stage_time;
    return std::move(slot.groups);
  }

  if (selection == nullptr) {
    return Status::InvalidArgument("hash partitioning needs explicit row ids");
  }
  const uint64_t total_rows = selection->size();
  if (total_rows == 0) return GroupPieces{};
  const size_t num_slots = plan.slots().size();

  // Group-count estimate: the optimizer's if present, else the router's
  // own estimator over the selection.
  uint64_t estimated_groups = options.gpu.estimated_groups;
  if (estimated_groups == 0) {
    estimated_groups = std::max<uint64_t>(
        1, runtime::CountDistinctKeys(plan, thread_pool, selection, 512));
  }

  // Smallest device bounds the chunk size (heterogeneous devices allowed).
  const uint64_t min_device_mem = scheduler->min_device_memory();

  // Hash-partition fan-out: enough partitions to keep every lane fed,
  // doubled until the average partition fits a device chunk.
  uint64_t max_rows = 0;
  const uint32_t num_partitions =
      ChooseFanOut(plan, total_rows, estimated_groups, min_device_mem,
                   num_devices, mode, &max_rows);
  if (max_rows == 0) {
    return Status::CapacityExceeded(
        "hash table alone exceeds the smallest device");
  }
  stats->num_partitions = num_partitions;

  // --- Partition sweep ---
  const WallTimer sweep_timer;
  std::vector<std::vector<uint32_t>> partitions = runtime::PartitionRows(
      plan, thread_pool, selection, /*hash_partitions=*/1, num_partitions);
  stats->partition_wall_us = sweep_timer.ElapsedUs();
  stats->partition_time = PartitionSweepWork(cost, total_rows);

  // --- Split + queues ---
  // Non-empty partitions sorted by size, descending.
  std::vector<uint32_t> order;
  order.reserve(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (!partitions[p].empty()) order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (partitions[a].size() != partitions[b].size()) {
      return partitions[a].size() > partitions[b].size();
    }
    return a < b;
  });

  double cpu_fraction = options.cpu_split_fraction;
  if (cpu_fraction < 0.0) {
    const GroupByShape shape{total_rows, total_rows, estimated_groups, mode};
    const PriceEnv env{pool_dop, options.cpu_dop, num_devices,
                       SharedKernelBudget(scheduler->device(0)->spec())};
    cpu_fraction = ChooseCpuSplit(cost, plan, shape, env, num_partitions);
  }
  cpu_fraction = std::clamp(cpu_fraction, 0.0, 1.0);
  stats->cpu_split_fraction = cpu_fraction;

  // CPU pre-assignment: oversize partitions (hash skew beyond the device
  // chunk bound) always run on the CPU; then the smallest partitions until
  // the CPU share is covered. Everything else queues for the device lanes,
  // largest first.
  const uint64_t cpu_target = static_cast<uint64_t>(
      cpu_fraction * static_cast<double>(total_rows) + 0.5);
  std::vector<uint32_t> cpu_list;
  std::deque<uint32_t> device_order;
  uint64_t cpu_assigned = 0;
  for (uint32_t p : order) {
    if (partitions[p].size() > max_rows) {
      cpu_list.push_back(p);
      cpu_assigned += partitions[p].size();
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t p = *it;
    if (partitions[p].size() > max_rows) continue;
    // Round to nearest: take the partition only while doing so lands
    // closer to the target than stopping. Always rounding up would
    // overshoot the model's whole-partition optimum by one partition.
    if (cpu_assigned + partitions[p].size() / 2 <= cpu_target) {
      cpu_list.push_back(p);
      cpu_assigned += partitions[p].size();
    } else {
      device_order.push_front(p);  // rebuild descending order
    }
  }

  std::vector<PartitionSlot> slots(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    slots[p].chunk.partition = static_cast<int>(p);
    slots[p].chunk.rows = partitions[p].size();
  }
  const std::vector<uint32_t> device_list(device_order.begin(),
                                          device_order.end());
  WorkQueue queue;
  {
    common::MutexLock lock(&queue.mu);
    queue.device_queue = std::move(device_order);
  }

  // --- Worker routines ---
  auto fail = [&](const Status& st) {
    common::MutexLock lock(&queue.mu);
    if (queue.first_error.ok()) queue.first_error = st;
    queue.abort = true;
  };
  auto aborted = [&]() {
    common::MutexLock lock(&queue.mu);
    return queue.abort;
  };

  // Each partition's share of the estimate, for either lane.
  const uint64_t partition_groups =
      std::max<uint64_t>(1, estimated_groups / num_partitions);

  // CPU-chain execution of one partition; callable concurrently (the pool
  // supports concurrent ParallelFor callers).
  auto run_cpu = [&](uint32_t p, PartitionSlot* slot) -> Status {
    const WallTimer timer;
    const std::vector<uint32_t>& sel = partitions[p];
    BLUSIM_ASSIGN_OR_RETURN(slot->groups,
                            runtime::CpuGroupBy::ExecuteToFlat(
                                plan, thread_pool, &sel, num_partitions,
                                partition_groups));
    slot->chunk.groups = runtime::NumGroups(slot->groups);
    slot->chunk.cpu_time = CpuChainTime(
        cost, sel.size(), std::max<uint64_t>(1, slot->chunk.groups), num_slots,
        options.cpu_dop);
    slot->chunk.wall_us = timer.ElapsedUs();
    return Status();
  };

  // Device execution of one partition. Recoverable failures return the
  // status so the caller can retry the partition on the CPU.
  auto run_device = [&](uint32_t p, PartitionSlot* slot) -> Status {
    GpuGroupByOptions gopts = options.gpu;
    gopts.estimated_rows = partitions[p].size();
    gopts.estimated_groups = partition_groups;
    return RunDeviceChunk(plan, scheduler, pinned_pool, thread_pool, mode,
                          &partitions[p], num_partitions, gopts, options.wait,
                          slot);
  };

  SimTime cpu_busy = 0;

  // New common::Thread drivers do not inherit the ambient task tag the way
  // pool workers do, so capture the owning query's tag here and establish
  // it in each lane -- device-checker attribution for partition chunks
  // must charge this query, not query 0.
  const uint64_t owner_tag = common::CurrentTaskTag();

  auto device_lane = [&]() {
    common::ScopedTaskTag tag(owner_tag);
    for (;;) {
      uint32_t p = 0;
      {
        common::MutexLock lock(&queue.mu);
        if (queue.abort || queue.device_queue.empty()) break;
        p = queue.device_queue.front();
        queue.device_queue.pop_front();
      }
      PartitionSlot* slot = &slots[p];
      slot->used = true;
      slot->chunk.task_tag = common::CurrentTaskTag();
      Status st = run_device(p, slot);
      if (st.ok()) continue;
      if (!st.IsRecoverableOnHost()) {
        fail(st);
        break;
      }
      // Retry this partition on the CPU chain, on this driver thread.
      slot->chunk.gpu_fallback = true;
      slot->chunk.on_gpu = false;
      slot->chunk.device_id = -1;
      // Only what the failed attempt's kernels did survives the reset: the
      // kernel-work counters report it.
      GpuGroupByStats failed;
      failed.kernel_used = slot->chunk.gpu.kernel_used;
      failed.fused = slot->chunk.gpu.fused;
      failed.work = slot->chunk.gpu.work;
      slot->chunk.gpu = failed;
      Status cpu_st = run_cpu(p, slot);
      if (!cpu_st.ok()) {
        fail(cpu_st);
        break;
      }
    }
  };

  // --- Run: device driver threads + the calling thread as the CPU lane ---
  std::vector<common::Thread> lanes;
  lanes.reserve(static_cast<size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    lanes.emplace_back(device_lane);
  }
  for (uint32_t p : cpu_list) {
    if (aborted()) break;
    PartitionSlot* slot = &slots[p];
    slot->used = true;
    slot->chunk.task_tag = common::CurrentTaskTag();
    Status st = run_cpu(p, slot);
    if (!st.ok()) {
      fail(st);
      break;
    }
    cpu_busy += slot->chunk.cpu_time;
  }
  // No work stealing back from the device queue: real-thread progress is
  // decoupled from the simulated clock here, so a real-time steal decision
  // would routinely be a simulated-time loss. The split fraction (model-
  // chosen or forced) is the balancing mechanism, and it is honored
  // exactly -- which also keeps per-side chunk placement deterministic.
  common::JoinAll(&lanes);
  {
    common::MutexLock lock(&queue.mu);
    BLUSIM_RETURN_NOT_OK(queue.first_error);
  }

  // Lane accounting: chunk-to-lane placement on the real driver threads is
  // OS-scheduling dependent, so measuring per-lane sums directly would make
  // the simulated elapsed time wobble run to run. Replay the deterministic
  // queue order through a greedy earliest-free-lane schedule instead.
  std::vector<SimTime> lane_busy(static_cast<size_t>(num_devices), 0);
  for (uint32_t p : device_list) {
    const PartitionChunkStats& c = slots[p].chunk;
    if (!slots[p].used) continue;
    const SimTime work =
        c.wait_time +
        (c.on_gpu ? c.gpu.total() - c.gpu.stage_time : c.cpu_time);
    *std::min_element(lane_busy.begin(), lane_busy.end()) += work;
  }

  // --- Concatenation merge ---
  // Partitions are disjoint in group space (equal keys share a partition),
  // so the partitions' pieces in partition-id order are a complete,
  // deterministic merge; no group is copied.
  const WallTimer merge_timer;
  GroupPieces out;
  uint64_t num_groups = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    PartitionSlot& slot = slots[p];
    if (!slot.used) continue;
    num_groups += slot.chunk.groups;
    for (runtime::FlatGroups& piece : slot.groups) {
      out.push_back(std::move(piece));
    }
    AddChunk(slot, stats);
  }
  stats->merge_wall_us = merge_timer.ElapsedUs();

  stats->merge_time = ConcatMergeTime(cost, num_groups, num_slots);
  SimTime slowest_lane = 0;
  for (SimTime busy : lane_busy) slowest_lane = std::max(slowest_lane, busy);
  stats->cpu_lane_time = cpu_busy;
  stats->gpu_lane_time = slowest_lane;
  return out;
}

}  // namespace blusim::groupby
