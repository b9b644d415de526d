#include "groupby/price.h"

#include <algorithm>
#include <cmath>

#include "common/bit_util.h"
#include "groupby/layout.h"
#include "groupby/moderator.h"
#include "runtime/group_result.h"

namespace blusim::groupby {

using gpusim::CostModel;
using gpusim::GroupByKernelKind;
using gpusim::GroupByKernelParams;
using runtime::GroupByPlan;

SimTime AtDop(const CostModel& cost, SimTime work, int dop) {
  return static_cast<SimTime>(static_cast<double>(work) /
                              cost.HostParallelFactor(dop));
}

SimTime PartitionSweepWork(const CostModel& cost, uint64_t rows) {
  return cost.HostKeyGenTime(rows, 1) + cost.HostMemcpyTime(rows * 4);
}

int StageScanBytesPerRow(const GroupByPlan& plan) {
  int bytes = 0;
  for (const runtime::Predicate& p : plan.stage_filter()) {
    const int w = columnar::DataTypeWidth(
        plan.table().column(static_cast<size_t>(p.column)).type());
    bytes += w == 0 ? 16 : w;  // strings: compare cost stand-in
  }
  return std::max(bytes, 8);
}

SimTime StageTime(const CostModel& cost, const GroupByPlan& plan,
                  StageMode mode, uint64_t rows_scanned, uint64_t rows_staged,
                  int dop) {
  const uint64_t bytes = StagedBytes(plan, mode, rows_staged);
  if (mode == StageMode::kFusedRecords) {
    return cost.HostFusedStageTime(rows_scanned, StageScanBytesPerRow(plan),
                                   rows_staged, bytes, dop);
  }
  return cost.HostKeyGenTime(rows_staged, dop) + cost.HostMemcpyTime(bytes);
}

GroupByKernelParams KernelParams(const GroupByPlan& plan, StageMode mode,
                                 uint64_t rows, uint64_t groups) {
  GroupByKernelParams kp;
  kp.rows = rows;
  kp.groups = std::max<uint64_t>(1, groups);
  kp.num_aggregates = static_cast<int>(plan.slots().size());
  if (mode == StageMode::kFusedRecords) {
    kp.record_bytes = FusedRecordLayout::Make(plan).value().record_bytes;
  }
  kp.wide_key = plan.wide_key();
  for (const runtime::AggSlot& s : plan.slots()) {
    if (s.lock_required) kp.lock_typed_payload = true;
  }
  return kp;
}

SimTime KernelTime(const CostModel& cost, GroupByKernelKind kind,
                   const GroupByKernelParams& params) {
  return params.record_bytes > 0 ? cost.FusedScanAggregateTime(kind, params)
                                 : cost.GroupByKernelTime(kind, params);
}

SimTime DeviceChunkTime(const CostModel& cost, const GroupByPlan& plan,
                        StageMode mode, uint64_t rows, uint64_t groups,
                        uint64_t usable_shared_mem) {
  if (rows == 0) return 0;
  const HashTableLayout layout(plan);
  const uint64_t capacity = ChooseCapacity(groups);
  const GroupByKernelParams kp = KernelParams(plan, mode, rows, groups);
  const GroupByKernelKind kind =
      GpuModerator::ChooseKernel(cost, kp, layout, usable_shared_mem);
  SimTime t = cost.HashTableInitTime(layout.TableBytes(capacity)) +
              KernelTime(cost, kind, kp) +
              cost.TransferTime(layout.TableBytes(capacity), /*pinned=*/true);
  for (uint64_t bytes : StagedStreamBytes(plan, mode, rows)) {
    t += cost.TransferTime(bytes, /*pinned=*/true);
  }
  return t;
}

SimTime CpuChainWork(const CostModel& cost, uint64_t rows, uint64_t groups,
                     size_t num_slots) {
  return cost.HostGroupByTime(rows, groups, static_cast<int>(num_slots), 1);
}

SimTime CpuChainTime(const CostModel& cost, uint64_t rows, uint64_t groups,
                     size_t num_slots, int dop) {
  return AtDop(cost, CpuChainWork(cost, rows, groups, num_slots), dop);
}

SimTime ConcatMergeTime(const CostModel& cost, uint64_t groups,
                        size_t num_slots) {
  return cost.HostMemcpyTime(groups *
                             (4 + num_slots * sizeof(runtime::AccValue))) +
         static_cast<SimTime>(static_cast<double>(groups) * 0.004);
}

SimTime PriceOnePartition(const CostModel& cost, const GroupByPlan& plan,
                          const GroupByShape& s, const PriceEnv& env) {
  return AtDop(cost,
               StageTime(cost, plan, s.mode, s.rows_scanned, s.rows,
                         env.pool_dop),
               env.query_dop) +
         DeviceChunkTime(cost, plan, s.mode, s.rows, s.groups,
                         env.usable_shared_mem);
}

SimTime PricePartitioned(const CostModel& cost, const GroupByPlan& plan,
                         const GroupByShape& s, const PriceEnv& env,
                         uint32_t partitions, double cpu_fraction) {
  if (s.rows == 0) return 0;
  const uint32_t parts = std::max<uint32_t>(1, partitions);
  const uint32_t cpu_parts =
      env.num_devices <= 0
          ? parts
          : static_cast<uint32_t>(
                std::lround(std::clamp(cpu_fraction, 0.0, 1.0) * parts));
  const uint32_t gpu_parts = parts - cpu_parts;
  const uint64_t chunk_rows = CeilDiv(s.rows, parts);
  const uint64_t chunk_groups = std::max<uint64_t>(1, s.groups / parts);
  const size_t num_slots = plan.slots().size();

  const SimTime cpu_lane =
      cpu_parts *
      CpuChainTime(cost, chunk_rows, chunk_groups, num_slots, env.query_dop);
  const SimTime stage =
      gpu_parts *
      StageTime(cost, plan, s.mode, chunk_rows, chunk_rows, env.pool_dop);
  const SimTime gpu_lane =
      CeilDiv(gpu_parts, std::max(1, env.num_devices)) *
      DeviceChunkTime(cost, plan, s.mode, chunk_rows, chunk_groups,
                      env.usable_shared_mem);
  return AtDop(cost, PartitionSweepWork(cost, s.rows), env.query_dop) +
         AtDop(cost, stage, env.query_dop) + std::max(cpu_lane, gpu_lane) +
         ConcatMergeTime(cost, s.groups, num_slots);
}

double ChooseCpuSplit(const CostModel& cost, const GroupByPlan& plan,
                      const GroupByShape& shape, const PriceEnv& env,
                      uint32_t partitions) {
  if (env.num_devices <= 0) return 1.0;
  const uint32_t parts = std::max<uint32_t>(1, partitions);
  double best_f = 0.0;
  SimTime best_t = 0;
  for (uint32_t i = 0; i <= parts; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(parts);
    const SimTime t = PricePartitioned(cost, plan, shape, env, parts, f);
    if (i == 0 || t < best_t) {
      best_t = t;
      best_f = f;
    }
  }
  return best_f;
}

}  // namespace blusim::groupby
