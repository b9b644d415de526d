#include "groupby/gpu_groupby.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/wall_timer.h"
#include "groupby/kernels.h"
#include "groupby/price.h"
#include "groupby/staging.h"
#include "runtime/group_result.h"

namespace blusim::groupby {

using columnar::DataType;
using gpusim::DeviceBuffer;
using gpusim::GroupByKernelKind;
using gpusim::GroupByKernelParams;
using gpusim::SimDevice;
using runtime::AggSlot;
using runtime::GroupByOutput;
using runtime::GroupByPlan;
using runtime::WideKey;

namespace {

// Moves staged SoA pinned buffers onto the device, charging transfer time
// and bytes for the TRUE array sizes. Pinned-pool allocations are 64-byte
// aligned, so PinnedBuffer::size() over-reports the wire size; the device
// allocations use the logical sizes so the kernels' checked accessors get
// tight bounds.
Status UploadInput(SimDevice* device, const gpusim::Reservation& reservation,
                   const StagedInput& staged, const GroupByPlan& plan,
                   DeviceInput* input, SimTime* transfer_time,
                   uint64_t* bytes_in) {
  const uint64_t rows = staged.rows;
  input->rows = rows;
  input->wide_key = staged.wide_key;

  auto upload = [&](const gpusim::PinnedBuffer& src, uint64_t bytes,
                    DeviceBuffer* dst) -> Status {
    BLUSIM_ASSIGN_OR_RETURN(*dst,
                            device->memory().Alloc(reservation, bytes));
    *transfer_time += device->CopyToDevice(src.data(), dst, bytes,
                                           /*pinned=*/true);
    *bytes_in += bytes;
    return Status::OK();
  };

  BLUSIM_RETURN_NOT_OK(upload(
      staged.keys,
      rows * (staged.wide_key ? sizeof(WideKey) : sizeof(uint64_t)),
      &input->keys));
  BLUSIM_RETURN_NOT_OK(
      upload(staged.row_ids, rows * sizeof(uint32_t), &input->row_ids));
  input->slots.resize(plan.slots().size());
  for (size_t s = 0; s < plan.slots().size(); ++s) {
    const AggSlot& slot = plan.slots()[s];
    if (staged.payloads[s].valid()) {
      const uint64_t width =
          slot.acc_type == DataType::kDecimal128 ? 16 : 8;
      BLUSIM_RETURN_NOT_OK(upload(staged.payloads[s], rows * width,
                                  &input->slots[s].values));
    }
    if (staged.validity[s].valid()) {
      BLUSIM_RETURN_NOT_OK(
          upload(staged.validity[s], rows, &input->slots[s].validity));
    }
  }
  return Status::OK();
}

// Fused path: one allocation, one transfer, exactly the record stream.
Status UploadFused(SimDevice* device, const gpusim::Reservation& reservation,
                   const StagedInput& staged, FusedDeviceInput* fused,
                   SimTime* transfer_time, uint64_t* bytes_in) {
  fused->rows = staged.rows;
  fused->layout = staged.record_layout;
  BLUSIM_ASSIGN_OR_RETURN(
      fused->records,
      device->memory().Alloc(reservation, staged.transfer_bytes));
  *transfer_time += device->CopyToDevice(staged.records.data(),
                                         &fused->records,
                                         staged.transfer_bytes,
                                         /*pinned=*/true);
  *bytes_in += staged.transfer_bytes;
  return Status::OK();
}

// Scans the device hash table (after readback) into flat groups. Fused
// kernels store the staged record index as the representative row (row ids
// never cross the bus), which `host_row_ids` maps back to an input row id;
// null for SoA input.
runtime::FlatGroups ScanTable(const GroupByPlan& plan,
                              const HashTableLayout& layout,
                              const char* table, uint64_t capacity,
                              const std::vector<uint32_t>* host_row_ids) {
  runtime::FlatGroups groups;
  // Capacity carries ~1.5x headroom (HashTableCapacity), so half-full is
  // the common case; avoids log2(n) regrows while scanning.
  const size_t num_slots = plan.slots().size();
  groups.rep_rows.reserve(capacity / 2);
  groups.accs.reserve(capacity / 2 * num_slots);
  const uint64_t entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  for (uint64_t e = 0; e < capacity; ++e) {
    const char* entry = table + e * entry_bytes;
    // The key marks a narrow entry occupied, the rep row a wide one.
    uint64_t key;
    uint32_t rep;
    std::memcpy(&key, entry, 8);
    std::memcpy(&rep, entry + layout.rep_row_offset(), 4);
    if (layout.wide_key() ? rep == kEmptyRow : key == kEmptyKey64) continue;
    if (host_row_ids != nullptr && rep < host_row_ids->size()) {
      rep = (*host_row_ids)[rep];
    }
    groups.rep_rows.push_back(rep);
    for (size_t s = 0; s < num_slots; ++s) {
      const char* sp = entry + layout.slot_offset(s);
      runtime::AccValue& acc = groups.accs.emplace_back();
      switch (plan.slots()[s].acc_type) {
        case DataType::kFloat64:
          std::memcpy(&acc.f64, sp, 8);
          break;
        case DataType::kDecimal128:
          std::memcpy(&acc.dec, sp, 16);
          break;
        case DataType::kInt32:
        case DataType::kDate: {
          int32_t tmp;
          std::memcpy(&tmp, sp, 4);
          acc.i64 = tmp;
          break;
        }
        default:
          std::memcpy(&acc.i64, sp, 8);
          break;
      }
    }
  }
  return groups;
}

Status RunKernel(SimDevice* device, GroupByKernelKind kind,
                 const GroupByKernelArgs& args) {
  switch (kind) {
    case GroupByKernelKind::kRegular:
      return RunKernelRegular(device, args);
    case GroupByKernelKind::kSharedMem:
      return RunKernelSharedMem(device, args);
    case GroupByKernelKind::kRowLock:
      return RunKernelRowLock(device, args);
  }
  return Status::InvalidArgument("unknown kernel kind");
}

}  // namespace

uint64_t GpuGroupBy::DeviceBytesNeeded(const GroupByPlan& plan, uint64_t rows,
                                       uint64_t capacity) {
  return StagedBytes(plan, StageMode::kSoA, rows) +
         HashTableLayout(plan).TableBytes(capacity);
}

uint64_t GpuGroupBy::FusedDeviceBytesNeeded(const GroupByPlan& plan,
                                            uint64_t rows, uint64_t capacity) {
  return StagedBytes(plan, StageMode::kFusedRecords, rows) +
         HashTableLayout(plan).TableBytes(capacity);
}

StageMode GpuGroupBy::ChooseStageMode(const GroupByPlan& plan,
                                      const gpusim::CostModel& cost,
                                      const GpuGroupByOptions& options,
                                      uint64_t input_rows, int dop) {
  if (!options.allow_fusion || plan.wide_key()) return StageMode::kSoA;
  if (!FusedRecordLayout::Make(plan).ok()) return StageMode::kSoA;

  const uint64_t scanned = std::max<uint64_t>(input_rows, 1);
  uint64_t staged_rows = options.estimated_rows > 0
                             ? std::min(options.estimated_rows, scanned)
                             : scanned;
  staged_rows = std::max<uint64_t>(staged_rows, 1);
  // Each pipeline: host staging, one transfer of the staged bytes, the
  // regular kernel. The SoA one also pays the predicate scan upstream
  // (FilterScan) that the fused sweep folds in.
  auto pipeline = [&](StageMode mode) {
    return StageTime(cost, plan, mode, scanned, staged_rows, dop) +
           cost.TransferTime(StagedBytes(plan, mode, staged_rows),
                             /*pinned=*/true) +
           KernelTime(cost, GroupByKernelKind::kRegular,
                      KernelParams(plan, mode, staged_rows,
                                   options.estimated_groups));
  };
  const SimTime fused_total = pipeline(StageMode::kFusedRecords);
  const SimTime soa_total =
      cost.HostScanTime(scanned, StageScanBytesPerRow(plan), dop) +
      pipeline(StageMode::kSoA);
  return fused_total <= soa_total ? StageMode::kFusedRecords
                                  : StageMode::kSoA;
}

Result<GroupByOutput> GpuGroupBy::Execute(
    const GroupByPlan& plan, SimDevice* device,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    GpuModerator* /*moderator*/, const std::vector<uint32_t>* selection,
    const GpuGroupByOptions& options, GpuGroupByStats* stats) {
  runtime::GroupPieces pieces(1);
  BLUSIM_ASSIGN_OR_RETURN(
      pieces.front(),
      ExecuteToGroups(plan, device, pinned_pool, thread_pool, selection,
                      /*hash_partitions=*/1, options, stats));
  return runtime::MaterializeOutput(plan, pieces, thread_pool);
}

Result<runtime::FlatGroups> GpuGroupBy::ExecuteToGroups(
    const GroupByPlan& plan, SimDevice* device,
    gpusim::PinnedHostPool* pinned_pool, runtime::ThreadPool* thread_pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    const GpuGroupByOptions& options, GpuGroupByStats* stats) {
  BLUSIM_CHECK(stats != nullptr);
  *stats = GpuGroupByStats{};
  const gpusim::CostModel& cost = device->cost_model();

  device->JobStarted();
  struct JobGuard {
    SimDevice* d;
    ~JobGuard() { d->JobFinished(); }
  } job_guard{device};

  // --- Stage into pinned memory (MEMCPY evaluator / fused sweep) ---
  const int dop = thread_pool ? thread_pool->num_threads() : 1;
  const uint64_t input_rows =
      selection ? selection->size() : plan.table().num_rows();
  const StageMode mode =
      ChooseStageMode(plan, cost, options, input_rows, dop);
  const WallTimer stage_timer;
  BLUSIM_ASSIGN_OR_RETURN(
      StagedInput staged,
      StageForDevice(plan, pinned_pool, thread_pool, selection, mode,
                     hash_partitions));
  stats->stage_wall_us = stage_timer.ElapsedUs();
  const uint64_t rows = staged.rows;
  stats->fused = staged.fused;
  stats->rows_scanned = staged.rows_scanned;
  stats->rows_staged = rows;
  stats->kmv_estimate = staged.kmv_estimate;
  const StageMode staged_mode =
      staged.fused ? StageMode::kFusedRecords : StageMode::kSoA;
  stats->stage_time = StageTime(cost, plan, staged_mode, staged.rows_scanned,
                                rows, dop);
  if (staged.fused) {
    stats->bytes_avoided = StagedBytes(plan, StageMode::kSoA, rows) -
                           staged.transfer_bytes;
  }
  if (rows == 0) {
    return runtime::FlatGroups{};
  }

  const HashTableLayout layout(plan);
  uint64_t capacity = ChooseCapacity(staged.kmv_estimate);

  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    // --- Reserve all device memory up front (section 2.1.1) ---
    const uint64_t need = staged.transfer_bytes + layout.TableBytes(capacity);
    auto reservation_result = device->memory().Reserve(need);
    if (!reservation_result.ok()) {
      return reservation_result.status();
    }
    gpusim::Reservation reservation = std::move(reservation_result).value();
    stats->device_bytes_reserved = need;

    // --- Transfer input (only costed once; retries reuse the input) ---
    DeviceInput input;
    FusedDeviceInput fused_input;
    SimTime transfer_in = 0;
    uint64_t bytes_in = 0;
    if (staged.fused) {
      BLUSIM_RETURN_NOT_OK(UploadFused(device, reservation, staged,
                                       &fused_input, &transfer_in,
                                       &bytes_in));
    } else {
      BLUSIM_RETURN_NOT_OK(UploadInput(device, reservation, staged, plan,
                                       &input, &transfer_in, &bytes_in));
    }
    if (attempt == 0) {
      stats->transfer_in = transfer_in;
      stats->bytes_in = bytes_in;
    }

    // --- Allocate + mask-init the hash table ---
    BLUSIM_ASSIGN_OR_RETURN(
        DeviceBuffer table,
        device->memory().Alloc(reservation, layout.TableBytes(capacity)));
    BLUSIM_RETURN_NOT_OK(
        InitHashTable(device, layout, plan, table.data(), capacity));
    const SimTime init_time =
        cost.HashTableInitTime(layout.TableBytes(capacity));
    stats->table_init += init_time;
    device->monitor().Record(gpusim::GpuEvent::kHashTableInit, init_time,
                             layout.TableBytes(capacity));

    // --- Moderator selects the kernel (section 4.2) ---
    const GroupByKernelParams kp =
        KernelParams(plan, staged_mode, rows, staged.kmv_estimate);
    const GroupByKernelKind chosen = GpuModerator::ChooseKernel(
        cost, kp, layout, SharedKernelBudget(device->spec()));

    std::atomic<uint64_t> overflow{0};
    GroupByKernelArgs args;
    args.plan = &plan;
    args.layout = &layout;
    if (staged.fused) {
      args.fused = &fused_input;
    } else {
      args.input = &input;
    }
    args.table = table.data();
    args.capacity = capacity;
    args.overflow = &overflow;
    args.work = &stats->work;

    // Fused runs cost through the fused kernel model and report under the
    // fused kernel names.
    const SimTime t = KernelTime(cost, chosen, kp);
    const WallTimer kernel_timer;
    BLUSIM_RETURN_NOT_OK(RunKernel(device, chosen, args));
    stats->kernel_wall_us += kernel_timer.ElapsedUs();
    stats->kernel_time += t;
    device->AccountKernel(staged.fused
                              ? gpusim::GroupByKernelKindFusedName(chosen)
                              : gpusim::GroupByKernelKindName(chosen),
                          t);
    stats->kernel_used = chosen;
    stats->table_capacity = capacity;

    // --- Error-recovery path: the KMV estimate was too low and the table
    // filled up. Grow it and retry (section 4.2). ---
    if (overflow.load() > 0) {
      if (attempt == options.max_retries) {
        return Status::EstimateTooLow(
            "hash table overflowed after max retries");
      }
      ++stats->retries;
      capacity *= 4;
      continue;  // reservation released by RAII; next attempt re-reserves
    }

    // --- Readback ---
    std::vector<char> host_table(layout.TableBytes(capacity));
    stats->transfer_out = device->CopyFromDevice(
        table, host_table.data(), host_table.size(), /*pinned=*/true);
    stats->bytes_out = host_table.size();

    return ScanTable(plan, layout, host_table.data(), capacity,
                     staged.fused ? &staged.host_row_ids : nullptr);
  }
  return Status::Internal("unreachable: retry loop exited");
}

}  // namespace blusim::groupby
