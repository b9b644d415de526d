#ifndef BLUSIM_GROUPBY_KERNELS_H_
#define BLUSIM_GROUPBY_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "gpusim/sim_device.h"
#include "groupby/layout.h"
#include "runtime/groupby_plan.h"

namespace blusim::groupby {

// Device-resident group-by input: SoA arrays mirroring StagedInput after
// the host->device transfer.
struct DeviceInput {
  uint64_t rows = 0;
  bool wide_key = false;
  gpusim::DeviceBuffer keys;     // uint64_t[] or WideKey[]
  gpusim::DeviceBuffer row_ids;  // uint32_t[]
  struct SlotArrays {
    gpusim::DeviceBuffer values;    // int64/double/Decimal128[] (or empty)
    gpusim::DeviceBuffer validity;  // uint8_t[] (or empty)
  };
  std::vector<SlotArrays> slots;
};

// Device-resident fused group-by input (data-path fusion): one interleaved
// record stream mirroring StagedInput::records after the host->device
// transfer. Records carry no row ids -- the kernels store the record index
// as the representative row and the host remaps it via
// StagedInput::host_row_ids after readback.
struct FusedDeviceInput {
  uint64_t rows = 0;
  FusedRecordLayout layout;
  gpusim::DeviceBuffer records;  // layout.record_bytes * rows
};

// Work the group-by kernels actually did. Each thread block counts into its
// own slot and the slots are summed after the launch, so counting adds no
// shared atomic per row.
struct KernelWork {
  uint64_t probes = 0;        // hash-table slots examined (shared + global)
  uint64_t cas_failures = 0;  // key-claim CAS lost to a different key
  uint64_t lock_spins = 0;    // DeviceSpinLock CAS attempts (1 uncontended)

  KernelWork& operator+=(const KernelWork& o) {
    probes += o.probes;
    cas_failures += o.cas_failures;
    lock_spins += o.lock_spins;
    return *this;
  }
};

// Arguments shared by all three group-by kernels. Exactly one of `input`
// (SoA arrays) and `fused` (interleaved record stream) is set; all three
// kernels accept either form, fusing scan, key load and aggregation into a
// single pass over the staged records when `fused` is set.
struct GroupByKernelArgs {
  const runtime::GroupByPlan* plan = nullptr;
  const HashTableLayout* layout = nullptr;
  const DeviceInput* input = nullptr;
  const FusedDeviceInput* fused = nullptr;
  char* table = nullptr;       // device hash table (mask-initialized)
  uint64_t capacity = 0;       // power of two
  // Incremented when a probe wraps the whole table (table full). A nonzero
  // value after the kernel returns triggers the error-recovery path: the
  // host grows the table and re-runs (section 4.2 "error detection
  // code-path" for under-estimated group counts).
  std::atomic<uint64_t>* overflow = nullptr;
  // The launch's work counts are added here (nullptr: not reported).
  KernelWork* work = nullptr;
};

// Kernel 1 -- regular queries (section 4.3.1): global hash table,
// atomicCAS insert for <=64-bit keys / lock-based insert for wide keys,
// per-payload atomic (or per-slot lock) aggregation.
Status RunKernelRegular(gpusim::SimDevice* device,
                        const GroupByKernelArgs& args);

// Kernel 2 -- small number of groups (section 4.3.2): per-block partial
// hash tables in SMX shared memory (48 KB config), merged into the global
// table; rows overflowing the shared table spill directly to global.
Status RunKernelSharedMem(gpusim::SimDevice* device,
                          const GroupByKernelArgs& args);

// Kernel 3 -- many aggregates / low contention (section 4.3.3): one
// full-row lock per update; all aggregates applied plainly under it.
Status RunKernelRowLock(gpusim::SimDevice* device,
                        const GroupByKernelArgs& args);

// Parallel mask initialization of the hash table (section 4.3.1, table 1).
Status InitHashTable(gpusim::SimDevice* device, const HashTableLayout& layout,
                     const runtime::GroupByPlan& plan, char* table,
                     uint64_t capacity);

// Largest power-of-two shared-memory table capacity fitting `budget_bytes`
// (0 if even a 16-entry table does not fit).
uint64_t SharedTableCapacity(const HashTableLayout& layout,
                             uint64_t budget_bytes);

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_KERNELS_H_
