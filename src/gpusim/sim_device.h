#ifndef BLUSIM_GPUSIM_SIM_DEVICE_H_
#define BLUSIM_GPUSIM_SIM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/sim_clock.h"
#include "common/status.h"
#include "gpusim/cost_model.h"
#include "gpusim/device_memory.h"
#include "gpusim/kernel.h"
#include "gpusim/perf_monitor.h"
#include "gpusim/specs.h"

namespace blusim::gpusim {

// Shared-memory / L1 split of each SMX. The group-by kernels configure
// 48 KB shared / 16 KB L1 to maximize room for partial hash tables
// (section 4.3.2).
enum class SharedMemConfig {
  kShared48L116,  // 48 KB shared memory, 16 KB L1 (kernel 2's choice)
  kShared16L148,  // 16 KB shared memory, 48 KB L1
  kEqual32,       // 32 / 32
};

// Shared memory per SMX of `spec` under `config`.
uint64_t SharedMemBytes(const DeviceSpec& spec, SharedMemConfig config);

// One simulated GPU: memory manager (reservations), kernel launcher,
// perf monitor and the PCIe transfer engine. All "time" values returned
// are simulated durations from the cost model; all data movement and
// kernel execution really happen (on host threads), so results are real.
class SimDevice {
 public:
  SimDevice(int device_id, const DeviceSpec& spec, const HostSpec& host,
            int workers = 0);

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  int id() const { return device_id_; }
  const DeviceSpec& spec() const { return spec_; }
  const CostModel& cost_model() const { return cost_model_; }
  DeviceMemoryManager& memory() { return memory_; }
  const DeviceMemoryManager& memory() const { return memory_; }
  KernelLauncher& launcher() { return launcher_; }
  PerfMonitor& monitor() { return monitor_; }
  const PerfMonitor& monitor() const { return monitor_; }

  // --- Shared-memory configuration (cudaFuncSetCacheConfig analogue) ---
  void SetSharedMemConfig(SharedMemConfig config);
  uint64_t usable_shared_mem() const;

  // --- Outstanding-job tracking for the multi-GPU scheduler (2.2) ---
  void JobStarted() { outstanding_jobs_.fetch_add(1); }
  void JobFinished() { outstanding_jobs_.fetch_sub(1); }
  int outstanding_jobs() const { return outstanding_jobs_.load(); }

  // --- Transfers ---
  // Copies host -> device; returns the simulated transfer duration.
  // `pinned` selects registered-memory speed (section 2.1.2).
  SimTime CopyToDevice(const void* src, DeviceBuffer* dst, uint64_t bytes,
                       bool pinned);
  // Copies device -> host.
  SimTime CopyFromDevice(const DeviceBuffer& src, void* dst, uint64_t bytes,
                         bool pinned);

  // Records a kernel execution: `duration` computed by the caller via the
  // cost model for the specific kernel, name used for per-kernel stats.
  void AccountKernel(const char* name, SimTime duration);

  // Samples current memory usage into the monitor (figure 9 series).
  void SampleMemoryUsage(SimTime now);

 private:
  const int device_id_;
  const DeviceSpec spec_;
  CostModel cost_model_;
  DeviceMemoryManager memory_;
  KernelLauncher launcher_;
  PerfMonitor monitor_;
  std::atomic<int> outstanding_jobs_{0};
  // Set by kernel-2 launches while concurrent jobs read it.
  std::atomic<SharedMemConfig> shared_config_{SharedMemConfig::kEqual32};
};

}  // namespace blusim::gpusim

#endif  // BLUSIM_GPUSIM_SIM_DEVICE_H_
