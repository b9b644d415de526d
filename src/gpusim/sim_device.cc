#include "gpusim/sim_device.h"

#include <cstring>

#include "common/logging.h"

namespace blusim::gpusim {

SimDevice::SimDevice(int device_id, const DeviceSpec& spec,
                     const HostSpec& host, int workers)
    : device_id_(device_id),
      spec_(spec),
      cost_model_(host, spec),
      memory_(spec.device_memory_bytes),
      launcher_(spec, workers) {}

void SimDevice::SetSharedMemConfig(SharedMemConfig config) {
  shared_config_.store(config, std::memory_order_relaxed);
}

uint64_t SharedMemBytes(const DeviceSpec& spec, SharedMemConfig config) {
  const uint64_t total = spec.shared_mem_per_smx_bytes;
  switch (config) {
    case SharedMemConfig::kShared48L116: return total * 3 / 4;  // 48 KB
    case SharedMemConfig::kShared16L148: return total / 4;      // 16 KB
    case SharedMemConfig::kEqual32: return total / 2;           // 32 KB
  }
  return total / 2;
}

uint64_t SimDevice::usable_shared_mem() const {
  return SharedMemBytes(spec_, shared_config_.load(std::memory_order_relaxed));
}

SimTime SimDevice::CopyToDevice(const void* src, DeviceBuffer* dst,
                                uint64_t bytes, bool pinned) {
  BLUSIM_CHECK(dst != nullptr && dst->valid());
  BLUSIM_CHECK(bytes <= dst->size());
  std::memcpy(dst->data(), src, bytes);
  const SimTime t = cost_model_.TransferTime(bytes, pinned);
  monitor_.Record(GpuEvent::kTransferToDevice, t, bytes);
  return t;
}

SimTime SimDevice::CopyFromDevice(const DeviceBuffer& src, void* dst,
                                  uint64_t bytes, bool pinned) {
  BLUSIM_CHECK(src.valid());
  BLUSIM_CHECK(bytes <= src.size());
  std::memcpy(dst, src.data(), bytes);
  const SimTime t = cost_model_.TransferTime(bytes, pinned);
  monitor_.Record(GpuEvent::kTransferFromDevice, t, bytes);
  return t;
}

void SimDevice::AccountKernel(const char* name, SimTime duration) {
  monitor_.RecordKernel(name, duration);
}

void SimDevice::SampleMemoryUsage(SimTime now) {
  monitor_.SampleMemory(now, memory_.reserved());
}

}  // namespace blusim::gpusim
