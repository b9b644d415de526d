#ifndef BLUSIM_GPUSIM_ATOMICS_H_
#define BLUSIM_GPUSIM_ATOMICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>

namespace blusim::gpusim {

// CUDA-style device atomics, implemented over std::atomic_ref so simulated
// kernels can operate in place on raw device-buffer memory exactly the way
// CUDA kernels operate on device pointers. All addresses must be naturally
// aligned for the operand width (the simulator's hash-table layouts enforce
// 1/2/4/8/16-byte alignment, as NVIDIA hardware requires -- section 4.3.1).

// atomicCAS: writes `desired` if *addr == expected; returns the old value.
inline uint32_t AtomicCas32(uint32_t* addr, uint32_t expected,
                            uint32_t desired) {
  std::atomic_ref<uint32_t> ref(*addr);
  uint32_t e = expected;
  ref.compare_exchange_strong(e, desired, std::memory_order_acq_rel);
  return e;
}

inline uint64_t AtomicCas64(uint64_t* addr, uint64_t expected,
                            uint64_t desired) {
  std::atomic_ref<uint64_t> ref(*addr);
  uint64_t e = expected;
  ref.compare_exchange_strong(e, desired, std::memory_order_acq_rel);
  return e;
}

inline int64_t AtomicAdd64(int64_t* addr, int64_t value) {
  std::atomic_ref<int64_t> ref(*addr);
  return ref.fetch_add(value, std::memory_order_acq_rel);
}

inline int32_t AtomicAdd32(int32_t* addr, int32_t value) {
  std::atomic_ref<int32_t> ref(*addr);
  return ref.fetch_add(value, std::memory_order_acq_rel);
}

inline int32_t AtomicMax32(int32_t* addr, int32_t value) {
  std::atomic_ref<int32_t> ref(*addr);
  int32_t cur = ref.load(std::memory_order_acquire);
  while (cur < value &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
  return cur;
}

inline int32_t AtomicMin32(int32_t* addr, int32_t value) {
  std::atomic_ref<int32_t> ref(*addr);
  int32_t cur = ref.load(std::memory_order_acquire);
  while (cur > value &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
  return cur;
}

inline int64_t AtomicMax64(int64_t* addr, int64_t value) {
  std::atomic_ref<int64_t> ref(*addr);
  int64_t cur = ref.load(std::memory_order_acquire);
  while (cur < value &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
  return cur;
}

inline int64_t AtomicMin64(int64_t* addr, int64_t value) {
  std::atomic_ref<int64_t> ref(*addr);
  int64_t cur = ref.load(std::memory_order_acquire);
  while (cur > value &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
  return cur;
}

// Doubles have no native atomic add on Kepler; CUDA code emulates it with a
// CAS loop over the 64-bit bit pattern (paper reference [1]). Same here.
inline double AtomicAddDouble(double* addr, double value) {
  uint64_t* bits = reinterpret_cast<uint64_t*>(addr);
  std::atomic_ref<uint64_t> ref(*bits);
  uint64_t old_bits = ref.load(std::memory_order_acquire);
  while (true) {
    double old_val;
    std::memcpy(&old_val, &old_bits, sizeof(double));
    const double new_val = old_val + value;
    uint64_t new_bits;
    std::memcpy(&new_bits, &new_val, sizeof(double));
    if (ref.compare_exchange_weak(old_bits, new_bits,
                                  std::memory_order_acq_rel)) {
      return old_val;
    }
  }
}

inline double AtomicMinDouble(double* addr, double value) {
  uint64_t* bits = reinterpret_cast<uint64_t*>(addr);
  std::atomic_ref<uint64_t> ref(*bits);
  uint64_t old_bits = ref.load(std::memory_order_acquire);
  while (true) {
    double old_val;
    std::memcpy(&old_val, &old_bits, sizeof(double));
    if (old_val <= value) return old_val;
    uint64_t new_bits;
    std::memcpy(&new_bits, &value, sizeof(double));
    if (ref.compare_exchange_weak(old_bits, new_bits,
                                  std::memory_order_acq_rel)) {
      return old_val;
    }
  }
}

inline double AtomicMaxDouble(double* addr, double value) {
  uint64_t* bits = reinterpret_cast<uint64_t*>(addr);
  std::atomic_ref<uint64_t> ref(*bits);
  uint64_t old_bits = ref.load(std::memory_order_acquire);
  while (true) {
    double old_val;
    std::memcpy(&old_val, &old_bits, sizeof(double));
    if (old_val >= value) return old_val;
    uint64_t new_bits;
    std::memcpy(&new_bits, &value, sizeof(double));
    if (ref.compare_exchange_weak(old_bits, new_bits,
                                  std::memory_order_acq_rel)) {
      return old_val;
    }
  }
}

// Spin lock occupying one 32-bit device word. Used for hash-table entries
// whose key or payload types have no hardware atomic (keys > 64 bit,
// strings, 128-bit decimals -- section 4.4), and as the full-row lock of
// kernel 3 (section 4.3.3).
class DeviceSpinLock {
 public:
  // `word` points into device memory; 0 = unlocked, 1 = locked. Returns
  // the spin count: CAS attempts the acquisition took, 1 when uncontended.
  static uint64_t Lock(uint32_t* word) {
    std::atomic_ref<uint32_t> ref(*word);
    uint32_t expected = 0;
    uint64_t spins = 1;
    while (!ref.compare_exchange_weak(expected, 1,
                                      std::memory_order_acquire)) {
      expected = 0;
      ++spins;
    }
    return spins;
  }

  static bool TryLock(uint32_t* word) {
    std::atomic_ref<uint32_t> ref(*word);
    uint32_t expected = 0;
    return ref.compare_exchange_strong(expected, 1,
                                       std::memory_order_acquire);
  }

  static void Unlock(uint32_t* word) {
    std::atomic_ref<uint32_t> ref(*word);
    ref.store(0, std::memory_order_release);
  }
};

}  // namespace blusim::gpusim

#endif  // BLUSIM_GPUSIM_ATOMICS_H_
