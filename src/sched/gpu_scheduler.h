#ifndef BLUSIM_SCHED_GPU_SCHEDULER_H_
#define BLUSIM_SCHED_GPU_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "gpusim/sim_device.h"
#include "obs/metrics.h"

namespace blusim::sched {

// Controls the reservation-wait loop in PickDeviceWithWait. Each failed
// attempt charges `poll_interval` of simulated wait and sleeps
// `real_sleep_us` of wall time so concurrent streams can actually release
// memory in between polls.
struct WaitOptions {
  int max_attempts = 20;
  SimTime poll_interval = 200;  // simulated microseconds per failed poll
  int64_t real_sleep_us = 50;   // wall-clock yield between polls

  // Exponential backoff: each failed poll doubles the next interval (up to
  // max_backoff_interval) and randomizes it by +/-`jitter` so concurrent
  // streams denied at the same instant do not re-poll in lockstep (the
  // synchronized-retry thundering herd). Off by default so single-stream
  // wait accounting stays deterministic.
  bool exp_backoff = false;
  SimTime max_backoff_interval = 3200;
  double jitter = 0.25;
  uint64_t jitter_seed = 0;  // 0 = derive from the FIFO ticket

  // Simulated-time wait budget; 0 = bounded only by max_attempts. The
  // placement gives up before any poll that would push the accumulated
  // wait past the deadline, letting the caller degrade to the CPU path
  // instead of erroring.
  SimTime deadline = 0;
};

// Multi-GPU task scheduler (paper section 2.2).
//
// Tracks the number of outstanding jobs per device and each device's free
// memory, and places each task on the least-loaded device that can satisfy
// the task's up-front memory requirement. Devices need not be homogeneous.
//
// Contended placements wait in FIFO ticket order: only the head-of-line
// waiter attempts placement, so a large reservation cannot be starved
// indefinitely by a stream of small ones slipping in front of it.
class GpuScheduler {
 public:
  explicit GpuScheduler(std::vector<gpusim::SimDevice*> devices,
                        obs::MetricsRegistry* metrics = nullptr);

  size_t num_devices() const { return devices_.size(); }
  const std::vector<gpusim::SimDevice*>& devices() const { return devices_; }
  gpusim::SimDevice* device(size_t i) { return devices_[i]; }
  // Smallest device memory in the fleet: it bounds chunk sizing and the T3
  // cap when devices are heterogeneous (UINT64_MAX with no devices).
  uint64_t min_device_memory() const {
    uint64_t m = UINT64_MAX;
    for (const gpusim::SimDevice* d : devices_) {
      m = std::min(m, d->spec().device_memory_bytes);
    }
    return m;
  }

  // Chooses the device for a task needing `bytes_needed` device memory:
  // among devices that can currently reserve it, the one with the fewest
  // outstanding jobs (ties: most free memory). DeviceUnavailable when none
  // qualifies -- the caller waits or falls back to the CPU.
  Result<gpusim::SimDevice*> PickDevice(uint64_t bytes_needed);

  // PickDevice plus the "wait for memory" half of section 2.1.1: when no
  // device qualifies, polls until one frees enough capacity or the attempt
  // budget (or deadline) runs out. The accumulated simulated wait is
  // returned through `waited` (if non-null) and recorded as
  // GpuEvent::kReservationWait on the device that finally accepted the
  // task (on the first device when the wait times out, so denials still
  // show up in the monitor).
  Result<gpusim::SimDevice*> PickDeviceWithWait(
      uint64_t bytes_needed, SimTime* waited = nullptr,
      const WaitOptions& options = WaitOptions()) EXCLUDES(wait_mu_);

  // Splits `rows` into contiguous range partitions of at most
  // `max_rows_per_chunk` rows (section 2.2: large inputs are range-
  // partitioned into chunks processed concurrently on the devices and
  // merged at the end).
  static std::vector<std::pair<uint64_t, uint64_t>> PartitionRows(
      uint64_t rows, uint64_t max_rows_per_chunk);

  // Total free memory across all devices (monitoring).
  uint64_t total_free_memory() const;

  // Placements currently queued for memory (monitoring).
  size_t waiter_queue_depth() const EXCLUDES(wait_mu_);

 private:
  // FIFO waiter-queue bookkeeping for PickDeviceWithWait.
  uint64_t JoinWaiters() EXCLUDES(wait_mu_);
  void LeaveWaiters(uint64_t ticket) EXCLUDES(wait_mu_);
  bool AnyWaiters() const EXCLUDES(wait_mu_);
  bool IsHeadWaiter(uint64_t ticket) const EXCLUDES(wait_mu_);

  // Success / denial accounting shared by the wait loop's exits.
  Result<gpusim::SimDevice*> FinishPick(gpusim::SimDevice* device,
                                        SimTime waited_sim,
                                        uint64_t bytes_needed,
                                        SimTime* waited);
  Status FinishDenial(Status status, SimTime waited_sim,
                      uint64_t bytes_needed, SimTime* waited);

  std::vector<gpusim::SimDevice*> devices_;

  mutable common::Mutex wait_mu_{"sched.GpuScheduler.wait_mu",
                                  common::LockRank::kSched};
  uint64_t next_ticket_ GUARDED_BY(wait_mu_) = 1;
  std::deque<uint64_t> waiters_ GUARDED_BY(wait_mu_);

  // Optional engine-registry instruments (null when not wired).
  obs::Counter* picks_total_ = nullptr;
  obs::Counter* waits_total_ = nullptr;
  obs::Counter* denials_total_ = nullptr;
  obs::Histogram* wait_us_ = nullptr;
  obs::Gauge* waiter_depth_gauge_ = nullptr;
};

}  // namespace blusim::sched

#endif  // BLUSIM_SCHED_GPU_SCHEDULER_H_
