#ifndef BLUSIM_SORT_HYBRID_SORT_H_
#define BLUSIM_SORT_HYBRID_SORT_H_

#include <cstdint>
#include <vector>

#include "columnar/table.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "sched/gpu_scheduler.h"
#include "sort/key_encoder.h"

namespace blusim::sort {

struct HybridSortOptions {
  // Device used for large jobs; nullptr = CPU-only sort.
  gpusim::SimDevice* device = nullptr;
  // Alternatively, a multi-GPU scheduler: each GPU-eligible job is placed
  // on the least-loaded device with enough free memory (section 2.2 /
  // contribution 5: "a simple scheduler which lets the DB2 BLU run time
  // schedule tasks on the different GPUs"). Takes precedence over
  // `device`.
  sched::GpuScheduler* scheduler = nullptr;
  gpusim::PinnedHostPool* pinned_pool = nullptr;
  // Jobs below this size stay on the CPU: transfer + launch overhead would
  // overshadow the device's advantage (paper section 3).
  uint32_t min_gpu_rows = 1u << 16;
  // Worker "threads" draining the job queue (the hybrid part: CPU and GPU
  // jobs proceed concurrently). Workers run on `pool` sub-agent threads,
  // not per-sort raw threads.
  int num_workers = 2;
  // Sub-agent pool supplying the extra workers and the parallel partial-
  // key generation ("the host will generate (in parallel) a set of partial
  // keys"). nullptr = the process-wide default pool.
  runtime::ThreadPool* pool = nullptr;
  // Optional query trace: each worker drops per-job spans (cpu sort /
  // keygen / transfer / radix kernel) on its own track; staging work that
  // overlaps a radix kernel lands on the worker's second track.
  obs::TraceBuilder* trace = nullptr;
  // Test-only: worker processing the Nth job (0-based, across all workers)
  // records an injected Internal error instead, exercising the early-abort
  // path. -1 = disabled.
  int inject_error_at_job = -1;
};

struct HybridSortStats {
  uint64_t jobs_total = 0;
  uint64_t jobs_gpu = 0;
  uint64_t jobs_cpu = 0;
  uint64_t gpu_fallbacks = 0;  // GPU-eligible jobs that ran on CPU (no mem)
  // Jobs dropped by the early-abort path after the first hard error.
  uint64_t jobs_skipped = 0;
  // Staging-reuse counters: jobs served from a worker's cached pinned
  // staging buffer / cached device reservation instead of fresh
  // PinnedHostPool::Alloc + Reserve calls.
  uint64_t staging_reuses = 0;
  uint64_t reservation_reuses = 0;
  int max_level = 0;
  // Simulated time (accumulated across workers; serial-equivalent cost).
  SimTime cpu_sort_time = 0;
  SimTime keygen_time = 0;
  SimTime gpu_transfer_time = 0;
  SimTime gpu_kernel_time = 0;
  // Staging time (keygen + transfer-in of job k+1) hidden under the radix
  // kernel of job k by the double-buffered workers.
  SimTime overlapped_stage_time = 0;
};

// Merge-free hybrid CPU/GPU sort (paper section 3).
//
// Tuples never move: the Sort Data Store keeps each row's binary-sortable
// encoded key, and sorting permutes a (partial key, payload) buffer. The
// job queue starts with one job for the whole data set; big jobs go to the
// GPU radix sort (4-byte partial keys), whose duplicate ranges re-enter
// the queue one level deeper; small jobs are finished in place by a CPU
// MSD radix sort over the same partial keys (cpu_radix.h). Duplicate
// ranges are disjoint, so no merge step is ever needed ("conflict free
// partitions").
//
// GPU workers double-buffer: while job k's radix kernel runs, the worker
// prefetches job k+1 from the queue and stages it (parallel key
// generation + pinned transfer-in) into its second staging slot, so hot
// queues hide most staging time behind kernel time.
//
// Returns the sorted permutation: output[i] = input row id of rank i.
// Ties on the full encoded key break by ascending row id (deterministic).
//
// `limit` is the query's LIMIT (0 = none): the caller keeps only the first
// `limit` ranks. Below the row count, the CPU selects those rows
// (SelectHead) and sorts only them, so the permutation holds `limit`
// entries, equal to the first `limit` of the full sort, ties included;
// no job reaches a device. The full sort is the limit >= rows case.
class HybridSorter {
 public:
  static Result<std::vector<uint32_t>> Sort(const columnar::Table& table,
                                            std::vector<SortKey> keys,
                                            const HybridSortOptions& options,
                                            HybridSortStats* stats,
                                            uint64_t limit = 0);
};

}  // namespace blusim::sort

#endif  // BLUSIM_SORT_HYBRID_SORT_H_
