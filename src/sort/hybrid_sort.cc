#include "sort/hybrid_sort.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>

#include "common/annotations.h"
#include "common/logging.h"
#include "sort/cpu_radix.h"
#include "sort/gpu_sort.h"
#include "sort/job_queue.h"
#include "sort/sds.h"

namespace blusim::sort {

using gpusim::DeviceBuffer;
using gpusim::SimDevice;

namespace {

// Rows per partial-key-generation morsel on the sub-agent pool.
constexpr uint32_t kKeyGenMorselRows = 1u << 16;

// Duplicate ranges at or below this size are finished inline by the
// worker's CPU radix sorter instead of re-entering the queue: near-unique
// keys can produce hundreds of thousands of 2-3 row ranges, and a queue
// round-trip per range costs more than the sort itself. Larger ranges are
// still queued so other workers drain them in parallel.
constexpr uint32_t kInlineRangeRows = 256;

uint32_t RoundUpPow2(uint32_t v) {
  if (v == 0) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}

// Shared state of one hybrid sort run. Jobs operate on disjoint [begin,
// end) slices of `perm`, so no locking is needed on the permutation.
struct SortRun {
  const SortDataStore* sds = nullptr;
  std::vector<uint32_t>* perm = nullptr;
  SortJobQueue queue;
  HybridSortOptions options;
  runtime::ThreadPool* pool = nullptr;
  // Cost model for CPU-side accounting (device-independent when no device).
  gpusim::CostModel cost{gpusim::HostSpec{}, gpusim::DeviceSpec{}};
  // Jobs handed to any worker so far (drives the test-only error injection).
  std::atomic<uint64_t> jobs_started{0};

  common::Mutex stats_mu{"sort.HybridSort.stats_mu",
                         common::LockRank::kExec};
  HybridSortStats stats GUARDED_BY(stats_mu);
  Status first_error GUARDED_BY(stats_mu);
  // Simulated-time origin of this sort for the per-worker trace lanes.
  SimTime trace_origin = 0;

  // Records the first hard error and cancels the queue so the remaining
  // jobs are skipped instead of drained (early abort).
  void RecordError(const Status& st) EXCLUDES(stats_mu) {
    {
      common::MutexLock lock(&stats_mu);
      if (first_error.ok()) first_error = st;
    }
    queue.Cancel();
  }
};

// Per-worker trace lane: a private cursor starting at the sort's origin,
// advanced span by span. Workers run concurrently, so each gets its own
// track in the query trace.
struct WorkerLane {
  int track = 0;
  SimTime cursor = 0;

  void AddSpan(SortRun* run, std::string name, const char* category,
               SimTime elapsed, int device_id) {
    if (run->options.trace == nullptr || elapsed <= 0) return;
    obs::TraceSpan span;
    span.name = std::move(name);
    span.category = category;
    span.begin = cursor;
    span.end = cursor + elapsed;
    span.device_id = device_id;
    span.track = track;
    run->options.trace->AddSpanAt(std::move(span));
    cursor += elapsed;
  }
};

// Cached device-side state of one staging slot: the reservation and every
// buffer the GPU sort of one job needs, sized for `capacity_rows`. Hot
// jobs that fit are served without new Reserve/Alloc calls.
struct DeviceSet {
  SimDevice* device = nullptr;
  gpusim::Reservation reservation;
  DeviceBuffer entries, scratch, hist, flags;
  uint32_t capacity_rows = 0;
};

// A GPU job whose host-side staging (key generation + pinned transfer-in)
// has completed; the radix kernel can start at `ready_at`.
struct StagedJob {
  SortJob job;
  int slot = 0;
  int max_levels = 0;       // precomputed during key generation
  SimTime ready_at = 0;     // simulated completion time of the staging
  SimTime keygen = 0;
  SimTime transfer_in = 0;
};

// A worker's prefetch slots: a job staged while the previous kernel ran,
// or a popped job that was not staged. At most one is filled. (Plain
// value-initialized members with flags, not std::optional: GCC 12 reports
// an optional's payload as maybe-uninitialized through these paths.)
struct Prefetch {
  bool has_staged = false;
  StagedJob staged{};
  bool has_pending = false;
  SortJob pending{};
};

// All per-worker reusable state: the two staging slots (pinned buffer +
// device set) of the double-buffered GPU pipeline, the CPU radix sorter's
// scratch, and the two trace lanes (main work + overlapped staging).
struct WorkerState {
  explicit WorkerState(const SortDataStore* sds) : cpu_sorter(sds) {}

  WorkerLane lane;        // kernels, transfers, CPU sorts
  WorkerLane stage_lane;  // staging overlapped with a running kernel
  gpusim::PinnedBuffer pinned[2];
  DeviceSet dev[2];
  CpuRadixSorter cpu_sorter;
  uint64_t staging_reuses = 0;
  uint64_t reservation_reuses = 0;
};

// Fills entries[0..n) with {PartialKey(row, job.level), row} for the job's
// permutation slice -- in parallel across the sub-agent pool for big jobs
// ("the host will generate (in parallel) a set of partial keys and
// payloads"). The per-row RowLevels maximum is folded into the same pass,
// so duplicate ranges never rescan their rows (the old MaxRowLevels).
// Returns the job's max level; `*dop_out` gets the effective parallelism
// for cost accounting.
int GeneratePartialKeys(SortRun* run, const SortJob& job, PkEntry* entries,
                        int* dop_out) {
  const uint32_t n = job.size();
  const SortDataStore& sds = *run->sds;
  const uint32_t* perm = run->perm->data() + job.begin;
  const uint64_t morsels = runtime::NumMorsels(n, kKeyGenMorselRows);
  if (morsels <= 1) {
    int max_levels = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t row = perm[i];
      entries[i].key = sds.PartialKey(row, job.level);
      entries[i].payload = row;
      max_levels = std::max(max_levels, sds.RowLevels(row));
    }
    *dop_out = 1;
    return max_levels;
  }
  std::vector<int> morsel_max(morsels, 0);
  run->pool->ParallelFor(morsels, [&](uint64_t m) {
    const runtime::MorselRange r = runtime::GetMorsel(n, kKeyGenMorselRows, m);
    int mx = 0;
    for (uint64_t i = r.begin; i < r.end; ++i) {
      const uint32_t row = perm[i];
      entries[i].key = sds.PartialKey(row, job.level);
      entries[i].payload = row;
      mx = std::max(mx, sds.RowLevels(row));
    }
    morsel_max[m] = mx;
  });
  *dop_out = static_cast<int>(std::min<uint64_t>(
      morsels, static_cast<uint64_t>(run->pool->num_threads()) + 1));
  return *std::max_element(morsel_max.begin(), morsel_max.end());
}

// CPU path: finish the job in place with the MSD radix sort over the same
// encoded partial keys the GPU sorts (cpu_radix.h). Terminates the
// recursion internally (no child jobs).
void SortJobOnCpu(SortRun* run, WorkerState* ws, const SortJob& job) {
  uint32_t* base = run->perm->data() + job.begin;
  const uint32_t n = job.size();
  int dop = 1;
  if (n >= 2 * kKeyGenMorselRows) {
    // Big CPU jobs (CPU-only sorts, GPU capacity fallbacks): generate the
    // partial keys in parallel, then radix-sort the prefilled entries.
    auto& entries = ws->cpu_sorter.entries();
    if (entries.size() < n) entries.resize(n);
    const int max_levels = GeneratePartialKeys(run, job, entries.data(), &dop);
    ws->cpu_sorter.SortPrefilled(base, n, job.level, max_levels);
  } else {
    ws->cpu_sorter.Sort(base, n, job.level);
  }
  const SimTime keygen = run->cost.HostKeyGenTime(n, dop);
  const SimTime sort_time = run->cost.HostRadixSortTime(n, 1);
  ws->lane.AddSpan(run, "sort-keygen", obs::kCatCpu, keygen, -1);
  ws->lane.AddSpan(run, "sort-job-cpu", obs::kCatCpu, sort_time, -1);
  common::MutexLock lock(&run->stats_mu);
  ++run->stats.jobs_total;
  ++run->stats.jobs_cpu;
  run->stats.cpu_sort_time += sort_time;
  run->stats.keygen_time += keygen;
  run->stats.max_level = std::max(run->stats.max_level, job.level);
}

// Stages one GPU-eligible job into staging slot `slot`: places it on a
// device, reuses (or rebuilds) the slot's cached reservation + device
// buffers and its pinned staging buffer, generates the partial keys in
// parallel and copies the entries onto the device. Returns false when no
// device can take the job (caller falls back to the CPU path). Span
// accounting is the caller's: fresh staging goes on the main lane,
// prefetch staging on the staging lane under the running kernel.
bool StageJob(SortRun* run, WorkerState* ws, const SortJob& job, int slot,
              StagedJob* out) {
  gpusim::PinnedHostPool* pinned_pool = run->options.pinned_pool;
  if (pinned_pool == nullptr) return false;
  const uint32_t n = job.size();

  // Pick a device: scheduler placement when available (least-loaded
  // device that can satisfy the job's memory needs), else the fixed one.
  SimDevice* device = run->options.device;
  if (run->options.scheduler != nullptr) {
    auto pick = run->options.scheduler->PickDevice(GpuSortBytesNeeded(n));
    if (!pick.ok()) return false;
    device = pick.value();
  }
  if (device == nullptr) return false;

  // Device side: reuse the cached reservation + buffers when the job fits,
  // else rebuild the set -- with power-of-two headroom first, so the next
  // slightly-larger job still hits the cache, and the exact size when
  // memory is tight.
  DeviceSet& ds = ws->dev[slot];
  if (ds.device == device && ds.capacity_rows >= n) {
    ++ws->reservation_reuses;
  } else {
    ds = DeviceSet{};  // release the old reservation before re-reserving
    const uint32_t want = RoundUpPow2(n);
    for (const uint32_t cap : {want, n}) {
      auto reservation = device->memory().Reserve(GpuSortBytesNeeded(cap));
      if (!reservation.ok()) continue;
      const uint64_t entry_bytes = static_cast<uint64_t>(cap) * sizeof(PkEntry);
      auto entries = device->memory().Alloc(*reservation, entry_bytes);
      auto scratch = device->memory().Alloc(*reservation, entry_bytes);
      auto hist = device->memory().Alloc(*reservation, GpuSortHistBytes(cap));
      auto flags = device->memory().Alloc(*reservation, cap);
      if (!entries.ok() || !scratch.ok() || !hist.ok() || !flags.ok()) break;
      ds.device = device;
      ds.reservation = std::move(*reservation);
      ds.entries = std::move(*entries);
      ds.scratch = std::move(*scratch);
      ds.hist = std::move(*hist);
      ds.flags = std::move(*flags);
      ds.capacity_rows = cap;
      break;
    }
    if (ds.device == nullptr) return false;
  }

  // Host side: reuse the slot's pinned staging buffer when it fits.
  const uint64_t bytes = static_cast<uint64_t>(n) * sizeof(PkEntry);
  if (ws->pinned[slot].valid() && ws->pinned[slot].size() >= bytes) {
    ++ws->staging_reuses;
  } else {
    ws->pinned[slot].Release();
    auto buf = pinned_pool->Alloc(
        std::max<uint64_t>(RoundUpPow2(static_cast<uint32_t>(
                               std::min<uint64_t>(bytes, UINT32_MAX))),
                           bytes));
    if (!buf.ok()) buf = pinned_pool->Alloc(bytes);
    if (!buf.ok()) return false;
    ws->pinned[slot] = std::move(*buf);
  }

  int dop = 1;
  PkEntry* host_entries = ws->pinned[slot].as<PkEntry>();
  out->max_levels = GeneratePartialKeys(run, job, host_entries, &dop);
  out->keygen = run->cost.HostKeyGenTime(n, dop);

  device->JobStarted();  // balanced by ProcessStagedJob / the drop paths
  out->transfer_in =
      device->CopyToDevice(host_entries, &ds.entries, bytes, /*pinned=*/true);
  out->job = job;
  out->slot = slot;
  return true;
}

// Runs the radix kernel of a staged job, prefetch-stages the next queued
// job into the other slot while the kernel "runs" (the double buffer),
// then post-processes: duplicate ranges, transfer back, permutation
// write-back and child jobs.
void ProcessStagedJob(SortRun* run, WorkerState* ws, const StagedJob& s,
                      Prefetch* next) {
  DeviceSet& ds = ws->dev[s.slot];
  SimDevice* device = ds.device;
  const uint32_t n = s.job.size();
  const uint64_t bytes = static_cast<uint64_t>(n) * sizeof(PkEntry);
  struct JobGuard {
    SimDevice* d;
    ~JobGuard() { d->JobFinished(); }
  } guard{device};

  Status st = GpuRadixSort(device, &ds.entries, &ds.scratch, &ds.hist, n);
  if (!st.ok()) {
    run->RecordError(st);
    return;
  }
  const SimTime kernel = device->cost_model().SortKernelTime(n);
  device->AccountKernel("radix_sort", kernel);
  const SimTime kernel_begin = ws->lane.cursor;
  ws->lane.AddSpan(run, "kernel:radix_sort", obs::kCatKernel, kernel,
                   device->id());

  // Prefetch: stage the next queued job while this kernel runs. Must not
  // block on the queue (this job's children are not pushed yet); a popped
  // job that cannot be staged is handed back to the worker loop.
  if (auto popped = run->queue.TryPop()) {
    bool staged = false;
    if (popped->size() >= run->options.min_gpu_rows) {
      StagedJob nxt;
      if (StageJob(run, ws, *popped, s.slot ^ 1, &nxt)) {
        ws->stage_lane.cursor = kernel_begin;
        ws->stage_lane.AddSpan(run, "sort-keygen", obs::kCatCpu, nxt.keygen,
                               -1);
        ws->stage_lane.AddSpan(run, "sort-transfer-in", obs::kCatTransfer,
                               nxt.transfer_in,
                               ws->dev[s.slot ^ 1].device->id());
        nxt.ready_at = ws->stage_lane.cursor;
        const SimTime hidden =
            std::min(kernel, nxt.keygen + nxt.transfer_in);
        next->staged = nxt;
        next->has_staged = true;
        staged = true;
        common::MutexLock lock(&run->stats_mu);
        run->stats.overlapped_stage_time += hidden;
      } else {
        common::MutexLock lock(&run->stats_mu);
        ++run->stats.gpu_fallbacks;
      }
    }
    if (!staged) {
      next->pending = *popped;
      next->has_pending = true;
    }
  }

  // Duplicate ranges, folded inside the flag kernel's block structure.
  auto ranges = FindDuplicateRanges(device, ds.entries, &ds.flags, n);
  if (!ranges.ok()) {
    run->RecordError(ranges.status());
    return;
  }

  PkEntry* host_entries = ws->pinned[s.slot].as<PkEntry>();
  const SimTime transfer_out = device->CopyFromDevice(
      ds.entries, host_entries, bytes, /*pinned=*/true);
  ws->lane.AddSpan(run, "sort-transfer-out", obs::kCatTransfer, transfer_out,
                   device->id());

  // Write the sorted payloads back into the permutation slice.
  uint32_t* perm = run->perm->data() + s.job.begin;
  for (uint32_t i = 0; i < n; ++i) perm[i] = host_entries[i].payload;

  // Each duplicate range becomes a new job one level deeper; once the
  // job's max level (precomputed during key generation) is consumed, the
  // range's keys are fully equal and it tie-breaks by row id in place.
  // Tiny ranges are finished right here instead of re-entering the queue:
  // near-unique keys can produce hundreds of thousands of 2-3 row ranges,
  // and a queue round-trip per range costs more than the sort itself. The
  // full-key comparator needs no per-level state, so the collected ranges
  // are drained as pool morsels.
  std::vector<std::pair<uint32_t, uint32_t>> tiny;
  uint64_t inline_rows = 0;
  for (const auto& [rb, re] : ranges.value()) {
    if (s.job.level + 1 >= s.max_levels) {
      std::sort(perm + rb, perm + re);
    } else if (re - rb <= kInlineRangeRows) {
      tiny.emplace_back(rb, re);
      inline_rows += re - rb;
    } else {
      run->queue.Push(
          SortJob{s.job.begin + rb, s.job.begin + re, s.job.level + 1});
    }
  }
  int inline_dop = 1;
  if (!tiny.empty()) {
    const SortDataStore* sds = run->sds;
    constexpr uint64_t kRangesPerMorsel = 128;
    const uint64_t morsels = runtime::NumMorsels(tiny.size(), kRangesPerMorsel);
    auto sort_morsel = [&](uint64_t m) {
      const runtime::MorselRange r =
          runtime::GetMorsel(tiny.size(), kRangesPerMorsel, m);
      for (uint64_t i = r.begin; i < r.end; ++i) {
        std::sort(perm + tiny[i].first, perm + tiny[i].second,
                  [sds](uint32_t x, uint32_t y) { return sds->RowLess(x, y); });
      }
    };
    if (morsels <= 1) {
      sort_morsel(0);
    } else {
      run->pool->ParallelFor(morsels, sort_morsel);
      inline_dop = static_cast<int>(std::min<uint64_t>(
          morsels, static_cast<uint64_t>(run->pool->num_threads()) + 1));
    }
  }
  const SimTime inline_time =
      inline_rows > 0 ? run->cost.HostRadixSortTime(inline_rows, inline_dop)
                      : 0;
  ws->lane.AddSpan(run, "sort-job-cpu", obs::kCatCpu, inline_time, -1);

  common::MutexLock lock(&run->stats_mu);
  run->stats.cpu_sort_time += inline_time;
  ++run->stats.jobs_total;
  ++run->stats.jobs_gpu;
  run->stats.gpu_transfer_time += s.transfer_in + transfer_out;
  run->stats.gpu_kernel_time += kernel;
  run->stats.keygen_time += s.keygen;
  run->stats.max_level = std::max(run->stats.max_level, s.job.level);
}

void WorkerLoop(SortRun* run, int worker) {
  WorkerState ws(run->sds);
  ws.lane.track = 1 + 2 * worker;
  ws.lane.cursor = run->trace_origin;
  ws.stage_lane.track = 2 + 2 * worker;
  ws.stage_lane.cursor = run->trace_origin;

  Prefetch prefetched;
  while (true) {
    // Early abort: after the first hard error the queue is cancelled --
    // drop prefetched work instead of processing it.
    if (run->queue.cancelled() &&
        (prefetched.has_staged || prefetched.has_pending)) {
      uint64_t dropped = 0;
      if (prefetched.has_staged) {
        ws.dev[prefetched.staged.slot].device->JobFinished();
        prefetched.has_staged = false;
        run->queue.TaskDone();
        ++dropped;
      }
      if (prefetched.has_pending) {
        prefetched.has_pending = false;
        run->queue.TaskDone();
        ++dropped;
      }
      common::MutexLock lock(&run->stats_mu);
      run->stats.jobs_skipped += dropped;
      continue;
    }

    bool have_staged = false;
    StagedJob cur;
    SortJob job;
    if (prefetched.has_staged) {
      cur = prefetched.staged;
      prefetched.has_staged = false;
      have_staged = true;
      job = cur.job;
    } else if (prefetched.has_pending) {
      job = prefetched.pending;
      prefetched.has_pending = false;
    } else if (auto popped = run->queue.Pop()) {
      job = *popped;
    } else {
      break;
    }

    // Test-only error injection (exercises the early-abort path).
    const uint64_t job_index = run->jobs_started.fetch_add(1);
    if (run->options.inject_error_at_job >= 0 &&
        job_index ==
            static_cast<uint64_t>(run->options.inject_error_at_job)) {
      run->RecordError(Status::Internal("injected hybrid-sort error"));
      if (have_staged) ws.dev[cur.slot].device->JobFinished();
      run->queue.TaskDone();
      {
        common::MutexLock lock(&run->stats_mu);
        ++run->stats.jobs_skipped;
      }
      continue;
    }

    if (!have_staged && job.size() >= run->options.min_gpu_rows) {
      StagedJob fresh;
      if (StageJob(run, &ws, job, /*slot=*/0, &fresh)) {
        // Fresh staging (no kernel to hide behind): spans go on the main
        // lane. This is also where the keygen span the traces used to
        // drop is recorded.
        ws.lane.AddSpan(run, "sort-keygen", obs::kCatCpu, fresh.keygen, -1);
        ws.lane.AddSpan(run, "sort-transfer-in", obs::kCatTransfer,
                        fresh.transfer_in, ws.dev[0].device->id());
        fresh.ready_at = ws.lane.cursor;
        cur = fresh;
        have_staged = true;
      } else {
        common::MutexLock lock(&run->stats_mu);
        ++run->stats.gpu_fallbacks;
      }
    }

    if (have_staged) {
      // A prefetched job may still be "staging" (simulated) past the
      // previous job's post-processing: the kernel waits for it.
      if (cur.ready_at > ws.lane.cursor) ws.lane.cursor = cur.ready_at;
      ProcessStagedJob(run, &ws, cur, &prefetched);
    } else {
      SortJobOnCpu(run, &ws, job);
    }
    run->queue.TaskDone();
  }

  common::MutexLock lock(&run->stats_mu);
  run->stats.staging_reuses += ws.staging_reuses;
  run->stats.reservation_reuses += ws.reservation_reuses;
}

}  // namespace

Result<std::vector<uint32_t>> HybridSorter::Sort(
    const columnar::Table& table, std::vector<SortKey> keys,
    const HybridSortOptions& options, HybridSortStats* stats,
    uint64_t limit) {
  BLUSIM_ASSIGN_OR_RETURN(SortDataStore sds,
                          SortDataStore::Make(table, std::move(keys)));
  const uint32_t n = sds.num_rows();
  if (limit > 0 && limit < n) {
    // Select the head, then sort only it (CPU path).
    const auto k = static_cast<uint32_t>(limit);
    std::vector<uint32_t> head = SelectHead(sds, k);
    CpuRadixSorter(&sds).Sort(head.data(), k, /*level=*/0);
    if (stats != nullptr) {
      const gpusim::CostModel cost{gpusim::HostSpec{}, gpusim::DeviceSpec{}};
      *stats = HybridSortStats{};
      stats->jobs_total = 1;
      stats->jobs_cpu = 1;
      stats->keygen_time = cost.HostKeyGenTime(n, 1);
      stats->cpu_sort_time = cost.HostRadixSortTime(k, 1);
    }
    return head;
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (n > 1) {
    SortRun run;
    run.sds = &sds;
    run.perm = &perm;
    run.options = options;
    run.pool = options.pool != nullptr ? options.pool
                                       : &runtime::ThreadPool::Default();
    if (options.trace != nullptr) run.trace_origin = options.trace->now();
    run.queue.Push(SortJob{0, n, 0});

    // Extra workers come from the sub-agent pool (no per-sort raw
    // threads); the calling thread is worker 0 and always participates,
    // so the sort completes even when the pool is saturated.
    const int workers = std::max(1, options.num_workers);
    struct WorkerSync {
      common::Mutex mu{"sort.HybridSort.worker_sync_mu",
                       common::LockRank::kExec};
      std::condition_variable_any cv;
      int remaining GUARDED_BY(mu) = 0;
    } sync;
    {
      common::MutexLock lock(&sync.mu);
      sync.remaining = workers - 1;
    }
    for (int w = 1; w < workers; ++w) {
      run.pool->Submit([&run, &sync, w] {
        WorkerLoop(&run, w);
        // Notify while holding the mutex: the waiter destroys `sync` as
        // soon as it observes remaining == 0, so notifying after unlock
        // would race with that destruction.
        common::MutexLock lock(&sync.mu);
        --sync.remaining;
        sync.cv.notify_all();
      });
    }
    WorkerLoop(&run, 0);
    {
      common::MutexLock lock(&sync.mu);
      while (sync.remaining > 0) sync.cv.wait(lock);
    }

    HybridSortStats run_stats;
    Status first_error;
    {
      common::MutexLock lock(&run.stats_mu);
      first_error = run.first_error;
      run_stats = run.stats;
    }
    run_stats.jobs_skipped += run.queue.jobs_skipped();
    // Stats are filled even on error so callers (and tests) can observe
    // how much work the early abort skipped.
    if (stats != nullptr) *stats = run_stats;
    BLUSIM_RETURN_NOT_OK(first_error);
  } else if (stats != nullptr) {
    *stats = HybridSortStats{};
  }
  return perm;
}

}  // namespace blusim::sort
