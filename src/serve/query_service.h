#ifndef BLUSIM_SERVE_QUERY_SERVICE_H_
#define BLUSIM_SERVE_QUERY_SERVICE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/thread.h"
#include "common/wall_timer.h"
#include "core/engine.h"
#include "obs/flight_recorder.h"
#include "obs/window.h"

namespace blusim::serve {

// Reserved tenant label for unattributed submissions. Mapping "" here keeps
// every SLO window, flight record and Prometheus series carrying a
// non-empty tenant label (an empty label value renders as `tenant=""` and
// silently splits the no-tenant series from named ones).
inline constexpr char kNoTenant[] = "-";

// A weighted admission class: `weight` scales both the tenant's share of
// device slots (stride scheduling over the per-tenant queues) and its
// per-query device/pinned budgets relative to the fair-share base.
struct TenantClassSpec {
  std::string tenant;
  double weight = 1.0;
};

// Admission and degradation policy for a shared engine serving N
// concurrent clients.
struct ServiceOptions {
  // Queries executing at once; further submissions queue. Also the size of
  // the executor pool draining the per-tenant admission queues.
  int max_concurrent = 4;
  // Submissions allowed to queue behind the active set; one more and the
  // submission is shed with kOverloaded (bounded queue = bounded latency)
  // unless it outranks a queued ticket, which is then evicted instead.
  size_t max_queue_depth = 16;
  // Wall-clock cap on time spent queued before a *blocking* Submit sheds
  // itself (microseconds; 0 = wait indefinitely). Async submissions bound
  // their queue time with SubmitOptions::deadline_us instead.
  int64_t admission_timeout_us = 0;

  // Per-query memory budgets (0 = derive a fair share: one device's
  // memory and the pinned pool, each divided by max_concurrent). A GPU
  // placement that would exceed its budget degrades to the CPU chain.
  // Tenant weights scale the base budget (clamped to one device / the
  // whole pinned pool); a weight-1.0 tenant gets exactly the base.
  uint64_t device_budget_bytes = 0;
  uint64_t pinned_budget_bytes = 0;

  // Deadline for a GPU placement's reservation wait in simulated
  // microseconds (0 = derive from the cost model: a few times the cost of
  // transferring the device budget -- past that, waiting for the device
  // costs more than the offload saves). A placement that cannot reserve
  // within the deadline degrades to the CPU chain and completes.
  SimTime gpu_deadline = 0;

  // Base reservation-wait policy. The service always enables exponential
  // backoff with jitter on top of it (concurrent streams denied together
  // must not re-poll in lockstep) and installs the deadline above.
  sched::WaitOptions wait;

  // Weighted admission classes. Tenants not listed get default_weight.
  std::vector<TenantClassSpec> tenant_classes;
  double default_weight = 1.0;

  // Serving-side observability (docs/observability.md, "Live
  // monitoring"): SLO windows per (class, mode, tenant) and the query
  // flight recorder. flight.sample_every controls healthy-query trace
  // sampling; anomalies (degraded / shed / failed / tail outliers) are
  // always recorded and pinned.
  obs::SloOptions slo;
  obs::FlightRecorderOptions flight;
  // A completion this many times slower than the live window's p99
  // bucket bound is recorded as a "tail_outlier" anomaly (requires at
  // least tail_outlier_min_window completions in the window).
  double tail_outlier_factor = 1.0;
  uint64_t tail_outlier_min_window = 32;

  // Test-only: invoked by the blocking Submit wrapper after its future
  // wait times out, before it tries to cancel the queued ticket. Lets
  // tests construct the timeout-vs-admission race deterministically.
  std::function<void()> before_timeout_cancel;
};

// Per-submission controls for SubmitAsync.
struct SubmitOptions {
  // Higher runs first within a tenant's queue; when the admission queue is
  // full, a submission may evict a queued ticket of strictly lower
  // priority instead of being shed.
  int priority = 0;
  // Wall-clock cap on queue time (microseconds, relative to submission;
  // 0 = none). A ticket still queued past its deadline is shed with
  // kOverloaded when the scheduler next examines its queue.
  int64_t deadline_us = 0;
  // Optional completion callback, invoked exactly once from an executor
  // thread (no service locks held) after all accounting, just before the
  // handle's future becomes ready. Must not block for long: it runs on
  // the executor that would otherwise pick the next query.
  std::function<void(const Result<core::QueryResult>&)> on_complete;
};

// Point-in-time serving counters (mirrored in the engine's metrics
// registry under blusim_serve_*).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;       // rejected: queue full, timeout, deadline, evicted
  uint64_t completed = 0;
  uint64_t degraded = 0;   // completed, but a GPU phase re-routed to CPU
  uint64_t failed = 0;     // admitted but returned a non-overload error
  uint64_t deadline_shed = 0;  // subset of shed: queued past deadline_us
  uint64_t evicted = 0;        // subset of shed: displaced by priority
  // Condition-variable notifications issued by the admission path; the
  // thundering-herd regression gate asserts this stays ~1 per submission
  // (the old broadcast design woke every waiter per queue transition).
  uint64_t wakeups = 0;
  int active = 0;
  size_t queued = 0;
  // queued + active, and its high-water mark over the service lifetime:
  // how many submissions were in flight inside the service at once.
  int inflight = 0;
  int peak_inflight = 0;
  // blusim_serve_queue_depth as read under the same lock as `queued`; the
  // gauge-consistency tests assert the two never diverge.
  int64_t queue_depth_gauge = 0;
};

// Point-in-time per-tenant accounting (weights, admission counts, budgets).
struct TenantStats {
  std::string tenant;
  double weight = 1.0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  size_t queued = 0;
  // Simulated execution time consumed by this tenant's completed queries
  // (microseconds): the device-share numerator for fairness reports.
  uint64_t busy_us = 0;
  uint64_t device_budget_bytes = 0;
  uint64_t pinned_budget_bytes = 0;
};

class QueryService;

// A pending asynchronous submission: a future for the result plus enough
// identity to cancel the ticket while it is still queued. Movable,
// single-owner; Get()/future().get() may be called once.
class QueryHandle {
 public:
  QueryHandle() = default;
  QueryHandle(QueryHandle&&) = default;
  QueryHandle& operator=(QueryHandle&&) = default;
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  bool valid() const { return future_.valid(); }
  uint64_t ticket() const { return ticket_; }
  const std::string& tenant() const { return tenant_; }

  // Blocks until the query resolves and returns its result (kOverloaded
  // when it was shed, cancelled or evicted).
  Result<core::QueryResult> Get() { return future_.get(); }
  std::future<Result<core::QueryResult>>& future() { return future_; }

  // Removes the submission from its admission queue if it is still
  // queued: the future resolves kOverloaded and the submission counts as
  // shed. Returns false when the ticket was already picked up (the query
  // runs to completion and the future carries its real result).
  bool CancelIfQueued();

 private:
  friend class QueryService;
  QueryService* service_ = nullptr;
  uint64_t ticket_ = 0;
  std::string tenant_;
  std::future<Result<core::QueryResult>> future_;
};

// Serves concurrent queries over one shared Engine: per-tenant admission
// queues drained by a pool of max_concurrent executor threads, weighted
// fair scheduling across tenants (stride over tenant weights), priority
// eviction and deadline shedding on full queues, per-query device/pinned
// budgets, and deadline-bounded GPU placement with CPU degradation. Once
// admitted a query never fails for resource reasons -- a query that cannot
// get the GPU in time completes on the CPU instead of erroring.
//
// SubmitAsync enqueues and returns immediately with a future/handle, so a
// single client thread can keep hundreds of queries in flight; the
// blocking Submit is a thin wrapper (SubmitAsync + wait, with the legacy
// admission_timeout_us behavior).
//
// Every outcome feeds the serving observability layer: end-to-end
// latencies land in per-(class, mode, tenant) sliding windows
// (obs::SloTracker), anomalous queries are pinned into the flight
// recorder with their full trace, and healthy traffic is trace-sampled.
class QueryService {
 public:
  QueryService(core::Engine* engine, ServiceOptions options);
  // Sheds everything still queued (futures resolve kOverloaded), then
  // joins the executor pool; in-flight queries run to completion.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Enqueues the query under `tenant`'s admission queue ("" maps to the
  // reserved kNoTenant label) and returns a handle immediately. Never
  // blocks on execution; if the queue is full (and the submission evicts
  // nothing) the handle's future is already resolved kOverloaded.
  QueryHandle SubmitAsync(const core::QuerySpec& query,
                          const std::string& tenant,
                          SubmitOptions opts = SubmitOptions()) EXCLUDES(mu_);

  // Blocks until admitted and executed, and returns the result.
  // kOverloaded when the admission queue was full or the queue wait
  // exceeded admission_timeout_us; any other error is the query's own.
  // `tenant` labels the submitting stream/tenant in the SLO windows and
  // the flight recorder ("" = the reserved kNoTenant label).
  Result<core::QueryResult> Submit(const core::QuerySpec& query,
                                   const std::string& tenant) EXCLUDES(mu_);
  Result<core::QueryResult> Submit(const core::QuerySpec& query)
      EXCLUDES(mu_) {
    return Submit(query, std::string());
  }

  // Drain control: while paused, submissions queue but nothing is picked
  // up (shedding rules still apply to arrivals). Resume wakes the pool.
  void PauseAdmission() EXCLUDES(mu_);
  void ResumeAdmission() EXCLUDES(mu_);

  ServiceStats stats() const EXCLUDES(mu_);
  // Per-tenant accounting, sorted by tenant name.
  std::vector<TenantStats> tenant_stats() const EXCLUDES(mu_);

  // Serving-side observability surfaces.
  obs::SloTracker& slo() { return *slo_; }
  const obs::SloTracker& slo() const { return *slo_; }
  obs::FlightRecorder& flight_recorder() { return *flight_; }
  const obs::FlightRecorder& flight_recorder() const { return *flight_; }

  // Engine registry snapshot merged with the SLO window samples
  // (blusim_slo_*, blusim_latency_window_*), sorted for the exporters --
  // what /metrics and /snapshot serve.
  std::vector<obs::MetricSample> CollectSamples() const;

  // The effective per-query limits after fair-share derivation (the
  // weight-1.0 base; tenant_stats() reports the weighted values).
  uint64_t device_budget_bytes() const { return exec_opts_.device_budget_bytes; }
  uint64_t pinned_budget_bytes() const { return exec_opts_.pinned_budget_bytes; }
  SimTime gpu_deadline() const { return exec_opts_.wait.deadline; }

 private:
  friend class QueryHandle;

  struct Tenant;

  // One queued submission. The promise is resolved exactly once, after
  // all accounting, so stats()/windows are consistent by the time the
  // caller's future is ready.
  struct Ticket {
    uint64_t id = 0;
    core::QuerySpec query;
    std::string tenant;
    const char* qclass = "";
    int priority = 0;
    int64_t deadline_us = 0;
    WallTimer enqueued;  // started at submission
    std::chrono::steady_clock::time_point deadline;  // valid iff deadline_us
    std::promise<Result<core::QueryResult>> promise;
    std::function<void(const Result<core::QueryResult>&)> on_complete;
    Tenant* owner = nullptr;
  };

  // Per-tenant admission state. Entries are created on first submission
  // (or from tenant_classes) and never erased, so Tenant* stays stable.
  struct Tenant {
    std::string name;
    double weight = 1.0;
    // Stride-scheduling virtual time: the backlogged tenant with the
    // lowest vtime is served next; each admission advances it by
    // 1/weight, so admission counts track weights under saturation.
    double vtime = 0.0;
    // Sorted by priority (descending), FIFO within a priority.
    std::deque<std::unique_ptr<Ticket>> queue;
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t busy_us = 0;
    // Weight-scaled budgets (base fair share x weight, clamped).
    core::ExecOptions exec_opts;
    obs::Gauge* queue_gauge = nullptr;
    obs::Counter* admitted_total = nullptr;
    obs::Counter* busy_us_total = nullptr;
  };

  // A shed resolved outside the service mutex: the SLO/flight recording,
  // the completion callback and the promise must not run under mu_.
  struct ShedOutcome {
    std::unique_ptr<Ticket> ticket;
    const char* reason = "";
    std::string message;
    size_t queued = 0;
    int active = 0;
  };

  // Looks up (creating on first use) the tenant state for `name`.
  Tenant* GetTenantLocked(const std::string& name) REQUIRES(mu_);

  // Sheds expired-deadline queue heads into `sheds`, then pops the next
  // ticket from the backlogged tenant with the lowest vtime (null when
  // every queue is empty). Advances the stride clock on a pick.
  std::unique_ptr<Ticket> PickNextLocked(std::vector<ShedOutcome>* sheds)
      REQUIRES(mu_);

  // Accounts a shed under mu_ (stats, counters, gauges); the caller moves
  // the ticket into a ShedOutcome and completes it outside the lock.
  void AccountShedLocked(Tenant* tenant) REQUIRES(mu_);

  // Records the shed (SLO + flight recorder), then resolves callback and
  // promise. Must be called without mu_ held.
  void CompleteShed(ShedOutcome shed) EXCLUDES(mu_);

  // Removes ticket `id` from `tenant`'s queue if still queued and sheds
  // it with `reason`/`message`. False when already picked (or unknown).
  bool CancelTicket(const std::string& tenant, uint64_t id,
                    const char* reason, std::string message) EXCLUDES(mu_);

  // Executor-pool body: waits for work, picks, executes, accounts.
  void ExecutorLoop() EXCLUDES(mu_);

  // Runs one admitted ticket on the engine and resolves it (accounting,
  // SLO window, flight record, callback, promise -- in that order).
  void ExecuteTicket(std::unique_ptr<Ticket> ticket) EXCLUDES(mu_);

  void UpdateQueueGaugesLocked(Tenant* tenant) REQUIRES(mu_);
  void UpdateInflightLocked() REQUIRES(mu_);

  // Terminal outcomes, the `outcome` label of blusim_serve_queries_total.
  enum class Outcome : uint8_t { kCompleted, kDegraded, kShed, kFailed };
  static constexpr std::array<const char*, 4> kOutcomeNames = {
      "completed", "degraded", "shed", "failed"};

  // Counts a terminal outcome of a query of class `qclass`
  // (core::QueryShapeName) under blusim_serve_queries_total.
  void CountOutcome(const char* qclass, Outcome outcome);

  core::Engine* engine_;
  ServiceOptions options_;
  // Base (weight-1.0) budgets + wait policy; per-tenant exec_opts scale
  // from this and admission_wait is stamped per query.
  core::ExecOptions exec_opts_;
  // Weight-scaling ceilings: one device's memory and the whole pinned
  // pool (0 = no clamp). A heavy tenant's budget cannot exceed these.
  uint64_t device_budget_clamp_ = 0;
  uint64_t pinned_budget_clamp_ = 0;

  std::unique_ptr<obs::SloTracker> slo_;
  std::unique_ptr<obs::FlightRecorder> flight_;

  mutable common::Mutex mu_{"serve.QueryService.mu",
                            common::LockRank::kServe};
  // Targeted wakeups: one notify_one per new ticket (an idle executor
  // picks it up); notify_all only for resume/shutdown. Executors re-check
  // the queues after finishing a query, so completions need no signal.
  std::condition_variable_any cv_work_;
  uint64_t next_ticket_ GUARDED_BY(mu_) = 1;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_ GUARDED_BY(mu_);
  size_t total_queued_ GUARDED_BY(mu_) = 0;
  int executing_ GUARDED_BY(mu_) = 0;
  // Stride clock: max vtime any admission has reached; newly backlogged
  // tenants start here so idle time earns no credit.
  double global_vtime_ GUARDED_BY(mu_) = 0.0;
  bool paused_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
  ServiceStats stats_ GUARDED_BY(mu_);

  // Engine-registry instruments.
  obs::Counter* admitted_total_;
  obs::Counter* shed_total_;
  obs::Counter* degraded_total_;
  obs::Counter* deadline_shed_total_;
  obs::Counter* evicted_total_;
  obs::Counter* wakeups_total_;
  obs::Gauge* active_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* inflight_gauge_;
  obs::Histogram* admission_wait_us_;
  // blusim_serve_queries_total by query shape class and Outcome.
  std::map<std::string_view, std::array<obs::Counter*, kOutcomeNames.size()>>
      queries_total_;

  // Declared last: the executors touch every member above.
  std::vector<common::Thread> executors_;
};

}  // namespace blusim::serve

#endif  // BLUSIM_SERVE_QUERY_SERVICE_H_
