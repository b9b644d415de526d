#ifndef BLUSIM_CORE_ENGINE_H_
#define BLUSIM_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "columnar/table.h"
#include "common/annotations.h"
#include "common/status.h"
#include "core/profile.h"
#include "core/query.h"
#include "core/router.h"
#include "gpusim/cost_model.h"
#include "gpusim/device_check.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "groupby/gpu_groupby.h"
#include "groupby/moderator.h"
#include "groupby/partitioned.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/group_result.h"
#include "runtime/thread_pool.h"
#include "sched/gpu_scheduler.h"

namespace blusim::core {

// Engine construction parameters. Defaults model the paper's testbed: an
// IBM Power S824 host with two Tesla K40 devices.
struct EngineConfig {
  gpusim::HostSpec host;
  gpusim::DeviceSpec device_spec;
  int num_devices = 2;
  // Heterogeneous fleet: when non-empty, one device is built per entry
  // (overriding device_spec and num_devices). Lets one engine shard a
  // query across mixed hardware generations (gpusim::K40Spec / HbmSpec /
  // NvlinkSpec).
  std::vector<gpusim::DeviceSpec> device_specs;
  // Host worker threads simulating each device's SMXs (execution fidelity
  // only; modeled kernel times come from the cost model).
  int device_workers = 2;
  // Size of the engine's CPU worker pool (0 = hardware concurrency).
  int cpu_threads = 0;
  // Modeled DB2 degree of parallelism charged to CPU operator phases.
  int query_dop = 24;
  // Single pre-registered pinned segment (section 2.1.2).
  uint64_t pinned_pool_bytes = 256ULL << 20;
  // Master switch: false = baseline DB2 BLU (no GPU anywhere).
  bool gpu_enabled = true;
  // Data-path fusion master switch (--no-fusion): when true, a GPU-routed
  // group-by without joins defers its FilterScan so the staging sweep can
  // fold predicate evaluation, key encoding and validity expansion into
  // one pass over the pinned write, and the kernels consume the compact
  // record stream. false reproduces the unfused SoA pipeline everywhere.
  bool enable_fusion = true;
  // Enables the partitioned multi-device path for inputs above T3
  // (section 2.2) and the router's partitioned upgrade inside the
  // T2 < n < T3 band when the cost model predicts concurrent CPU+GPU
  // execution beats one device. false reproduces the paper's prototype,
  // which ran oversize queries on the CPU.
  bool enable_partitioned_gpu = false;
  // CPU row share for partitioned executions: negative = the group-by
  // price chooses (groupby::ChooseCpuSplit), otherwise forced.
  double partitioned_cpu_split = -1.0;
  RouterThresholds thresholds;
  groupby::GpuGroupByOptions groupby_options;
  // Sort jobs below this row count stay on the CPU.
  uint32_t sort_min_gpu_rows = 65536;
  // CPU worker threads draining the hybrid sort's job queue.
  int sort_workers = 2;
  // Simulated device-memory checker (redzones, quarantine, per-query
  // ownership; see gpusim/device_check.h): -1 = auto (on in Debug builds
  // or when BLUSIM_CHECK_DEVICE=1), 0 = off, 1 = on.
  int check_device = -1;
};

// A query's result table plus its execution profile.
struct QueryResult {
  std::shared_ptr<columnar::Table> table;
  QueryProfile profile;
};

// Per-execution controls supplied by the serving layer (serve/QueryService).
// Defaults reproduce the unconstrained single-query behavior.
struct ExecOptions {
  // Per-query device-memory budget (0 = unlimited): a GPU placement whose
  // up-front reservation estimate exceeds the budget re-routes to the CPU
  // chain instead of competing for device memory it was not granted. The
  // same estimate gates the pinned staging budget -- staging buffers are
  // bounded by the device footprint they feed.
  uint64_t device_budget_bytes = 0;
  uint64_t pinned_budget_bytes = 0;
  // Reservation wait policy for GPU placements: deadline, backoff, jitter.
  sched::WaitOptions wait;
  // Simulated time this query spent queued for admission before Execute;
  // recorded as a wait phase so traces show end-to-end latency.
  SimTime admission_wait = 0;
};

// Materializes the given rows (in order) of `table` into a new table,
// keeping only `projection` columns (empty = all).
Result<std::shared_ptr<columnar::Table>> MaterializeRows(
    const columnar::Table& table, const std::vector<uint32_t>& rows,
    const std::vector<int>& projection);

// ORDER BY over a group result, with the query's LIMIT (0 = none): only
// the sort-key columns are materialized, the CPU sort selects the LIMIT's
// head before sorting it (HybridSorter::Sort), and the group positions of
// the rows the query keeps come back in order.
Result<std::vector<uint32_t>> OrderGroups(
    const runtime::GroupByPlan& plan, const runtime::GroupPieces& groups,
    const std::vector<sort::SortKey>& order_by, uint64_t limit,
    runtime::ThreadPool* pool);

// The hybrid CPU/GPU analytic engine: BLU-style columnar operators with
// group-by/aggregation and sort offloaded to simulated GPUs when the
// figure-3 router decides the device pays off. Thread-safe for concurrent
// Execute() calls (the multi-user experiments run many streams).
class Engine {
 public:
  explicit Engine(EngineConfig config);
  // Logs the device checker's final report (leaks and any remaining
  // quarantine damage) before the components tear down.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  const gpusim::CostModel& cost_model() const { return cost_; }
  sched::GpuScheduler& scheduler() { return scheduler_; }
  runtime::ThreadPool& pool() { return pool_; }
  gpusim::PinnedHostPool& pinned_pool() { return pinned_; }
  groupby::GpuModerator& moderator() { return moderator_; }
  // Engine-wide instrument registry: scheduler, pinned pool, thread pool,
  // router and moderator counters all live here. Snapshot it for the
  // Prometheus/JSON exporters.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // The simulated compute-sanitizer wired into every device's memory
  // manager and the pinned pool (may be disabled; check enabled()).
  gpusim::DeviceChecker& device_checker() { return *checker_; }
  const gpusim::DeviceChecker& device_checker() const { return *checker_; }

  // One-time startup cost of registering the pinned segment with the
  // devices (simulated; section 2.1.2 motivates paying it once).
  SimTime startup_registration_time() const;

  Status RegisterTable(const std::string& name,
                       std::shared_ptr<columnar::Table> table);
  Result<std::shared_ptr<columnar::Table>> GetTable(
      const std::string& name) const;

  // Executes a query; the profile records every resource phase and which
  // paths (CPU/GPU) the group-by and sort took. Re-entrant: concurrent
  // calls share the scheduler, pinned pool and worker pool, and `opts`
  // carries the caller's per-query budgets and wait policy.
  Result<QueryResult> Execute(const QuerySpec& query,
                              const ExecOptions& opts = ExecOptions());

 private:
  // A group-by's result as it leaves the group-by: the compiled plan and
  // its groups as pieces, unmaterialized (runtime/group_result.h).
  struct GroupResult {
    runtime::GroupByPlan plan;
    runtime::GroupPieces groups;
  };

  // `selection` == nullptr means the caller deferred the fact FilterScan
  // (data-path fusion): the group-by either folds the predicates into the
  // fused staging sweep, or materializes the selection itself (recording
  // the scan phase) before any path that needs explicit row ids. Returns
  // the groups, lazy: ORDER BY and LIMIT run on them, and only the rows the
  // query returns are materialized. The profile records path, phases and
  // device use.
  Result<GroupResult> RunGroupBy(
      const QuerySpec& query, const columnar::Table& fact,
      const std::vector<uint32_t>* selection, const ExecOptions& opts,
      QueryProfile* profile, obs::TraceBuilder* trace);

  // The router's partitioned upgrade (T2 < n < T3): the group-by price
  // (groupby/price.h) of the hash-partitioned run beats both the
  // one-partition run and the CPU chain by >= 10%. A deferred scan is
  // charged to every candidate but a one-partition run that folds it
  // into its staging (`fold_scan`). `plan` has no stage filter.
  bool PartitionedUpgradeWins(runtime::GroupByPlan* plan,
                              const columnar::Table& fact,
                              const QuerySpec& query,
                              const groupby::GpuGroupByOptions& gpu,
                              const OptimizerEstimates& estimates,
                              bool deferred, bool fold_scan);

  // Records a device group-by from the driver's stats: a one-partition
  // run's reservation wait (also when the run failed), then on success the
  // phases, spans, annotations and counters of the fan-out that ran.
  // `wall_us` is the driver call's host wall time.
  void RecordDeviceGroupBy(const groupby::PartitionedStats& stats,
                           const Result<runtime::GroupPieces>& out,
                           int64_t wall_us, QueryProfile* profile,
                           obs::TraceBuilder* trace);

  // FilterScan over the fact table, recorded as the query's scan phase.
  Result<std::vector<uint32_t>> ScanFact(
      const columnar::Table& fact,
      const std::vector<runtime::Predicate>& filters, QueryProfile* profile,
      obs::TraceBuilder* trace);

  // Appends `phase` to the profile, stamps its serial elapsed time and
  // mirrors it as one span in the query trace, whose args lead with the
  // phase's two clocks (`sim_us`, `wall_us`) before `args`.
  void RecordPhase(PhaseRecord phase, const char* category,
                   QueryProfile* profile, obs::TraceBuilder* trace,
                   std::vector<std::pair<std::string, std::string>> args = {});

  // Every counter and histogram the engine updates per query, resolved
  // once at construction so no query takes the registry mutex
  // (obs/metrics.h). Every label set is finite, so each series exists, at
  // zero, from construction.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry* metrics);

    obs::Counter* router_groupby[3] = {};  // by ExecutionPath
    obs::Counter* groupby_fallbacks = nullptr;
    obs::Counter* budget_capped = nullptr;
    // Per group-by kernel: executions and the work the kernels reported.
    struct KernelCounters {
      obs::Counter* runs = nullptr;
      obs::Counter* probes = nullptr;
      obs::Counter* cas_failures = nullptr;
      obs::Counter* lock_spins = nullptr;
    };
    KernelCounters kernel[3][2] = {};  // by GroupByKernelKind - 1, fused
    obs::Counter* bytes_h2d = nullptr;
    obs::Counter* bytes_d2h = nullptr;
    obs::Counter* bytes_staged_avoided = nullptr;
    obs::Counter* partitioned_queries = nullptr;
    obs::Counter* partitioned_chunks[2] = {};  // by side: gpu, cpu
    obs::Counter* partitioned_rows[2] = {};
    obs::Counter* partitioned_gpu_fallbacks = nullptr;
    obs::Histogram* partitioned_cpu_split = nullptr;
    obs::Counter* queries[2] = {};  // by gpu_used
    obs::Counter* queries_degraded = nullptr;
    // Hybrid-sort jobs by draining side (cpu, gpu), GPU-eligible jobs that
    // ran on the CPU, and jobs served from a cached staging buffer; added
    // from each sort's HybridSortStats.
    obs::Counter* sort_jobs[2] = {};  // by side: gpu, cpu
    obs::Counter* sort_gpu_fallbacks = nullptr;
    obs::Counter* sort_staging_reuses = nullptr;
    // By QueryShapeName.
    std::map<std::string_view, obs::Histogram*> query_elapsed;
  };

  EngineConfig config_;
  gpusim::CostModel cost_;
  // Declared before the components so they can register instruments.
  obs::MetricsRegistry metrics_;
  const Instruments instruments_;
  // Declared before the devices/pinned pool it is attached to, so it
  // outlives every allocation it tracks.
  std::unique_ptr<gpusim::DeviceChecker> checker_;
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices_;
  sched::GpuScheduler scheduler_;
  gpusim::PinnedHostPool pinned_;
  runtime::ThreadPool pool_;
  groupby::GpuModerator moderator_;
  std::atomic<uint64_t> next_query_id_{1};

  mutable common::Mutex tables_mu_{"core.Engine.tables_mu",
                                   common::LockRank::kCore};
  std::map<std::string, std::shared_ptr<columnar::Table>> tables_
      GUARDED_BY(tables_mu_);
};

}  // namespace blusim::core

#endif  // BLUSIM_CORE_ENGINE_H_
