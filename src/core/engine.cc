#include "core/engine.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/heap.h"
#include "common/kmv.h"
#include "common/logging.h"
#include "common/wall_timer.h"
#include "groupby/price.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"
#include "runtime/partition_sweep.h"
#include "sort/gpu_sort.h"
#include "sort/hybrid_sort.h"

namespace blusim::core {

using columnar::Column;
using columnar::Table;
using runtime::GroupByPlan;
using runtime::Predicate;

namespace {

std::vector<std::unique_ptr<gpusim::SimDevice>> MakeDevices(
    const EngineConfig& config) {
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices;
  if (!config.gpu_enabled) return devices;
  // device_specs (heterogeneous fleet) overrides the homogeneous pair.
  const int n = config.device_specs.empty()
                    ? config.num_devices
                    : static_cast<int>(config.device_specs.size());
  for (int i = 0; i < n; ++i) {
    const gpusim::DeviceSpec& spec =
        config.device_specs.empty()
            ? config.device_spec
            : config.device_specs[static_cast<size_t>(i)];
    devices.push_back(std::make_unique<gpusim::SimDevice>(
        i, spec, config.host, config.device_workers));
  }
  return devices;
}

// The spec the engine-wide cost model calibrates against: first of the
// heterogeneous fleet, or the homogeneous spec.
const gpusim::DeviceSpec& PrimarySpec(const EngineConfig& config) {
  return config.device_specs.empty() ? config.device_spec
                                     : config.device_specs.front();
}

std::vector<gpusim::SimDevice*> DevicePointers(
    const std::vector<std::unique_ptr<gpusim::SimDevice>>& devices) {
  std::vector<gpusim::SimDevice*> out;
  out.reserve(devices.size());
  for (const auto& d : devices) out.push_back(d.get());
  return out;
}

// Bytes per row touched by a filter scan (sum of predicate column widths,
// at least 4).
int ScanWidth(const Table& table, const std::vector<Predicate>& predicates) {
  int width = 0;
  for (const Predicate& p : predicates) {
    const int w =
        columnar::DataTypeWidth(table.schema().field(
            static_cast<size_t>(p.column)).type);
    width += w == 0 ? 16 : w;
  }
  return std::max(width, 4);
}

// A host phase: `cpu_work` serial simulated microseconds run at `dop`,
// which took `wall_us` of host wall time.
PhaseRecord CpuPhase(std::string label, SimTime cpu_work, int dop,
                     int64_t wall_us) {
  PhaseRecord phase;
  phase.kind = PhaseRecord::Kind::kCpu;
  phase.label = std::move(label);
  phase.cpu_work = cpu_work;
  phase.dop = dop;
  phase.wall_us = wall_us;
  return phase;
}

// A device chunk's job: transfers, table init and kernel, plus `waited`
// (the chunk's reservation wait, when its phase carries it).
PhaseRecord DevicePhase(std::string label,
                        const groupby::PartitionChunkStats& chunk,
                        SimTime waited) {
  PhaseRecord phase;
  phase.kind = PhaseRecord::Kind::kGpu;
  phase.label = std::move(label);
  phase.device_time = waited + chunk.gpu.total() - chunk.gpu.stage_time;
  phase.device_mem = chunk.gpu.device_bytes_reserved;
  phase.device_id = chunk.device_id;
  phase.bytes_moved = chunk.gpu.bytes_in + chunk.gpu.bytes_out;  // PCIe
  phase.kernel_probes = chunk.gpu.work.probes;
  phase.kernel_rows = chunk.gpu.rows_staged;
  return phase;
}

// The kernel work counts of a device chunk, as span args.
std::vector<std::pair<std::string, std::string>> KernelWorkArgs(
    const groupby::KernelWork& work) {
  return {{"probes", std::to_string(work.probes)},
          {"cas_failures", std::to_string(work.cas_failures)},
          {"lock_spins", std::to_string(work.lock_spins)}};
}

// A reservation beyond the query's granted share of device or pinned
// memory (serving-layer budgets; 0 = unlimited).
bool OverBudget(uint64_t bytes, const ExecOptions& opts) {
  return (opts.device_budget_bytes > 0 && bytes > opts.device_budget_bytes) ||
         (opts.pinned_budget_bytes > 0 && bytes > opts.pinned_budget_bytes);
}

// Index of each `side` label value in the partitioned-path instruments.
constexpr int kGpuSide = 0;
constexpr int kCpuSide = 1;

// Routing estimates without a materialized selection (deferred-scan
// fusion): a strided sample of the fact table yields the predicate pass
// ratio and a sampled-KMV distinct count, scaled up when the sampled keys
// look near-unique (unbounded domain) and taken as-is otherwise.
OptimizerEstimates SampleEstimates(const GroupByPlan& plan, const Table& fact,
                                   const std::vector<Predicate>& filters) {
  OptimizerEstimates est;
  const uint64_t n = fact.num_rows();
  if (n == 0) return est;
  // Sample size scales with the table: a fixed 4096-row sample cannot
  // tell a 64k-group domain from a unique key (every sampled key looks
  // distinct either way), and the near-unique scale-up below would then
  // inflate the estimate by the sampling ratio -- which mis-routes the
  // partitioned upgrade for exactly the T2 < n < T3 inputs it exists for.
  const uint64_t target =
      std::min<uint64_t>(n, std::max<uint64_t>(4096, n / 64));
  const uint64_t step = std::max<uint64_t>(1, n / target);
  std::vector<uint32_t> sampled;
  sampled.reserve(n / step + 1);
  for (uint64_t row = 0; row < n; row += step) {
    sampled.push_back(static_cast<uint32_t>(row));
  }
  const uint64_t examined = sampled.size();
  std::vector<uint32_t> passing;
  runtime::SelectRows(fact, filters, sampled.data(),
                      runtime::MorselRange{0, examined}, &passing);
  const uint64_t passed = passing.size();
  std::vector<uint64_t> hashes(passed);
  plan.HashKeys(passing.data(), runtime::MorselRange{0, passed},
                hashes.data());
  KmvSketch sketch(512);
  sketch.AddHashes(hashes.data(), passed);
  est.rows = examined > 0 ? n * passed / examined : n;
  const uint64_t distinct = std::max<uint64_t>(1, sketch.Estimate());
  // Near-unique sampled keys mean the distinct count grows with the input
  // (scale the sampled ratio up); a saturated/bounded key domain shows
  // repeats in the sample and the sketch estimate stands on its own.
  if (passed > 0 && distinct * 4 >= passed * 3) {
    est.groups = std::max<uint64_t>(
        1, est.rows * distinct / std::max<uint64_t>(1, passed));
  } else {
    est.groups = distinct;
  }
  return est;
}

}  // namespace

Result<std::shared_ptr<Table>> MaterializeRows(
    const Table& table, const std::vector<uint32_t>& rows,
    const std::vector<int>& projection) {
  std::vector<int> cols = projection;
  if (cols.empty()) {
    cols.resize(table.num_columns());
    std::iota(cols.begin(), cols.end(), 0);
  }
  columnar::Schema schema;
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= table.num_columns()) {
      return Status::InvalidArgument("bad projection column " +
                                     std::to_string(c));
    }
    schema.AddField(table.schema().field(static_cast<size_t>(c)));
  }
  auto out = std::make_shared<Table>(std::move(schema));
  out->Reserve(rows.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out->column(i).AppendRows(table.column(static_cast<size_t>(cols[i])),
                              rows.data(), rows.size());
  }
  return out;
}

Result<std::vector<uint32_t>> OrderGroups(
    const GroupByPlan& plan, const runtime::GroupPieces& groups,
    const std::vector<sort::SortKey>& order_by, uint64_t limit,
    runtime::ThreadPool* pool) {
  // The sort keys' result columns, each once, and the keys renumbered
  // over them.
  std::vector<int> columns;
  std::vector<sort::SortKey> keys;
  for (const sort::SortKey& k : order_by) {
    auto it = std::find(columns.begin(), columns.end(), k.column);
    if (it == columns.end()) it = columns.insert(columns.end(), k.column);
    keys.push_back({static_cast<int>(it - columns.begin()), k.ascending});
  }
  BLUSIM_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> sort_keys,
      runtime::MaterializeGroups(plan, groups, pool, /*positions=*/nullptr,
                                 columns));
  sort::HybridSortOptions options;
  options.num_workers = 1;
  options.pool = pool;
  return sort::HybridSorter::Sort(*sort_keys, std::move(keys), options,
                                  /*stats=*/nullptr, limit);
}

Engine::Instruments::Instruments(obs::MetricsRegistry* m) {
  for (const ExecutionPath path : {ExecutionPath::kCpu, ExecutionPath::kGpu,
                                   ExecutionPath::kPartitioned}) {
    router_groupby[static_cast<int>(path)] =
        m->GetCounter("blusim_router_groupby_total",
                      {{"path", ExecutionPathName(path)}},
                      "Group-by routing decisions by figure-3 outcome");
  }
  groupby_fallbacks = m->GetCounter(
      "blusim_router_groupby_fallbacks_total", {},
      "GPU-routed group-bys that fell back to the CPU chain");
  budget_capped = m->GetCounter(
      "blusim_router_budget_capped_total", {},
      "GPU placements re-routed to the CPU by per-query memory budgets");
  using gpusim::GroupByKernelKind;
  for (const GroupByKernelKind kind :
       {GroupByKernelKind::kRegular, GroupByKernelKind::kSharedMem,
        GroupByKernelKind::kRowLock}) {
    for (const bool fused : {false, true}) {
      const obs::LabelSet label = {
          {"kernel", fused ? gpusim::GroupByKernelKindFusedName(kind)
                           : gpusim::GroupByKernelKindName(kind)}};
      KernelCounters& k = kernel[static_cast<int>(kind) - 1][fused];
      k.runs = m->GetCounter("blusim_moderator_kernel_total", label,
                             "Group-by kernel executions by moderator choice");
      k.probes = m->GetCounter(
          "blusim_kernel_probes_total", label,
          "Hash-table slots the group-by kernels examined");
      k.cas_failures = m->GetCounter(
          "blusim_kernel_cas_failures_total", label,
          "Group-by key-claim CAS operations lost to a different key");
      k.lock_spins = m->GetCounter(
          "blusim_kernel_lock_spins_total", label,
          "Group-by device spin-lock CAS attempts (1 per uncontended "
          "acquisition)");
    }
  }
  bytes_h2d = m->GetCounter("blusim_bytes_h2d_total", {{"op", "groupby"}},
                            "Host-to-device bytes moved (true wire sizes)");
  bytes_d2h = m->GetCounter("blusim_bytes_d2h_total", {{"op", "groupby"}},
                            "Device-to-host bytes moved (true wire sizes)");
  bytes_staged_avoided = m->GetCounter(
      "blusim_bytes_staged_avoided_total", {{"op", "groupby"}},
      "Staged bytes data-path fusion avoided shipping versus SoA staging of "
      "the same survivor rows");
  partitioned_queries =
      m->GetCounter("blusim_partitioned_queries_total", {},
                    "Queries executed on the partitioned CPU+GPU path");
  for (const int side : {kGpuSide, kCpuSide}) {
    const char* name = side == kGpuSide ? "gpu" : "cpu";
    partitioned_chunks[side] =
        m->GetCounter("blusim_partitioned_chunks_total", {{"side", name}},
                      "Partition chunks by executing side");
    partitioned_rows[side] =
        m->GetCounter("blusim_partitioned_rows_total", {{"side", name}},
                      "Partitioned group-by input rows by executing side");
  }
  partitioned_gpu_fallbacks = m->GetCounter(
      "blusim_partitioned_gpu_fallbacks_total", {},
      "Partition chunks whose device attempt retried on the CPU lane");
  partitioned_cpu_split = m->GetHistogram(
      "blusim_partitioned_cpu_split_percent", {},
      "Target CPU row share per partitioned query (percent)");
  for (const bool gpu : {false, true}) {
    queries[gpu] =
        m->GetCounter("blusim_queries_total", {{"gpu", gpu ? "true" : "false"}},
                      "Queries executed, by whether any phase used a device");
  }
  queries_degraded = m->GetCounter(
      "blusim_queries_degraded_total", {},
      "Queries that re-routed a GPU-routed phase to the CPU after routing "
      "(budget, denial, or device failure)");
  for (const int side : {kGpuSide, kCpuSide}) {
    sort_jobs[side] = m->GetCounter(
        "blusim_sort_jobs_total", {{"path", side == kGpuSide ? "gpu" : "cpu"}},
        "Hybrid-sort jobs drained from the queue by path");
  }
  sort_gpu_fallbacks = m->GetCounter(
      "blusim_sort_gpu_fallbacks_total", {},
      "GPU-eligible sort jobs that ran on the CPU instead");
  sort_staging_reuses = m->GetCounter(
      "blusim_sort_staging_reuses_total", {},
      "GPU sort jobs served from a worker's cached pinned staging buffer");
  for (const char* shape : kQueryShapeNames) {
    query_elapsed[shape] = m->GetHistogram(
        "blusim_query_elapsed_us", {{"class", shape}},
        "Serial elapsed time per query (simulated microseconds), by query "
        "shape class");
  }
}

Engine::Engine(EngineConfig config)
    : config_(config),
      cost_(config.host, PrimarySpec(config)),
      instruments_(&metrics_),
      checker_(std::make_unique<gpusim::DeviceChecker>(
          config.check_device < 0 ? gpusim::DeviceChecker::EnabledByDefault()
                                  : config.check_device != 0)),
      devices_(MakeDevices(config)),
      scheduler_(DevicePointers(devices_), &metrics_),
      pinned_(config.pinned_pool_bytes, &metrics_),
      pool_(config.cpu_threads, &metrics_) {
  // Queries' freed working sets stay mapped for the next (common/heap.h).
  KeepFreedHeapMapped();
  for (auto& device : devices_) {
    device->memory().AttachChecker(checker_.get());
  }
  pinned_.AttachChecker(checker_.get());
}

Engine::~Engine() {
  if (!checker_->enabled()) return;
  const std::vector<gpusim::DeviceIssue> issues = checker_->FinalReport();
  if (!issues.empty()) {
    BLUSIM_LOG(Warning) << "[device-check] engine shutdown: "
                        << issues.size() << " issue(s) recorded (see log)";
  }
}

void Engine::RecordPhase(
    PhaseRecord phase, const char* category, QueryProfile* profile,
    obs::TraceBuilder* trace,
    std::vector<std::pair<std::string, std::string>> args) {
  phase.elapsed = phase.IdleElapsed(cost_.HostParallelFactor(phase.dop));
  if (trace != nullptr) {
    args.insert(args.begin(),
                {{"sim_us", std::to_string(phase.elapsed)},
                 {"wall_us", std::to_string(phase.wall_us)}});
    trace->AddPhase(phase.label, category, phase.elapsed, phase.device_id,
                    std::move(args));
  }
  profile->phases.push_back(std::move(phase));
}

Result<std::vector<uint32_t>> Engine::ScanFact(
    const Table& fact, const std::vector<Predicate>& filters,
    QueryProfile* profile, obs::TraceBuilder* trace) {
  const WallTimer timer;
  BLUSIM_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                          runtime::FilterScan(fact, filters, &pool_));
  RecordPhase(CpuPhase("scan",
                       cost_.HostScanTime(fact.num_rows(),
                                          ScanWidth(fact, filters), 1),
                       config_.query_dop, timer.ElapsedUs()),
              obs::kCatCpu, profile, trace);
  return rows;
}

SimTime Engine::startup_registration_time() const {
  if (devices_.empty()) return 0;
  return cost_.HostRegistrationTime(config_.pinned_pool_bytes);
}

Status Engine::RegisterTable(const std::string& name,
                             std::shared_ptr<Table> table) {
  BLUSIM_RETURN_NOT_OK(table->Validate());
  common::MutexLock lock(&tables_mu_);
  if (!tables_.emplace(name, std::move(table)).second) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> Engine::GetTable(
    const std::string& name) const {
  common::MutexLock lock(&tables_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  return it->second;
}

Result<Engine::GroupResult> Engine::RunGroupBy(
    const QuerySpec& query, const Table& fact,
    const std::vector<uint32_t>* selection, const ExecOptions& opts,
    QueryProfile* profile, obs::TraceBuilder* trace) {
  BLUSIM_ASSIGN_OR_RETURN(GroupByPlan plan,
                          GroupByPlan::Make(fact, *query.groupby));

  // Deferred-scan mode (data-path fusion): the caller skipped FilterScan
  // so the fused staging sweep can evaluate the predicates in-line with
  // the pinned write. Paths that need explicit row ids (CPU chain,
  // partitioned, SoA staging) materialize the selection here instead, and
  // record the scan phase the caller skipped.
  bool deferred = selection == nullptr;
  std::vector<uint32_t> scanned_rows;
  auto materialize_selection = [&]() -> Status {
    if (!deferred) return Status::OK();
    BLUSIM_ASSIGN_OR_RETURN(
        scanned_rows, ScanFact(fact, query.fact_filters, profile, trace));
    selection = &scanned_rows;
    deferred = false;
    plan.set_stage_filter({});
    return Status::OK();
  };

  OptimizerEstimates estimates;
  const WallTimer kmv_timer;
  if (deferred) {
    estimates = SampleEstimates(plan, fact, query.fact_filters);
  } else if (!selection->empty()) {
    // Full-pass KMV sketch over the grouping keys, the same estimate the
    // HASH evaluator produces for the GPU runtime (section 4.2). A sketch
    // cannot be fooled by bounded domains the way sample-extrapolation
    // can, and the pass is a tiny fraction of the query's work.
    estimates.rows = selection->size();
    estimates.groups = std::max<uint64_t>(
        1, runtime::CountDistinctKeys(plan, &pool_, selection, 512));
  }
  trace->Annotate("kmv_estimate", std::to_string(estimates.groups));
  trace->Annotate("kmv_wall_us", std::to_string(kmv_timer.ElapsedUs()));

  // Cap T3 by what actually fits on a device (inputs + table).
  RouterThresholds thresholds = config_.thresholds;
  const uint64_t per_row =
      static_cast<uint64_t>(8 + 4 + plan.payload_bytes_per_row() + 8);
  thresholds.t3_max_rows = std::min<uint64_t>(
      thresholds.t3_max_rows, scheduler_.min_device_memory() / per_row);

  groupby::PartitionedOptions popts;
  popts.gpu = config_.groupby_options;
  popts.gpu.allow_fusion = popts.gpu.allow_fusion && config_.enable_fusion;
  popts.gpu.estimated_rows = estimates.rows;
  popts.gpu.estimated_groups = estimates.groups;
  popts.wait = opts.wait;
  popts.cpu_split_fraction = config_.partitioned_cpu_split;
  popts.cpu_dop = config_.query_dop;
  ExecutionPath path =
      ChooseGroupByPath(estimates, thresholds, !devices_.empty());
  // Only a one-partition run on fused records folds a deferred scan into
  // its staging sweep; every other path needs explicit row ids.
  bool fold_scan = false;
  if (deferred && path == ExecutionPath::kGpu) {
    plan.set_stage_filter(query.fact_filters);
    fold_scan = groupby::GpuGroupBy::ChooseStageMode(
                    plan, cost_, popts.gpu, fact.num_rows(),
                    pool_.num_threads()) == groupby::StageMode::kFusedRecords;
    plan.set_stage_filter({});
  }
  if (path == ExecutionPath::kGpu && config_.enable_partitioned_gpu &&
      PartitionedUpgradeWins(&plan, fact, query, popts.gpu, estimates,
                             deferred, fold_scan)) {
    path = ExecutionPath::kPartitioned;
    trace->Annotate("partitioned_upgrade", "modeled");
  }
  profile->groupby_path = path;
  trace->Annotate("groupby_path", ExecutionPathName(path));
  instruments_.router_groupby[static_cast<int>(path)]->Add(1);

  // Device group-by: one driver. A GPU route is its one-partition case; a
  // partitioned route (upgrade, or an input beyond T3) hash-partitions.
  const bool one_partition = path == ExecutionPath::kGpu;
  if (one_partition || (path == ExecutionPath::kPartitioned &&
                        config_.enable_partitioned_gpu)) {
    if (one_partition && fold_scan) {
      plan.set_stage_filter(query.fact_filters);
    } else {
      BLUSIM_RETURN_NOT_OK(materialize_selection());
    }
    // Per-query budgets (serving layer): a one-partition reservation beyond
    // this query's granted share of device or pinned memory degrades to the
    // CPU chain up front instead of competing for memory it was not
    // allotted. Hash-partitioned chunks are sized to the devices instead.
    const bool over_budget =
        one_partition &&
        OverBudget(groupby::PartitionedGroupBy::OnePartitionBytesNeeded(
                       plan, cost_, popts.gpu,
                       deferred ? fact.num_rows() : selection->size(),
                       pool_.num_threads()),
                   opts);
    Status status;
    if (over_budget) {
      instruments_.budget_capped->Add(1);
      status =
          Status::CapacityExceeded("reservation exceeds the per-query budget");
    } else {
      groupby::PartitionedStats pstats;
      const WallTimer timer;
      auto out = groupby::PartitionedGroupBy::Execute(
          plan, &scheduler_, &pinned_, &pool_, selection,
          one_partition ? groupby::Fanout::kOnePartition
                        : groupby::Fanout::kHashPartitioned,
          popts, &pstats);
      RecordDeviceGroupBy(pstats, out, timer.ElapsedUs(), profile, trace);
      if (out.ok()) {
        profile->gpu_used =
            std::any_of(pstats.chunks.begin(), pstats.chunks.end(),
                        [](const auto& c) { return c.on_gpu; });
        if (!profile->gpu_used) profile->degraded = true;
        return GroupResult{std::move(plan), std::move(out).value()};
      }
      status = out.status();
    }
    // A budget cap or a device failure the host can absorb degrades to the
    // CPU chain; any other error is the query's.
    if (!status.IsRecoverableOnHost()) return status;
    profile->groupby_path = ExecutionPath::kCpu;
    profile->degraded = true;
    trace->Annotate("groupby_fallback", over_budget     ? "budget"
                                        : one_partition ? "cpu"
                                                        : "partitioned");
    instruments_.groupby_fallbacks->Add(1);
  }

  // CPU chain (baseline figure-1 path; also the fallback and the
  // "partitioned" case, which the prototype runs on the CPU).
  BLUSIM_RETURN_NOT_OK(materialize_selection());
  const WallTimer timer;
  runtime::CpuGroupByStats cpu_stats;
  BLUSIM_ASSIGN_OR_RETURN(
      runtime::GroupPieces groups,
      runtime::CpuGroupBy::ExecuteToFlat(plan, &pool_, selection,
                                         /*hash_partitions=*/1,
                                         estimates.groups, &cpu_stats));
  const uint64_t num_groups = runtime::NumGroups(groups);
  trace->Annotate("actual_groups", std::to_string(num_groups));

  RecordPhase(
      CpuPhase("groupby-cpu",
               groupby::CpuChainWork(cost_, selection->size(), num_groups,
                                     plan.slots().size()),
               config_.query_dop, timer.ElapsedUs()),
      obs::kCatCpu, profile, trace,
      {{"rows", std::to_string(selection->size())},
       {"groups", std::to_string(num_groups)},
       {"strategy", runtime::CpuGroupByStrategyName(cpu_stats.strategy)},
       {"partitions", std::to_string(cpu_stats.partitions)}});

  return GroupResult{std::move(plan), std::move(groups)};
}

bool Engine::PartitionedUpgradeWins(GroupByPlan* plan, const Table& fact,
                                    const QuerySpec& query,
                                    const groupby::GpuGroupByOptions& gpu,
                                    const OptimizerEstimates& estimates,
                                    bool deferred, bool fold_scan) {
  const groupby::PriceEnv env{
      pool_.num_threads(), config_.query_dop,
      static_cast<int>(devices_.size()),
      groupby::SharedKernelBudget(devices_.front()->spec())};
  // The shape Execute sees once the selection is explicit: every selected
  // row scanned and staged, in the stage mode it picks for them.
  const groupby::GroupByShape rows{
      estimates.rows, estimates.rows, estimates.groups,
      groupby::GpuGroupBy::ChooseStageMode(*plan, cost_, gpu, estimates.rows,
                                           env.pool_dop)};
  uint64_t max_rows = 0;
  const uint32_t partitions = groupby::PartitionedGroupBy::ChooseFanOut(
      *plan, rows.rows, rows.groups, scheduler_.min_device_memory(),
      env.num_devices, rows.mode, &max_rows);
  if (max_rows == 0) return false;
  const SimTime scan =
      deferred ? groupby::AtDop(cost_,
                                cost_.HostScanTime(
                                    fact.num_rows(),
                                    ScanWidth(fact, query.fact_filters), 1),
                                config_.query_dop)
               : 0;
  const double split =
      config_.partitioned_cpu_split >= 0.0
          ? std::clamp(config_.partitioned_cpu_split, 0.0, 1.0)
          : groupby::ChooseCpuSplit(cost_, *plan, rows, env, partitions);
  const SimTime t_part =
      scan + groupby::PricePartitioned(cost_, *plan, rows, env, partitions,
                                       split);
  SimTime t_single = scan + groupby::PriceOnePartition(cost_, *plan, rows, env);
  if (fold_scan) {
    plan->set_stage_filter(query.fact_filters);
    t_single = groupby::PriceOnePartition(
        cost_, *plan,
        {fact.num_rows(), estimates.rows, estimates.groups,
         groupby::StageMode::kFusedRecords},
        env);
    plan->set_stage_filter({});
  }
  const SimTime t_cpu =
      scan + groupby::CpuChainTime(cost_, estimates.rows, estimates.groups,
                                   plan->slots().size(), config_.query_dop);
  return t_part * 100 < std::min(t_single, t_cpu) * 90;
}

void Engine::RecordDeviceGroupBy(const groupby::PartitionedStats& stats,
                                 const Result<runtime::GroupPieces>& out,
                                 int64_t wall_us, QueryProfile* profile,
                                 obs::TraceBuilder* trace) {
  const bool partitioned = stats.num_partitions > 1;
  // Adds a device attempt's kernel work to its kernel's counters, failed
  // attempts included: a table too small to hold its groups probes the
  // longest before its overflow retries run out.
  auto count_work = [this](const groupby::GpuGroupByStats& g)
      -> const Instruments::KernelCounters& {
    const Instruments::KernelCounters& k =
        instruments_.kernel[static_cast<int>(g.kernel_used) - 1][g.fused];
    k.probes->Add(g.work.probes);
    k.cas_failures->Add(g.work.cas_failures);
    k.lock_spins->Add(g.work.lock_spins);
    return k;
  };
  if (!partitioned && !stats.chunks.empty() &&
      stats.chunks.front().wait_time > 0) {
    // A blocked agent holds its thread while polling for device memory,
    // so the wait is charged as a dop-1 phase (and shows up as a wait
    // span in the trace), whether or not the device run followed.
    RecordPhase(CpuPhase("reservation-wait", stats.chunks.front().wait_time, 1,
                         stats.chunks.front().wait_wall_us),
                obs::kCatWait, profile, trace);
  }
  if (!out.ok()) {
    if (!partitioned && !stats.chunks.empty()) {
      count_work(stats.chunks.front().gpu);
    }
    return;
  }

  if (partitioned) {
    // The partition sweep and the device chunks' host staging are pool
    // work charged at query dop. The CPU and device lanes run
    // concurrently, so one umbrella phase carries max(CPU lane, slowest
    // device lane) and the per-chunk phases are recorded `overlapped` --
    // visible in ExplainAnalyze for attribution but excluded from elapsed
    // sums and the concurrency replay.
    RecordPhase(CpuPhase("groupby-partition-plan", stats.partition_time,
                         config_.query_dop, stats.partition_wall_us),
                obs::kCatCpu, profile, trace);
  }
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_avoided = 0;
  uint64_t gpu_chunks = 0;
  uint64_t fallbacks = 0;
  groupby::KernelWork work;
  for (const auto& chunk : stats.chunks) {
    if (!chunk.on_gpu) {
      if (chunk.gpu_fallback) {
        ++fallbacks;
        work += chunk.gpu.work;
        count_work(chunk.gpu);
      }
      PhaseRecord cp = CpuPhase("groupby-partition-cpu",
                                chunk.wait_time + chunk.cpu_time, 1,
                                chunk.wall_us);
      cp.overlapped = true;
      RecordPhase(std::move(cp), obs::kCatCpu, profile, trace);
      continue;
    }
    const groupby::GpuGroupByStats& g = chunk.gpu;
    ++gpu_chunks;
    bytes_in += g.bytes_in;
    bytes_out += g.bytes_out;
    bytes_avoided += g.bytes_avoided;
    work += g.work;
    count_work(g).runs->Add(1);
    if (!partitioned) continue;
    PhaseRecord gp = DevicePhase("groupby-partition", chunk, chunk.wait_time);
    gp.wall_us = chunk.wall_us;  // wait, staging and device job, in its lane
    gp.overlapped = true;
    RecordPhase(std::move(gp), obs::kCatGpu, profile, trace,
                KernelWorkArgs(g.work));
  }

  // Host staging (chain + MEMCPY, or the fused one-sweep scan + encode +
  // pinned write) of every device chunk, pooled at query dop. Partitioned
  // chunks stage inside their concurrent device lanes, so that wall time
  // sits in the overlapped per-chunk phases and the umbrella, not here. A
  // one-partition span carries what the sweep counted, the inputs of its
  // price (groupby::PriceOnePartition).
  if (!partitioned || stats.stage_time > 0) {
    PhaseRecord stage = CpuPhase(
        partitioned ? "groupby-partition-stage" : "groupby-stage",
        stats.stage_time, config_.query_dop,
        partitioned ? 0 : stats.chunks.front().gpu.stage_wall_us);
    stage.bytes_moved = bytes_in;  // pinned staging writes
    std::vector<std::pair<std::string, std::string>> args;
    if (!partitioned) {
      const groupby::GpuGroupByStats& g = stats.chunks.front().gpu;
      args = {{"rows_scanned", std::to_string(g.rows_scanned)},
              {"kmv_estimate", std::to_string(g.kmv_estimate)}};
    }
    RecordPhase(std::move(stage), obs::kCatCpu, profile, trace,
                std::move(args));
  }
  if (partitioned) {
    // The umbrella's wall time is the lanes' window: the driver call less
    // the sweep and the merge.
    RecordPhase(CpuPhase("groupby-partitioned",
                         std::max(stats.cpu_lane_time, stats.gpu_lane_time), 1,
                         std::max<int64_t>(0, wall_us - stats.partition_wall_us -
                                                  stats.merge_wall_us)),
                obs::kCatCpu, profile, trace);
    RecordPhase(CpuPhase("groupby-merge", stats.merge_time, 1,
                         stats.merge_wall_us),
                obs::kCatCpu, profile, trace);

    instruments_.partitioned_queries->Add(1);
    instruments_.partitioned_chunks[kGpuSide]->Add(gpu_chunks);
    instruments_.partitioned_chunks[kCpuSide]->Add(stats.chunks.size() -
                                                   gpu_chunks);
    instruments_.partitioned_rows[kGpuSide]->Add(stats.gpu_rows);
    instruments_.partitioned_rows[kCpuSide]->Add(stats.cpu_rows);
    instruments_.partitioned_gpu_fallbacks->Add(fallbacks);
    instruments_.partitioned_cpu_split->Observe(
        static_cast<uint64_t>(stats.cpu_split_fraction * 100.0));
    trace->Annotate("partitions", std::to_string(stats.num_partitions));
    trace->Annotate("cpu_split", std::to_string(stats.cpu_split_fraction));
  } else {
    // The device job, less its reservation wait (a phase of its own). While
    // the kernel runs, the host threads are released (the off-load benefit
    // the concurrency experiments measure). The job breaks into timestamped
    // sub-spans instead of one opaque trace block (the profile keeps the
    // aggregate phase).
    const groupby::PartitionChunkStats& chunk = stats.chunks.front();
    const groupby::GpuGroupByStats& g = chunk.gpu;
    PhaseRecord gpu = DevicePhase("groupby-kernel", chunk, 0);
    // The rest of the driver call: upload, init, kernel, readback and the
    // scan of the read-back table into flat groups (and the placement,
    // when no wait phase carries it).
    const int64_t wait_wall_us = chunk.wait_time > 0 ? chunk.wait_wall_us : 0;
    gpu.wall_us =
        std::max<int64_t>(0, wall_us - wait_wall_us - g.stage_wall_us);
    const char* kernel_name =
        g.fused ? gpusim::GroupByKernelKindFusedName(g.kernel_used)
                : gpusim::GroupByKernelKindName(g.kernel_used);
    auto kernel_args = KernelWorkArgs(g.work);
    kernel_args.insert(kernel_args.begin(),
                       {{"sim_us", std::to_string(g.kernel_time)},
                        {"wall_us", std::to_string(g.kernel_wall_us)},
                        {"retries", std::to_string(g.retries)}});
    trace->AddPhase("transfer-in", obs::kCatTransfer, g.transfer_in,
                    gpu.device_id, {{"bytes", std::to_string(g.bytes_in)}});
    trace->AddPhase("hash-init", obs::kCatGpu, g.table_init, gpu.device_id);
    trace->AddPhase(std::string("kernel:") + kernel_name, obs::kCatKernel,
                    g.kernel_time, gpu.device_id, std::move(kernel_args));
    trace->AddPhase("transfer-out", obs::kCatTransfer, g.transfer_out,
                    gpu.device_id, {{"bytes", std::to_string(g.bytes_out)}});
    trace->Annotate("kernel", kernel_name);
    trace->Annotate("fusion", g.fused ? "on" : "off");
    trace->Annotate("bytes_h2d", std::to_string(g.bytes_in));
    trace->Annotate("bytes_d2h", std::to_string(g.bytes_out));
    if (g.fused) {
      trace->Annotate("bytes_staged_avoided",
                      std::to_string(g.bytes_avoided));
    }
    gpu.elapsed = gpu.IdleElapsed(cost_.HostParallelFactor(gpu.dop));
    profile->phases.push_back(std::move(gpu));
  }
  if (gpu_chunks > 0 || fallbacks > 0) {
    trace->Annotate("kernel_probes", std::to_string(work.probes));
    trace->Annotate("kernel_cas_failures", std::to_string(work.cas_failures));
    trace->Annotate("kernel_lock_spins", std::to_string(work.lock_spins));
  }
  instruments_.bytes_h2d->Add(bytes_in);
  instruments_.bytes_d2h->Add(bytes_out);
  instruments_.bytes_staged_avoided->Add(bytes_avoided);
  trace->Annotate("actual_groups", std::to_string(runtime::NumGroups(*out)));
}

Result<QueryResult> Engine::Execute(const QuerySpec& query,
                                    const ExecOptions& opts) {
  BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> fact,
                          GetTable(query.fact_table));
  QueryProfile profile;
  profile.query_name = query.name;
  obs::TraceBuilder trace(query.name);
  // Tags every device/pinned allocation this query makes with its id; the
  // scope's destructor runs the end-of-query leak check.
  gpusim::DeviceChecker::ScopedQuery check_scope(
      checker_.get(), next_query_id_.fetch_add(1, std::memory_order_relaxed),
      query.name);

  if (opts.admission_wait > 0) {
    // Time spent queued before admission; charged dop-1 so the trace and
    // profile show end-to-end latency, not just post-admission work. The
    // wait is a wall measurement, so it is also the phase's wall time.
    RecordPhase(
        CpuPhase("admission-wait", opts.admission_wait, 1, opts.admission_wait),
        obs::kCatWait, &profile, &trace);
  }

  // --- Scan + filter the fact table ---
  // Data-path fusion defers this scan for GPU-eligible group-bys without
  // joins: RunGroupBy folds the predicates into the fused staging sweep
  // (or materializes the selection itself if it ends up off the fused
  // path), so no row ids are built that the device never needs.
  const bool defer_scan = config_.enable_fusion &&
                          config_.groupby_options.allow_fusion &&
                          !devices_.empty() && query.groupby.has_value() &&
                          query.joins.empty();
  std::vector<uint32_t> selection;
  if (!defer_scan) {
    BLUSIM_ASSIGN_OR_RETURN(
        selection, ScanFact(*fact, query.fact_filters, &profile, &trace));
  }

  // --- Star joins (semi-join reduction of the fact selection) ---
  for (const DimJoinSpec& join : query.joins) {
    BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> dim,
                            GetTable(join.dim_table));
    const WallTimer timer;
    std::vector<uint32_t> dim_selection;
    const std::vector<uint32_t>* dim_sel_ptr = nullptr;
    if (!join.dim_filters.empty()) {
      BLUSIM_ASSIGN_OR_RETURN(
          dim_selection,
          runtime::FilterScan(*dim, join.dim_filters, &pool_));
      dim_sel_ptr = &dim_selection;
    }
    runtime::JoinSpec spec;
    spec.fact_fk_column = join.fact_fk_column;
    spec.dim_pk_column = join.dim_pk_column;
    BLUSIM_ASSIGN_OR_RETURN(
        runtime::JoinResult joined,
        runtime::HashJoin(*fact, *dim, spec, &pool_, &selection,
                          dim_sel_ptr));
    RecordPhase(CpuPhase("join-" + join.dim_table,
                         cost_.HostJoinTime(dim_sel_ptr ? dim_selection.size()
                                                        : dim->num_rows(),
                                            selection.size(), 1),
                         config_.query_dop, timer.ElapsedUs()),
                obs::kCatCpu, &profile, &trace);
    selection = std::move(joined.fact_rows);
  }

  std::shared_ptr<Table> result;

  // --- Group by / aggregation ---
  // The groups stay pieces until ORDER BY and LIMIT have picked the rows
  // the query returns.
  std::optional<GroupResult> grouped;
  if (query.groupby.has_value()) {
    BLUSIM_ASSIGN_OR_RETURN(
        grouped, RunGroupBy(query, *fact, defer_scan ? nullptr : &selection,
                            opts, &profile, &trace));
  }

  // --- Order by ---
  if (!query.order_by.empty()) {
    const WallTimer timer;
    if (grouped.has_value()) {
      // Sorting the (small) aggregated result: CPU. Only the sort-key
      // columns are materialized; the LIMIT's head is selected before the
      // sort, and only the head is gathered.
      BLUSIM_ASSIGN_OR_RETURN(
          std::vector<uint32_t> head,
          OrderGroups(grouped->plan, grouped->groups, query.order_by,
                      query.limit, &pool_));
      BLUSIM_ASSIGN_OR_RETURN(
          result, runtime::MaterializeGroups(grouped->plan, grouped->groups,
                                             &pool_, &head));
      const uint64_t num_groups = runtime::NumGroups(grouped->groups);
      // The sort is charged for every group it ordered.
      RecordPhase(CpuPhase("sort-result", cost_.HostSortTime(num_groups, 1),
                           config_.query_dop, timer.ElapsedUs()),
                  obs::kCatCpu, &profile, &trace);
      profile.sort_path = ExecutionPath::kCpu;
    } else {
      // Sorting the selected fact rows: hybrid CPU/GPU sort.
      BLUSIM_ASSIGN_OR_RETURN(
          std::shared_ptr<Table> base,
          MaterializeRows(*fact, selection, query.projection));
      const uint64_t sort_bytes = sort::GpuSortBytesNeeded(
          static_cast<uint32_t>(base->num_rows()));
      // T3-aware sort routing: inputs that could never reserve device
      // memory (too many rows, or a footprint beyond every device) stay on
      // the CPU instead of failing at reservation time.
      ExecutionPath path = ChooseSortPath(
          base->num_rows(), sort_bytes, config_.thresholds, !devices_.empty(),
          scheduler_.min_device_memory());
      if (path == ExecutionPath::kGpu && OverBudget(sort_bytes, opts)) {
        // Per-query budget cap (serving layer): degrade to the CPU sort.
        path = ExecutionPath::kCpu;
        profile.degraded = true;
        trace.Annotate("sort_fallback", "budget");
        instruments_.budget_capped->Add(1);
      }
      profile.sort_path = path;
      trace.Annotate("sort_path", ExecutionPathName(path));
      sort::HybridSortOptions options;
      options.min_gpu_rows = config_.sort_min_gpu_rows;
      options.num_workers = config_.sort_workers;
      options.pool = &pool_;
      options.trace = &trace;
      bool gpu_possible = false;
      if (path == ExecutionPath::kGpu) {
        // Job-level placement: the hybrid sorter asks the scheduler for a
        // device per job, so concurrent jobs spread across both GPUs.
        if (scheduler_.PickDevice(sort_bytes).ok()) {
          options.scheduler = &scheduler_;
          options.pinned_pool = &pinned_;
          gpu_possible = true;
        } else {
          // GPU-routed but the devices are full right now: degrade.
          profile.sort_path = ExecutionPath::kCpu;
          profile.degraded = true;
          trace.Annotate("sort_fallback", "cpu");
        }
      }
      sort::HybridSortStats stats;
      BLUSIM_ASSIGN_OR_RETURN(
          std::vector<uint32_t> perm,
          sort::HybridSorter::Sort(*base, query.order_by, options, &stats));
      instruments_.sort_jobs[kGpuSide]->Add(stats.jobs_gpu);
      instruments_.sort_jobs[kCpuSide]->Add(stats.jobs_cpu);
      instruments_.sort_gpu_fallbacks->Add(stats.gpu_fallbacks);
      instruments_.sort_staging_reuses->Add(stats.staging_reuses);
      if (query.limit > 0 && perm.size() > query.limit) {
        perm.resize(query.limit);  // the phases below charge every row
      }
      BLUSIM_ASSIGN_OR_RETURN(result, MaterializeRows(*base, perm, {}));

      // The hybrid sort's CPU and device jobs run concurrently inside one
      // host call, so its whole wall time (with the row materialization
      // around it) sits on the keygen phase and the kernel phase reads 0.
      RecordPhase(CpuPhase("sort-keygen",
                           cost_.HostKeyGenTime(base->num_rows(), 1) +
                               stats.cpu_sort_time,
                           config_.query_dop, timer.ElapsedUs()),
                  obs::kCatCpu, &profile, &trace);
      if (stats.jobs_gpu > 0 && gpu_possible) {
        PhaseRecord gp;
        gp.kind = PhaseRecord::Kind::kGpu;
        gp.label = "sort-kernel";
        gp.device_time = stats.gpu_transfer_time + stats.gpu_kernel_time;
        gp.device_mem = sort::GpuSortBytesNeeded(
            static_cast<uint32_t>(base->num_rows()));
        gp.device_id = 0;  // the DES rebalances devices at replay time
        RecordPhase(std::move(gp), obs::kCatGpu, &profile, &trace);
        profile.gpu_used = true;
      }
    }
  }

  // --- Aggregation without a sort: the groups in output order, only the
  // LIMIT's head when there is one ---
  if (grouped.has_value() && result == nullptr) {
    std::vector<uint32_t> head;
    if (query.limit > 0 && query.limit < runtime::NumGroups(grouped->groups)) {
      head.resize(query.limit);
      std::iota(head.begin(), head.end(), 0);
    }
    BLUSIM_ASSIGN_OR_RETURN(
        result, runtime::MaterializeGroups(grouped->plan, grouped->groups,
                                           &pool_,
                                           head.empty() ? nullptr : &head));
  }

  // --- No aggregation / no sort: project the selected rows ---
  if (result == nullptr) {
    const WallTimer timer;
    BLUSIM_ASSIGN_OR_RETURN(
        result, MaterializeRows(*fact, selection, query.projection));
    RecordPhase(CpuPhase("project", cost_.HostScanTime(selection.size(), 16, 1),
                         config_.query_dop, timer.ElapsedUs()),
                obs::kCatCpu, &profile, &trace);
  }

  // --- Limit ---
  if (query.limit > 0 && result->num_rows() > query.limit) {
    std::vector<uint32_t> head(query.limit);
    std::iota(head.begin(), head.end(), 0);
    BLUSIM_ASSIGN_OR_RETURN(result, MaterializeRows(*result, head, {}));
  }

  profile.result_rows = result->num_rows();
  profile.total_elapsed = 0;
  for (const PhaseRecord& phase : profile.phases) {
    if (phase.overlapped) continue;  // carried by an umbrella phase
    profile.total_elapsed += phase.elapsed;
  }

  instruments_.queries[profile.gpu_used]->Add(1);
  if (profile.degraded) {
    instruments_.queries_degraded->Add(1);
    trace.Annotate("degraded", "true");
  }
  instruments_.query_elapsed.at(QueryShapeName(query))
      ->Observe(static_cast<uint64_t>(profile.total_elapsed));
  profile.trace = trace.Finish();

  QueryResult qr;
  qr.table = std::move(result);
  qr.profile = std::move(profile);
  return qr;
}

}  // namespace blusim::core
