#include "layers.h"

#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "groupby/gpu_groupby.h"
#include "groupby/layout.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"
#include "sort/hybrid_sort.h"

namespace blubench {

namespace core = blusim::core;
namespace obs = blusim::obs;
using blusim::Result;
using blusim::Status;
using blusim::columnar::Table;

int SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

double Ms(const Span& s) {
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

std::vector<double> SelfMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = Ms(spans[i]);
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= Ms(s);
  }
  return self;
}

}  // namespace

Totals SpanRecorder::SelfMsByName() const {
  Totals out;
  const std::vector<double> self = SelfMs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfMs(spans_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    // Root spans on lane 1, replayed layer calls on lane 2.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":\"%s\","
                 "\"query_id\":%llu,\"span\":%zu,\"parent\":%d,"
                 "\"self_ms\":%.6f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.parent < 0 ? 1 : 2, ts,
                 Ms(s) * 1000.0, s.query.c_str(),
                 static_cast<unsigned long long>(s.query_id), i, s.parent,
                 self[i]);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void AddSimulatedLayers(const core::QueryProfile& profile, Totals* totals) {
  auto add = [totals](const char* name, blusim::SimTime us) {
    (*totals)[name] += static_cast<double>(us) / 1000.0;
  };
  for (const core::PhaseRecord& p : profile.phases) {
    if (p.overlapped) continue;
    if (p.label == "scan") add("runtime.scan_sim_ms", p.elapsed);
    if (p.label.rfind("join-", 0) == 0) add("runtime.join_sim_ms", p.elapsed);
    if (p.label == "groupby-cpu") add("runtime.cpu_groupby_sim_ms", p.elapsed);
    if (p.label == "groupby-stage") add("groupby.stage_sim_ms", p.elapsed);
    if (p.label == "reservation-wait") {
      add("sched.reservation_wait_sim_ms", p.elapsed);
    }
    if (p.label == "sort-keygen") add("sort.keygen_sim_ms", p.elapsed);
  }
  for (const obs::TraceSpan& s : profile.trace.spans) {
    if (s.category == obs::kCatTransfer) {
      add("gpusim.transfer_sim_ms", s.duration());
    } else if (s.category == obs::kCatKernel) {
      if (s.name == "kernel:radix_sort") {
        add("sort.kernel_sim_ms", s.duration());
      } else {
        add("groupby.kernel_sim_ms", s.duration());
        for (const auto& [key, value] : s.args) {
          if (key == "retries") {
            (*totals)["groupby.retries"] += std::stod(value);
          }
        }
      }
    }
  }
}

Totals ReadCounters(const obs::MetricsRegistry& metrics) {
  Totals out;
  for (const obs::MetricSample& m : metrics.Snapshot()) {
    if (m.type == obs::MetricType::kHistogram) {
      out[m.name + ".sum"] += static_cast<double>(m.sum);
      out[m.name + ".count"] += static_cast<double>(m.count);
      continue;
    }
    out[m.name] += static_cast<double>(m.value);
    for (const auto& [key, value] : m.labels) {
      out[m.name + "{" + key + "=" + value + "}"] +=
          static_cast<double>(m.value);
    }
  }
  return out;
}

Totals Delta(const Totals& after, const Totals& before) {
  Totals out = after;
  for (const auto& [name, value] : before) out[name] -= value;
  return out;
}

namespace {

const core::PhaseRecord* FindPhase(const core::QueryProfile& p,
                                   const std::string& label) {
  for (const core::PhaseRecord& phase : p.phases) {
    if (phase.label == label) return &phase;
  }
  return nullptr;
}

// Times one layer call as a span and returns the call's result.
class Replayer {
 public:
  Replayer(SpanRecorder* recorder, uint64_t query_id, std::string query)
      : recorder_(recorder), query_id_(query_id), query_(std::move(query)) {}

  template <typename F>
  auto Time(const char* name, int parent, F&& call) {
    Span span;
    span.query_id = query_id_;
    span.parent = parent;
    span.name = name;
    span.query = query_;
    span.start = Clock::now();
    auto out = call();
    span.end = Clock::now();
    recorder_->Add(std::move(span));
    return out;
  }

 private:
  SpanRecorder* recorder_;
  uint64_t query_id_;
  std::string query_;
};

}  // namespace

Status ReplayLayers(core::Engine* engine, const core::QuerySpec& query,
                    const core::QueryProfile& executed, uint64_t query_id,
                    int root, SpanRecorder* recorder) {
  Replayer r(recorder, query_id, query.name);
  auto* pool = &engine->pool();
  BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> fact,
                          engine->GetTable(query.fact_table));

  const std::string* fusion = executed.trace.FindAnnotation("fusion");
  const core::PhaseRecord* kernel_phase =
      FindPhase(executed, "groupby-kernel");
  // A device group-by over fused records never materialized a selection.
  const bool fused_gpu = kernel_phase != nullptr && fusion != nullptr &&
                         *fusion == "on";

  std::vector<uint32_t> selection;
  if (!fused_gpu) {
    BLUSIM_ASSIGN_OR_RETURN(
        selection, r.Time("runtime.scan", root, [&] {
          return blusim::runtime::FilterScan(*fact, query.fact_filters, pool);
        }));
  }
  for (const core::DimJoinSpec& join : query.joins) {
    BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> dim,
                            engine->GetTable(join.dim_table));
    BLUSIM_ASSIGN_OR_RETURN(
        blusim::runtime::JoinResult joined,
        r.Time("runtime.join", root,
               [&]() -> Result<blusim::runtime::JoinResult> {
                 std::vector<uint32_t> dim_rows;
                 if (!join.dim_filters.empty()) {
                   BLUSIM_ASSIGN_OR_RETURN(
                       dim_rows, blusim::runtime::FilterScan(
                                     *dim, join.dim_filters, pool));
                 }
                 blusim::runtime::JoinSpec spec;
                 spec.fact_fk_column = join.fact_fk_column;
                 spec.dim_pk_column = join.dim_pk_column;
                 return blusim::runtime::HashJoin(
                     *fact, *dim, spec, pool, &selection,
                     join.dim_filters.empty() ? nullptr : &dim_rows);
               }));
    selection = std::move(joined.fact_rows);
  }

  std::shared_ptr<Table> result;
  if (query.groupby.has_value()) {
    BLUSIM_ASSIGN_OR_RETURN(
        blusim::runtime::GroupByPlan plan,
        blusim::runtime::GroupByPlan::Make(*fact, *query.groupby));
    const std::string* routed = executed.trace.FindAnnotation("groupby_path");
    const std::string* kmv = executed.trace.FindAnnotation("kmv_estimate");
    const uint64_t groups = kmv != nullptr ? std::stoull(*kmv) : 1;
    blusim::sched::WaitOptions wait;
    if (kernel_phase != nullptr) {
      // Same placement, staging mode and estimates as the executed run.
      auto device = r.Time("sched.pick", root, [&] {
        return engine->scheduler().PickDeviceWithWait(kernel_phase->device_mem,
                                                      nullptr, wait);
      });
      BLUSIM_RETURN_NOT_OK(device.status());
      blusim::groupby::GpuGroupByOptions gopts =
          engine->config().groupby_options;
      gopts.allow_fusion = fused_gpu;
      gopts.estimated_groups = groups;
      const std::vector<uint32_t>* sel = &selection;
      if (fused_gpu) {
        // Row estimate for the deferred scan, computed outside any span.
        BLUSIM_ASSIGN_OR_RETURN(
            std::vector<uint32_t> rows,
            blusim::runtime::FilterScan(*fact, query.fact_filters, pool));
        gopts.estimated_rows = rows.size();
        plan.set_stage_filter(query.fact_filters);
        sel = nullptr;
      } else {
        gopts.estimated_rows = selection.size();
      }
      const auto mode = fused_gpu ? blusim::groupby::StageMode::kFusedRecords
                                  : blusim::groupby::StageMode::kSoA;
      // GpuGroupBy::Execute stages internally, so its span covers staging
      // too: the separately timed StageForDevice call is its child.
      Span gpu;
      gpu.query_id = query_id;
      gpu.parent = root;
      gpu.name = "groupby.gpu";
      gpu.query = query.name;
      const int gpu_id = recorder->Add(gpu);
      {
        auto staged = r.Time("groupby.stage", gpu_id, [&] {
          return blusim::groupby::StageForDevice(plan, &engine->pinned_pool(),
                                                 pool, sel, mode);
        });
        BLUSIM_RETURN_NOT_OK(staged.status());
      }  // releases the pinned buffers before the device run restages
      blusim::groupby::GpuGroupByStats stats;
      recorder->at(gpu_id).start = Clock::now();
      auto out = blusim::groupby::GpuGroupBy::Execute(
          plan, device.value(), &engine->pinned_pool(), pool,
          &engine->moderator(), sel, gopts, &stats);
      recorder->at(gpu_id).end = Clock::now();
      BLUSIM_RETURN_NOT_OK(out.status());
      result = out->table;
    } else {
      const std::string* fallback =
          executed.trace.FindAnnotation("groupby_fallback");
      if (routed != nullptr && *routed == "GPU" &&
          (fallback == nullptr || *fallback != "budget")) {
        // Routed to a device but denied a reservation: replay the placement
        // attempt for the reservation Engine sizes (fused records when the
        // scan was deferrable and the cost model picks them).
        const auto& config = engine->config();
        blusim::groupby::GpuGroupByOptions gopts = config.groupby_options;
        gopts.allow_fusion = gopts.allow_fusion && config.enable_fusion;
        gopts.estimated_rows = selection.size();
        gopts.estimated_groups = groups;
        const uint64_t capacity = blusim::groupby::ChooseCapacity(groups);
        const auto mode = blusim::groupby::GpuGroupBy::ChooseStageMode(
            plan, engine->cost_model(), gopts, selection.size(),
            pool->num_threads());
        const uint64_t bytes =
            query.joins.empty() &&
                    mode == blusim::groupby::StageMode::kFusedRecords
                ? blusim::groupby::GpuGroupBy::FusedDeviceBytesNeeded(
                      plan, selection.size(), capacity)
                : blusim::groupby::GpuGroupBy::DeviceBytesNeeded(
                      plan, selection.size(), capacity);
        r.Time("sched.pick", root, [&] {
          return engine->scheduler().PickDeviceWithWait(bytes, nullptr, wait);
        }).IgnoreError("replayed placement; the query ran on the CPU");
      }
      BLUSIM_ASSIGN_OR_RETURN(
          blusim::runtime::GroupByOutput out,
          r.Time("runtime.cpu_groupby", root, [&] {
            return blusim::runtime::CpuGroupBy::Execute(plan, pool,
                                                        &selection);
          }));
      result = out.table;
    }
  }

  if (!query.order_by.empty()) {
    blusim::sort::HybridSortOptions options;
    options.pool = pool;
    std::shared_ptr<Table> base = result;
    if (base == nullptr) {
      BLUSIM_ASSIGN_OR_RETURN(base, r.Time("core.materialize", root, [&] {
        return core::MaterializeRows(*fact, selection, query.projection);
      }));
      options.min_gpu_rows = engine->config().sort_min_gpu_rows;
      options.num_workers = engine->config().sort_workers;
      if (executed.sort_path == core::ExecutionPath::kGpu) {
        options.scheduler = &engine->scheduler();
        options.pinned_pool = &engine->pinned_pool();
      }
    } else {
      options.num_workers = 1;
    }
    blusim::sort::HybridSortStats stats;
    BLUSIM_ASSIGN_OR_RETURN(std::vector<uint32_t> perm,
                            r.Time("sort.sort", root, [&] {
                              return blusim::sort::HybridSorter::Sort(
                                  *base, query.order_by, options, &stats);
                            }));
    BLUSIM_ASSIGN_OR_RETURN(result, r.Time("core.materialize", root, [&] {
      return core::MaterializeRows(*base, perm, {});
    }));
  }

  if (result == nullptr) {
    BLUSIM_ASSIGN_OR_RETURN(result, r.Time("core.materialize", root, [&] {
      return core::MaterializeRows(*fact, selection, query.projection);
    }));
  }
  if (query.limit > 0 && result->num_rows() > query.limit) {
    std::vector<uint32_t> head(query.limit);
    std::iota(head.begin(), head.end(), 0);
    BLUSIM_ASSIGN_OR_RETURN(result, r.Time("core.materialize", root, [&] {
      return core::MaterializeRows(*result, head, {});
    }));
  }
  return Status::OK();
}

}  // namespace blubench
