#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace blusim::serve {

namespace {

int64_t WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Scales a base budget by a tenant weight, clamped to `cap` (0 = no cap).
// A base of 0 means "unlimited" and stays unlimited at any weight.
uint64_t ScaleBudget(uint64_t base, double weight, uint64_t cap) {
  if (base == 0) return 0;
  const double scaled = static_cast<double>(base) * weight;
  uint64_t value = scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
  if (cap > 0 && value > cap) value = cap;
  return value;
}

}  // namespace

bool QueryHandle::CancelIfQueued() {
  if (service_ == nullptr) return false;
  return service_->CancelTicket(tenant_, ticket_, "cancelled",
                                "cancelled while queued");
}

QueryService::QueryService(core::Engine* engine, ServiceOptions options)
    : engine_(engine), options_(std::move(options)) {
  options_.max_concurrent = std::max(1, options_.max_concurrent);
  if (options_.default_weight <= 0) options_.default_weight = 1.0;
  const core::EngineConfig& config = engine_->config();
  const uint64_t slots = static_cast<uint64_t>(options_.max_concurrent);
  const size_t num_devices = engine_->scheduler().num_devices();

  // Fair-share budgets: each of the max_concurrent admitted queries may
  // claim an equal slice of the aggregate device memory (clamped to one
  // device -- a single placement cannot span devices) and of the pinned
  // staging pool. Tenant weights scale this base, under the same clamps.
  exec_opts_.device_budget_bytes = options_.device_budget_bytes;
  if (num_devices > 0) {
    device_budget_clamp_ = config.device_spec.device_memory_bytes;
    if (exec_opts_.device_budget_bytes == 0) {
      const uint64_t per_device = config.device_spec.device_memory_bytes;
      const uint64_t total = per_device * num_devices;
      exec_opts_.device_budget_bytes =
          std::min(per_device, std::max<uint64_t>(1, total / slots));
    }
  }
  pinned_budget_clamp_ = config.pinned_pool_bytes;
  exec_opts_.pinned_budget_bytes = options_.pinned_budget_bytes;
  if (exec_opts_.pinned_budget_bytes == 0) {
    exec_opts_.pinned_budget_bytes =
        std::max<uint64_t>(1, config.pinned_pool_bytes / slots);
  }

  exec_opts_.wait = options_.wait;
  exec_opts_.wait.exp_backoff = true;
  exec_opts_.wait.deadline = options_.gpu_deadline;
  if (exec_opts_.wait.deadline == 0 && num_devices > 0) {
    // Degradation tipping point: once a placement has waited a few
    // transfer-times' worth of its own budget for device memory, running
    // on the CPU is the faster end-to-end choice.
    exec_opts_.wait.deadline = std::max<SimTime>(
        2000, 4 * engine_->cost_model().TransferTime(
                      exec_opts_.device_budget_bytes, /*pinned=*/true));
  }

  slo_ = std::make_unique<obs::SloTracker>(options_.slo);
  flight_ = std::make_unique<obs::FlightRecorder>(options_.flight);
  flight_->AttachMetrics(&engine_->metrics());

  obs::MetricsRegistry& metrics = engine_->metrics();
  admitted_total_ = metrics.GetCounter(
      "blusim_serve_admitted_total", {},
      "Queries admitted past the service's concurrency gate");
  shed_total_ = metrics.GetCounter(
      "blusim_serve_shed_total", {},
      "Submissions rejected: admission queue full or queue wait timed out");
  degraded_total_ = metrics.GetCounter(
      "blusim_serve_degraded_total", {},
      "Served queries that degraded a GPU-routed phase to the CPU");
  deadline_shed_total_ = metrics.GetCounter(
      "blusim_serve_deadline_shed_total", {},
      "Submissions shed because they queued past their deadline");
  evicted_total_ = metrics.GetCounter(
      "blusim_serve_evicted_total", {},
      "Queued submissions displaced by a higher-priority arrival");
  wakeups_total_ = metrics.GetCounter(
      "blusim_serve_wakeups_total", {},
      "Executor condition-variable notifications issued by the admission "
      "path (~1 per submission; the herd regression gate)");
  active_gauge_ = metrics.GetGauge(
      "blusim_serve_active", {}, "Queries currently executing");
  queue_depth_gauge_ = metrics.GetGauge(
      "blusim_serve_queue_depth", {}, "Submissions waiting for admission");
  inflight_gauge_ = metrics.GetGauge(
      "blusim_serve_inflight", {},
      "Submissions inside the service (queued + executing)");
  admission_wait_us_ = metrics.GetHistogram(
      "blusim_serve_admission_wait_us", {},
      "Wall-clock admission-queue wait per admitted query (microseconds)");
  for (const char* qclass : core::kQueryShapeNames) {
    for (size_t o = 0; o < kOutcomeNames.size(); ++o) {
      queries_total_[qclass][o] = metrics.GetCounter(
          "blusim_serve_queries_total",
          {{"class", qclass}, {"outcome", kOutcomeNames[o]}},
          "Served submissions by terminal outcome (completed / degraded / "
          "shed / failed) and query shape class");
    }
  }

  {
    // Materialize the configured admission classes up front so their
    // weights/budgets are visible in tenant_stats() and the registry
    // before any traffic arrives.
    common::MutexLock lock(&mu_);
    for (const TenantClassSpec& spec : options_.tenant_classes) {
      if (!spec.tenant.empty()) GetTenantLocked(spec.tenant);
    }
  }

  executors_.reserve(static_cast<size_t>(options_.max_concurrent));
  for (int i = 0; i < options_.max_concurrent; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

QueryService::~QueryService() {
  std::vector<ShedOutcome> sheds;
  {
    common::MutexLock lock(&mu_);
    shutdown_ = true;
    for (auto& [name, tenant] : tenants_) {
      Tenant* t = tenant.get();
      while (!t->queue.empty()) {
        ShedOutcome s;
        s.ticket = std::move(t->queue.front());
        t->queue.pop_front();
        --total_queued_;
        AccountShedLocked(t);
        s.reason = "shutdown";
        s.message = "service shutting down";
        s.queued = total_queued_;
        s.active = executing_;
        sheds.push_back(std::move(s));
      }
      UpdateQueueGaugesLocked(t);
    }
    UpdateInflightLocked();
  }
  cv_work_.notify_all();
  for (ShedOutcome& s : sheds) CompleteShed(std::move(s));
  common::JoinAll(&executors_);
}

QueryService::Tenant* QueryService::GetTenantLocked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second.get();

  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->weight = options_.default_weight;
  for (const TenantClassSpec& spec : options_.tenant_classes) {
    if (spec.tenant == name) {
      tenant->weight = spec.weight;
      break;
    }
  }
  if (tenant->weight <= 0) tenant->weight = 1.0;
  // A tenant first backlogged now starts at the stride clock: idle time
  // earns no credit, so a newcomer cannot starve established tenants.
  tenant->vtime = global_vtime_;
  tenant->exec_opts = exec_opts_;
  tenant->exec_opts.device_budget_bytes = ScaleBudget(
      exec_opts_.device_budget_bytes, tenant->weight, device_budget_clamp_);
  tenant->exec_opts.pinned_budget_bytes = ScaleBudget(
      exec_opts_.pinned_budget_bytes, tenant->weight, pinned_budget_clamp_);

  obs::MetricsRegistry& metrics = engine_->metrics();
  tenant->queue_gauge = metrics.GetGauge(
      "blusim_serve_tenant_queue_depth", {{"tenant", name}},
      "Queued submissions per tenant admission queue");
  tenant->admitted_total = metrics.GetCounter(
      "blusim_serve_tenant_admitted_total", {{"tenant", name}},
      "Queries admitted per tenant");
  tenant->busy_us_total = metrics.GetCounter(
      "blusim_serve_tenant_busy_us_total", {{"tenant", name}},
      "Simulated execution time consumed by the tenant's completed "
      "queries (microseconds)");
  metrics
      .GetGauge("blusim_serve_tenant_weight_permille", {{"tenant", name}},
                "Configured tenant admission weight, in thousandths")
      ->Set(static_cast<int64_t>(tenant->weight * 1000.0));

  Tenant* raw = tenant.get();
  tenants_.emplace(name, std::move(tenant));
  return raw;
}

void QueryService::UpdateQueueGaugesLocked(Tenant* tenant) {
  queue_depth_gauge_->Set(static_cast<int64_t>(total_queued_));
  tenant->queue_gauge->Set(static_cast<int64_t>(tenant->queue.size()));
}

void QueryService::UpdateInflightLocked() {
  const int inflight = executing_ + static_cast<int>(total_queued_);
  stats_.inflight = inflight;
  stats_.peak_inflight = std::max(stats_.peak_inflight, inflight);
  inflight_gauge_->Set(inflight);
}

void QueryService::AccountShedLocked(Tenant* tenant) {
  ++stats_.shed;
  shed_total_->Add(1);
  ++tenant->shed;
}

void QueryService::CountOutcome(const char* qclass, Outcome outcome) {
  queries_total_.at(qclass)[static_cast<size_t>(outcome)]->Add(1);
}

std::vector<obs::MetricSample> QueryService::CollectSamples() const {
  std::vector<obs::MetricSample> samples = engine_->metrics().Snapshot();
  std::vector<obs::MetricSample> windows = slo_->Collect();
  samples.insert(samples.end(), std::make_move_iterator(windows.begin()),
                 std::make_move_iterator(windows.end()));
  obs::SortMetricSamples(&samples);
  return samples;
}

QueryHandle QueryService::SubmitAsync(const core::QuerySpec& query,
                                      const std::string& tenant_label,
                                      SubmitOptions opts) {
  auto ticket = std::make_unique<Ticket>();
  ticket->query = query;
  ticket->tenant = tenant_label.empty() ? kNoTenant : tenant_label;
  ticket->qclass = core::QueryShapeName(query);
  ticket->priority = opts.priority;
  ticket->deadline_us = opts.deadline_us;
  if (opts.deadline_us > 0) {
    ticket->deadline =
        ticket->enqueued.start() + std::chrono::microseconds(opts.deadline_us);
  }
  ticket->on_complete = std::move(opts.on_complete);

  QueryHandle handle;
  handle.service_ = this;
  handle.tenant_ = ticket->tenant;
  handle.future_ = ticket->promise.get_future();

  // Sheds resolved outside the lock: the arrival itself when the queue is
  // full, or a lower-priority victim it displaces.
  ShedOutcome arrival_shed;
  ShedOutcome victim_shed;
  bool shed_arrival = false;
  bool shed_victim = false;
  {
    common::MutexLock lock(&mu_);
    ticket->id = next_ticket_++;
    handle.ticket_ = ticket->id;
    Tenant* tenant = GetTenantLocked(ticket->tenant);
    ticket->owner = tenant;
    ++stats_.submitted;
    ++tenant->submitted;

    const bool no_slot =
        paused_ || executing_ >= options_.max_concurrent || shutdown_;
    if (no_slot && total_queued_ >= options_.max_queue_depth) {
      // Full queue: a strictly-higher-priority arrival evicts the queued
      // ticket that would be served last (lowest priority, youngest);
      // otherwise the arrival itself is shed. Bounded queue = bounded
      // latency either way.
      Tenant* victim_tenant = nullptr;
      for (auto& [name, t] : tenants_) {
        if (t->queue.empty()) continue;
        Ticket* back = t->queue.back().get();
        if (back->priority >= ticket->priority) continue;
        if (victim_tenant == nullptr) {
          victim_tenant = t.get();
          continue;
        }
        Ticket* best = victim_tenant->queue.back().get();
        if (back->priority < best->priority ||
            (back->priority == best->priority &&
             back->enqueued.start() > best->enqueued.start())) {
          victim_tenant = t.get();
        }
      }
      if (victim_tenant != nullptr) {
        victim_shed.ticket = std::move(victim_tenant->queue.back());
        victim_tenant->queue.pop_back();
        --total_queued_;
        AccountShedLocked(victim_tenant);
        ++stats_.evicted;
        evicted_total_->Add(1);
        UpdateQueueGaugesLocked(victim_tenant);
        victim_shed.reason = "evicted";
        victim_shed.message =
            "evicted by a priority-" + std::to_string(ticket->priority) +
            " submission (own priority " +
            std::to_string(victim_shed.ticket->priority) + ")";
        victim_shed.queued = total_queued_;
        victim_shed.active = executing_;
        shed_victim = true;
      } else {
        AccountShedLocked(tenant);
        arrival_shed.queued = total_queued_;
        arrival_shed.active = executing_;
        arrival_shed.reason = "queue_full";
        arrival_shed.message =
            "admission queue full (" + std::to_string(arrival_shed.queued) +
            " queued, " + std::to_string(arrival_shed.active) + " active)";
        arrival_shed.ticket = std::move(ticket);
        UpdateQueueGaugesLocked(tenant);
        shed_arrival = true;
      }
    }
    if (!shed_arrival) {
      if (tenant->queue.empty()) {
        tenant->vtime = std::max(tenant->vtime, global_vtime_);
      }
      // Priority order within the tenant's queue, FIFO among equals.
      auto pos = tenant->queue.begin();
      while (pos != tenant->queue.end() &&
             (*pos)->priority >= ticket->priority) {
        ++pos;
      }
      tenant->queue.insert(pos, std::move(ticket));
      ++total_queued_;
      UpdateQueueGaugesLocked(tenant);
      UpdateInflightLocked();
      // Targeted wakeup: exactly one idle executor inspects the queues.
      // Executors re-scan after each completion, so this is the only
      // signal the admission path ever sends (the herd fix).
      ++stats_.wakeups;
      wakeups_total_->Add(1);
      cv_work_.notify_one();
    }
  }
  if (shed_victim) CompleteShed(std::move(victim_shed));
  if (shed_arrival) CompleteShed(std::move(arrival_shed));
  return handle;
}

Result<core::QueryResult> QueryService::Submit(const core::QuerySpec& query,
                                               const std::string& tenant) {
  const auto enqueued = std::chrono::steady_clock::now();
  QueryHandle handle = SubmitAsync(query, tenant);
  if (options_.admission_timeout_us > 0) {
    const auto deadline =
        enqueued + std::chrono::microseconds(options_.admission_timeout_us);
    if (handle.future().wait_until(deadline) == std::future_status::timeout) {
      if (options_.before_timeout_cancel) options_.before_timeout_cancel();
      // Best-effort: only sheds while still queued. A ticket picked up in
      // the race window (timed out exactly as it became head-of-line) is
      // admitted and its real result returned below.
      CancelTicket(handle.tenant(), handle.ticket(), "admission_timeout",
                   "admission wait exceeded " +
                       std::to_string(options_.admission_timeout_us) + "us");
    }
  }
  return handle.Get();
}

void QueryService::PauseAdmission() {
  common::MutexLock lock(&mu_);
  paused_ = true;
}

void QueryService::ResumeAdmission() {
  {
    common::MutexLock lock(&mu_);
    paused_ = false;
    ++stats_.wakeups;
    wakeups_total_->Add(1);
  }
  cv_work_.notify_all();
}

bool QueryService::CancelTicket(const std::string& tenant, uint64_t id,
                                const char* reason, std::string message) {
  ShedOutcome shed;
  {
    common::MutexLock lock(&mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return false;
    Tenant* t = it->second.get();
    for (auto qi = t->queue.begin(); qi != t->queue.end(); ++qi) {
      if ((*qi)->id == id) {
        shed.ticket = std::move(*qi);
        t->queue.erase(qi);
        --total_queued_;
        AccountShedLocked(t);
        UpdateQueueGaugesLocked(t);
        UpdateInflightLocked();
        break;
      }
    }
    if (shed.ticket == nullptr) return false;
    shed.reason = reason;
    shed.message = std::move(message);
    shed.queued = total_queued_;
    shed.active = executing_;
  }
  CompleteShed(std::move(shed));
  return true;
}

std::unique_ptr<QueryService::Ticket> QueryService::PickNextLocked(
    std::vector<ShedOutcome>* sheds) {
  const auto now = std::chrono::steady_clock::now();
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    Tenant* t = tenant.get();
    // Lazy deadline shedding: expired heads are shed the moment the
    // scheduler examines the queue, before any admission decision.
    while (!t->queue.empty()) {
      Ticket* head = t->queue.front().get();
      if (head->deadline_us <= 0 || head->deadline > now) break;
      ShedOutcome s;
      s.ticket = std::move(t->queue.front());
      t->queue.pop_front();
      --total_queued_;
      AccountShedLocked(t);
      ++stats_.deadline_shed;
      deadline_shed_total_->Add(1);
      UpdateQueueGaugesLocked(t);
      s.reason = "deadline";
      s.message = "queued past deadline (" +
                  std::to_string(s.ticket->deadline_us) + "us)";
      s.queued = total_queued_;
      s.active = executing_;
      sheds->push_back(std::move(s));
    }
    if (t->queue.empty()) continue;
    // Stride scheduling: serve the backlogged tenant with the lowest
    // virtual time; std::map order breaks ties deterministically.
    if (best == nullptr || t->vtime < best->vtime) best = t;
  }
  if (best == nullptr) return nullptr;
  std::unique_ptr<Ticket> ticket = std::move(best->queue.front());
  best->queue.pop_front();
  --total_queued_;
  UpdateQueueGaugesLocked(best);
  return ticket;
}

void QueryService::ExecutorLoop() {
  for (;;) {
    std::unique_ptr<Ticket> ticket;
    std::vector<ShedOutcome> sheds;
    bool stop = false;
    {
      common::MutexLock lock(&mu_);
      for (;;) {
        if (shutdown_) {
          stop = true;
          break;
        }
        if (!paused_ && executing_ < options_.max_concurrent) {
          ticket = PickNextLocked(&sheds);
        }
        if (ticket != nullptr || !sheds.empty()) break;
        cv_work_.wait(lock);
      }
      if (ticket != nullptr) {
        ++executing_;
        active_gauge_->Set(executing_);
        ++stats_.admitted;
        admitted_total_->Add(1);
        Tenant* t = ticket->owner;
        ++t->admitted;
        t->admitted_total->Add(1);
        // Advance the stride clock past this admission; the tenant pays
        // 1/weight of virtual time for the slot it just consumed.
        global_vtime_ = std::max(global_vtime_, t->vtime);
        t->vtime += 1.0 / t->weight;
        UpdateInflightLocked();
      }
    }
    for (ShedOutcome& s : sheds) CompleteShed(std::move(s));
    if (ticket != nullptr) {
      ExecuteTicket(std::move(ticket));
    } else if (stop) {
      return;
    }
  }
}

void QueryService::CompleteShed(ShedOutcome shed) {
  Ticket* t = shed.ticket.get();
  // Records a submission that never executed (shed / timed-out /
  // evicted): the flight recorder still captures it -- with a synthetic
  // trace carrying the admission state -- because "why was my query
  // rejected?" is exactly the question the recorder exists to answer.
  slo_->RecordShed(t->qclass, t->tenant);
  CountOutcome(t->qclass, Outcome::kShed);
  obs::TraceBuilder tb(t->query.name);
  tb.Annotate("outcome", "shed");
  tb.Annotate("shed_reason", shed.reason);
  tb.Annotate("queue_depth", std::to_string(shed.queued));
  tb.Annotate("active", std::to_string(shed.active));
  obs::FlightRecord rec;
  rec.query_name = t->query.name;
  rec.qclass = t->qclass;
  rec.tenant = t->tenant;
  rec.outcome = obs::FlightRecord::Outcome::kShed;
  rec.anomaly = "shed";
  rec.admission_wait_us = static_cast<uint64_t>(t->enqueued.ElapsedUs());
  rec.wall_ts_us = WallNowUs();
  rec.trace = tb.Finish();
  flight_->Record(std::move(rec));

  Result<core::QueryResult> result = Status::Overloaded(shed.message);
  if (t->on_complete) t->on_complete(result);
  // Resolved last: by the time the caller's future wakes, every counter
  // and window already reflects this shed.
  t->promise.set_value(std::move(result));
}

void QueryService::ExecuteTicket(std::unique_ptr<Ticket> ticket) {
  // Charge the wall-clock queue wait into the query's simulated profile
  // 1:1, so served latencies include the admission delay.
  core::ExecOptions opts = ticket->owner->exec_opts;
  opts.admission_wait = static_cast<SimTime>(ticket->enqueued.ElapsedUs());
  admission_wait_us_->Observe(static_cast<uint64_t>(opts.admission_wait));

  auto result = engine_->Execute(ticket->query, opts);

  {
    common::MutexLock lock(&mu_);
    --executing_;
    active_gauge_->Set(executing_);
    if (result.ok()) {
      ++stats_.completed;
      ++ticket->owner->completed;
      const uint64_t elapsed =
          static_cast<uint64_t>(result->profile.total_elapsed);
      ticket->owner->busy_us += elapsed;
      ticket->owner->busy_us_total->Add(elapsed);
      if (result->profile.degraded) {
        ++stats_.degraded;
        degraded_total_->Add(1);
      }
    } else {
      ++stats_.failed;
    }
    UpdateInflightLocked();
  }

  if (!result.ok()) {
    // Admitted but errored: always pinned into the recorder, with the
    // error in place of a trace (Execute returns no profile on failure).
    CountOutcome(ticket->qclass, Outcome::kFailed);
    obs::TraceBuilder tb(ticket->query.name);
    tb.Annotate("outcome", "failed");
    tb.Annotate("error", result.status().ToString());
    obs::FlightRecord rec;
    rec.query_name = ticket->query.name;
    rec.qclass = ticket->qclass;
    rec.tenant = ticket->tenant;
    rec.outcome = obs::FlightRecord::Outcome::kFailed;
    rec.anomaly = "failed";
    rec.admission_wait_us = static_cast<uint64_t>(opts.admission_wait);
    rec.wall_ts_us = WallNowUs();
    rec.trace = tb.Finish();
    flight_->Record(std::move(rec));
  } else {
    const core::QueryProfile& profile = result->profile;
    const bool degraded = profile.degraded;
    const char* mode =
        degraded ? "degraded" : (profile.gpu_used ? "gpu" : "cpu");
    const uint64_t elapsed = static_cast<uint64_t>(profile.total_elapsed);

    // Tail-outlier check against the live window BEFORE this completion
    // is folded in (its own sample must not mask it).
    const obs::WindowSnapshot window =
        slo_->Window(ticket->qclass, mode, ticket->tenant);
    const bool outlier =
        window.count >= options_.tail_outlier_min_window &&
        static_cast<double>(elapsed) >
            options_.tail_outlier_factor *
                static_cast<double>(window.QuantileUpperBound(0.99));
    slo_->Record(ticket->qclass, mode, ticket->tenant, elapsed);
    CountOutcome(ticket->qclass, Outcome::kCompleted);
    if (degraded) CountOutcome(ticket->qclass, Outcome::kDegraded);

    const char* anomaly =
        degraded ? "degraded" : (outlier ? "tail_outlier" : "");
    if (anomaly[0] != '\0' || flight_->ShouldSample()) {
      obs::FlightRecord rec;
      rec.query_name = ticket->query.name;
      rec.qclass = ticket->qclass;
      rec.mode = mode;
      rec.tenant = ticket->tenant;
      rec.outcome = degraded ? obs::FlightRecord::Outcome::kDegraded
                             : obs::FlightRecord::Outcome::kOk;
      rec.anomaly = anomaly;
      rec.sim_elapsed_us = elapsed;
      rec.admission_wait_us = static_cast<uint64_t>(opts.admission_wait);
      rec.wall_ts_us = WallNowUs();
      rec.trace = profile.trace;  // the full span timeline, copied
      flight_->Record(std::move(rec));
    }
  }

  if (ticket->on_complete) ticket->on_complete(result);
  // Resolved last: by the time the caller's future wakes, the stats,
  // windows and flight records already reflect this completion.
  ticket->promise.set_value(std::move(result));
}

ServiceStats QueryService::stats() const {
  common::MutexLock lock(&mu_);
  ServiceStats out = stats_;
  out.active = executing_;
  out.queued = total_queued_;
  out.inflight = executing_ + static_cast<int>(total_queued_);
  out.queue_depth_gauge = queue_depth_gauge_->Value();
  return out;
}

std::vector<TenantStats> QueryService::tenant_stats() const {
  common::MutexLock lock(&mu_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStats ts;
    ts.tenant = name;
    ts.weight = tenant->weight;
    ts.submitted = tenant->submitted;
    ts.admitted = tenant->admitted;
    ts.completed = tenant->completed;
    ts.shed = tenant->shed;
    ts.queued = tenant->queue.size();
    ts.busy_us = tenant->busy_us;
    ts.device_budget_bytes = tenant->exec_opts.device_budget_bytes;
    ts.pinned_budget_bytes = tenant->exec_opts.pinned_budget_bytes;
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace blusim::serve
