#include "harness/serve_driver.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>

#include "common/annotations.h"
#include "common/thread.h"
#include "common/wall_timer.h"

namespace blusim::harness {

Result<ServedRunResult> RunServedStreams(
    serve::QueryService* service,
    const std::vector<workload::WorkloadQuery>& queries,
    const ServedRunOptions& options) {
  const int streams = std::max(1, options.streams);
  const int reps = std::max(1, options.reps);

  struct StreamState {
    common::Mutex mu{"harness.RunServedStreams.state_mu",
                     common::LockRank::kServe};
    ServedRunResult run GUARDED_BY(mu);
    Status first_error GUARDED_BY(mu);
  } state;

  auto stream_fn = [&](int stream_index) {
    // Each stream submits under its own tenant label so the SLO windows
    // and the flight recorder can attribute load per client.
    const std::string tenant = "stream-" + std::to_string(stream_index);
    for (int rep = 0; rep < reps; ++rep) {
      for (const workload::WorkloadQuery& wq : queries) {
        {
          common::MutexLock lock(&state.mu);
          if (!state.first_error.ok()) return;
          ++state.run.submitted;
        }
        const WallTimer submit_timer;
        auto qr = service->Submit(wq.spec, tenant);
        const int64_t wall_e2e_us = submit_timer.ElapsedUs();
        common::MutexLock lock(&state.mu);
        if (!qr.ok()) {
          if (qr.status().code() == StatusCode::kOverloaded) {
            // Load shedding is the admission policy working, not a
            // failure; the client moves on to its next query.
            ++state.run.shed;
            continue;
          }
          if (state.first_error.ok()) {
            state.first_error = Status(qr.status().code(),
                                       "query '" + wq.spec.name + "': " +
                                           qr.status().message());
          }
          return;
        }
        if (qr->profile.degraded) ++state.run.degraded;
        QueryRunResult r;
        r.name = wq.spec.name;
        r.qclass = wq.qclass;
        r.elapsed = qr->profile.total_elapsed;
        r.gpu_used = qr->profile.gpu_used;
        r.wall_e2e_us = wall_e2e_us;
        for (const core::PhaseRecord& phase : qr->profile.phases) {
          if (phase.label == "admission-wait") {
            r.admission_wait_us = phase.cpu_work;
            break;
          }
        }
        r.profile = std::move(qr->profile);
        state.run.results.push_back(std::move(r));
      }
    }
  };

  const WallTimer run_timer;
  std::vector<common::Thread> threads;
  threads.reserve(static_cast<size_t>(streams - 1));
  for (int s = 1; s < streams; ++s) threads.emplace_back(stream_fn, s);
  stream_fn(0);
  common::JoinAll(&threads);
  const int64_t wall_us = run_timer.ElapsedUs();

  common::MutexLock lock(&state.mu);
  BLUSIM_RETURN_NOT_OK(state.first_error);
  state.run.wall_us = wall_us;
  return std::move(state.run);
}

std::string AsyncTenantName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", index);
  return buf;
}

std::vector<serve::TenantClassSpec> MakeAsyncTenantClasses(
    const AsyncRunOptions& options) {
  std::vector<serve::TenantClassSpec> classes;
  const int tenants = std::max(1, options.tenants);
  classes.reserve(static_cast<size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    serve::TenantClassSpec spec;
    spec.tenant = AsyncTenantName(i);
    spec.weight = options.weights.empty()
                      ? 1.0
                      : options.weights[static_cast<size_t>(i) %
                                        options.weights.size()];
    classes.push_back(std::move(spec));
  }
  return classes;
}

Result<AsyncRunResult> RunServedAsync(
    serve::QueryService* service,
    const std::vector<workload::WorkloadQuery>& queries,
    const AsyncRunOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("RunServedAsync: empty query pool");
  }
  const int tenants = std::max(1, options.tenants);
  const int in_flight = std::max(tenants, options.in_flight);
  const int slots_per_tenant = in_flight / tenants;

  // One resolved submission, posted by the completion callback (which
  // runs on a service executor, no service locks held) and drained by the
  // single client thread below.
  struct Done {
    int tenant = 0;
    bool ok = false;
    bool shed = false;
    bool degraded = false;
    int64_t e2e_us = 0;
    int64_t wait_us = 0;
    Status error;
  };
  struct EventQueue {
    common::Mutex mu{"harness.RunServedAsync.events_mu",
                     common::LockRank::kServe};
    std::condition_variable_any cv;
    std::deque<Done> events GUARDED_BY(mu);
  } eq;

  AsyncRunResult run;
  std::vector<uint64_t> next_query(static_cast<size_t>(tenants), 0);
  uint64_t outstanding = 0;

  auto submit_one = [&](int tenant_idx) {
    const size_t qi =
        next_query[static_cast<size_t>(tenant_idx)]++ % queries.size();
    serve::SubmitOptions sopts;
    if (tenant_idx < options.deadline_tenants && options.deadline_us > 0) {
      sopts.deadline_us = options.deadline_us;
    }
    const WallTimer submit_timer;
    sopts.on_complete = [&eq, tenant_idx, submit_timer](
                            const Result<core::QueryResult>& r) {
      Done d;
      d.tenant = tenant_idx;
      d.e2e_us = submit_timer.ElapsedUs();
      if (r.ok()) {
        d.ok = true;
        d.degraded = r->profile.degraded;
        for (const core::PhaseRecord& phase : r->profile.phases) {
          if (phase.label == "admission-wait") {
            d.wait_us = static_cast<int64_t>(phase.cpu_work);
            break;
          }
        }
      } else if (r.status().code() == StatusCode::kOverloaded) {
        d.shed = true;
      } else {
        d.error = r.status();
      }
      {
        common::MutexLock lock(&eq.mu);
        eq.events.push_back(std::move(d));
      }
      eq.cv.notify_one();
    };
    service->SubmitAsync(queries[qi].spec, AsyncTenantName(tenant_idx),
                         std::move(sopts));
    ++outstanding;
    ++run.submitted;
  };

  const WallTimer run_timer;
  // Prime every tenant's window; from here on the client thread only
  // reacts to completions, keeping in_flight submissions outstanding.
  for (int t = 0; t < tenants; ++t) {
    for (int s = 0; s < slots_per_tenant; ++s) submit_one(t);
  }

  std::vector<serve::TenantStats> snapshot;
  bool refill = true;
  while (outstanding > 0) {
    Done d;
    {
      common::MutexLock lock(&eq.mu);
      // Explicit wait loop for the thread-safety analysis.
      while (eq.events.empty()) eq.cv.wait(lock);
      d = std::move(eq.events.front());
      eq.events.pop_front();
    }
    --outstanding;
    if (d.ok) {
      ++run.completed;
      if (d.degraded) ++run.degraded;
      run.e2e_us.push_back(d.e2e_us);
      run.wait_us.push_back(d.wait_us);
    } else if (d.shed) {
      ++run.shed;
    } else {
      ++run.failed;
      if (run.first_error.ok()) run.first_error = d.error;
    }
    if (refill && run.completed >= options.target_completions) {
      // Fairness basis: every tenant still holds its full window here, so
      // achieved admission shares reflect the scheduler, not the drain.
      refill = false;
      run.wall_to_target_us = run_timer.ElapsedUs();
      snapshot = service->tenant_stats();
    }
    if (refill) submit_one(d.tenant);
  }
  run.wall_us = run_timer.ElapsedUs();
  if (snapshot.empty()) snapshot = service->tenant_stats();

  const serve::ServiceStats sstats = service->stats();
  run.peak_inflight = sstats.peak_inflight;
  run.wakeups = sstats.wakeups;

  std::vector<serve::TenantStats> final_stats = service->tenant_stats();
  std::map<std::string, uint64_t> snapshot_admitted;
  for (const serve::TenantStats& ts : snapshot) {
    snapshot_admitted[ts.tenant] = ts.admitted;
    run.total_admitted_at_snapshot += ts.admitted;
  }
  run.tenants.reserve(final_stats.size());
  for (int t = 0; t < tenants; ++t) {
    const std::string name = AsyncTenantName(t);
    AsyncTenantOutcome out;
    out.tenant = name;
    out.deadline_class =
        t < options.deadline_tenants && options.deadline_us > 0;
    for (const serve::TenantStats& ts : final_stats) {
      if (ts.tenant != name) continue;
      out.weight = ts.weight;
      out.submitted = ts.submitted;
      out.admitted = ts.admitted;
      out.completed = ts.completed;
      out.shed = ts.shed;
      out.busy_us = ts.busy_us;
      out.device_budget_bytes = ts.device_budget_bytes;
      break;
    }
    auto snap = snapshot_admitted.find(name);
    if (snap != snapshot_admitted.end()) out.admitted_at_snapshot = snap->second;
    run.tenants.push_back(std::move(out));
  }
  return run;
}

}  // namespace blusim::harness
