// BluSim benchmark driver. Runs one workload against the public engine and
// serving APIs and prints one JSON object of raw measurements on stdout;
// blubench/run.py turns it into the reported metrics.
//
//   blubench --workload <dashboard|offload|multiuser> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end window with no span recording.
// --trace 1 measures a shorter untraced window (counters, simulated layer
// time and the untraced qps) and a traced window whose spans give per-layer
// wall time, alternating pass by pass on the serial workloads; the spans
// are written to --trace-out.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "layers.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace blubench {
namespace {

namespace core = blusim::core;
using blusim::workload::Database;

// Database generations timed per run; setup_s is their median.
constexpr int kSetupReps = 5;
// Completed queries an end-to-end window needs at least, so that p90 has
// ten samples beyond it.
constexpr uint64_t kMinSamples = 100;
// Analysts and executor slots of the multiuser workload.
constexpr int kAnalysts = 3;
constexpr int kExecutors = 2;

struct Args {
  Workload workload = Workload::kDashboard;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && argc % 2 == 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1000.0;
}

std::vector<int> Permutation(size_t n, blusim::Rng* rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng->Below(i)]);
  return perm;
}

// Simulated time of one query with the serving layer's wall-clock
// admission wait taken back out, so sim_ms stays on the simulated clock.
blusim::SimTime SimUs(const core::QueryProfile& profile) {
  blusim::SimTime us = profile.total_elapsed;
  for (const core::PhaseRecord& p : profile.phases) {
    if (p.label == "admission-wait" && !p.overlapped) us -= p.elapsed;
  }
  return us;
}

double AdmissionWaitMs(const core::QueryProfile& profile) {
  double ms = 0;
  for (const core::PhaseRecord& p : profile.phases) {
    if (p.label == "admission-wait") {
      ms += static_cast<double>(p.cpu_work) / 1000.0;
    }
  }
  return ms;
}

struct Env {
  Args args;
  std::unique_ptr<Database> db;
  std::unique_ptr<core::Engine> engine;
  std::vector<core::QuerySpec> queries;
  std::vector<Fingerprint> reference;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
};

// One measured window of a workload.
struct Window {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t ok = 0;
  std::vector<std::string> bad;  // failed or mismatched, by query name
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  // Integer sum, so the mean is the same for any number of whole passes.
  blusim::SimTime sim_us = 0;
  double elapsed_s = 0;  // wall time of the loop minus checking/replay
  double client_lag_ms = 0;
  int passes = 0;
  // FNV-1a over each client's first pass; the interleaving of clients and
  // the number of passes depend on timing, each client's orders do not.
  uint64_t order_hash[kAnalysts] = {};
  void Executed(int client, int idx) {
    order_hash[client] = (order_hash[client] ^ static_cast<uint64_t>(idx)) *
                         1099511628211ULL;
  }
  uint64_t OrderHash() const {
    uint64_t h = 14695981039346656037ULL;
    for (uint64_t part : order_hash) h = (h ^ part) * 1099511628211ULL;
    return h;
  }
  Totals sim_layers;
  Totals counters;
  blusim::serve::ServiceStats serve;
  double qps() const { return elapsed_s > 0 ? completed / elapsed_s : 0; }
};

blusim::Status Setup(Env* env) {
  const auto scale = MakeScale(env->args.seed);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    env->engine.reset();
    env->db.reset();
    const Clock::time_point t0 = Clock::now();
    BLUSIM_ASSIGN_OR_RETURN(Database db,
                            blusim::workload::GenerateDatabase(scale));
    const Clock::time_point t1 = Clock::now();
    auto engine = std::make_unique<core::Engine>(MakeEngineConfig(true));
    for (const auto& [name, table] : db) {
      BLUSIM_RETURN_NOT_OK(engine->RegisterTable(name, table));
    }
    const Clock::time_point t2 = Clock::now();
    env->generate_s.push_back(Seconds(t0, t1));
    env->setup_s.push_back(Seconds(t0, t2));
    env->db = std::make_unique<Database>(std::move(db));
    env->engine = std::move(engine);
  }
  env->queries = MakeQueries(env->args.workload, *env->db, env->args.seed);
  return blusim::Status::OK();
}

// Fingerprints every query's result on a GPU-off engine over the same
// tables; untimed.
blusim::Status BuildReference(Env* env) {
  core::Engine ref(MakeEngineConfig(false));
  for (const auto& [name, table] : *env->db) {
    BLUSIM_RETURN_NOT_OK(ref.RegisterTable(name, table));
  }
  for (const core::QuerySpec& q : env->queries) {
    BLUSIM_ASSIGN_OR_RETURN(core::QueryResult r, ref.Execute(q));
    env->reference.push_back(FingerprintOf(*r.table));
  }
  return blusim::Status::OK();
}

// Checks one outcome against the reference and tallies it.
void Check(const Env& env, int idx,
           const blusim::Result<core::QueryResult>& r, Window* w) {
  const core::QuerySpec& q = env.queries[idx];
  if (!r.ok()) {
    w->bad.push_back(q.name + ": " + r.status().ToString());
    return;
  }
  ++w->completed;
  w->sim_us += SimUs(r->profile);
  AddSimulatedLayers(r->profile, &w->sim_layers);
  const bool same = SameResult(FingerprintOf(*r->table), env.reference[idx]);
  const bool ordered =
      !SortsFactRows(q) || IsOrdered(*r->table, q.order_by);
  if (same && ordered) {
    ++w->ok;
  } else {
    w->bad.push_back(q.name + (same ? ": not ordered" : ": result mismatch"));
  }
}

// How long a window runs: whole passes until the limits are reached.
struct Limits {
  double seconds;
  uint64_t min_samples;  // serial workloads
  int min_passes;        // per multiuser analyst
};

// Runs one pass of `perm` into `w`. With a recorder, each query gets a
// core.execute span and is replayed through the layer entry points.
// Checking and replay are not measured: `w->elapsed_s` grows by the rest.
void RunPass(Env* env, const std::vector<int>& perm, Window* w,
             SpanRecorder* recorder) {
  const Totals before = ReadCounters(env->engine->metrics());
  const Clock::time_point start = Clock::now();
  double unmeasured_s = 0;
  Clock::time_point prev_end = start;
  for (int idx : perm) {
    const core::QuerySpec& q = env->queries[idx];
    if (w->passes == 0) w->Executed(0, idx);
    const Clock::time_point t0 = Clock::now();
    auto r = env->engine->Execute(q);
    const Clock::time_point t1 = Clock::now();
    ++w->attempted;
    w->latency_ms.push_back(Ms(t0, t1));
    w->client_lag_ms += Ms(prev_end, t0);
    Check(*env, idx, r, w);
    if (recorder != nullptr && r.ok()) {
      Span root;
      root.query_id = recorder->spans().size() + 1;
      root.name = "core.execute";
      root.query = q.name;
      root.start = t0;
      root.end = t1;
      const int id = recorder->Add(root);
      blusim::Status st = ReplayLayers(env->engine.get(), q, r->profile,
                                       root.query_id, id, recorder);
      if (!st.ok()) w->bad.push_back(q.name + ": replay " + st.ToString());
    }
    prev_end = Clock::now();
    unmeasured_s += Seconds(t1, prev_end);
  }
  ++w->passes;
  w->elapsed_s += Seconds(start, Clock::now()) - unmeasured_s;
  const Totals delta = Delta(ReadCounters(env->engine->metrics()), before);
  for (const auto& [name, value] : delta) w->counters[name] += value;
}

// One client running whole passes over the queries, each pass in a fresh
// seeded order, until `w` reaches the limits: at least `min_samples`
// queries, and the whole number of passes whose measured time comes
// nearest to `seconds` (another pass is run while less than half of one is
// missing). With `traced`, passes alternate between `w` and `traced` (spans
// recorded), so that both windows see the same host conditions.
void RunSerial(Env* env, Limits limits, Window* w, Window* traced,
               SpanRecorder* recorder) {
  blusim::Rng rng(env->args.seed * 0x9e3779b97f4a7c15ULL + 1);
  double pass_s = 0;
  do {
    const double before_s = w->elapsed_s;
    RunPass(env, Permutation(env->queries.size(), &rng), w, nullptr);
    pass_s = w->elapsed_s - before_s;
    if (traced != nullptr) {
      RunPass(env, Permutation(env->queries.size(), &rng), traced, recorder);
    }
  } while (w->elapsed_s + pass_s / 2 < limits.seconds ||
           w->completed < limits.min_samples);
}

// kAnalysts tenants in a closed loop through QueryService::SubmitAsync,
// driven by this one client thread. Each analyst runs the same number of
// whole seeded permutations of the queries: the number that comes nearest
// to filling `limits.seconds` at the pace of the first pass anyone
// completes, and at least `limits.min_passes`, which keeps the tail where
// fewer analysts are left running a small part of the window. With a
// recorder, the first analyst's queries get a core.execute span (admission
// to completion) and are replayed after the window, on an idle engine.
Window RunMultiuser(Env* env, Limits limits, SpanRecorder* recorder) {
  blusim::serve::ServiceOptions sopts;
  sopts.max_concurrent = kExecutors;
  sopts.max_queue_depth = 16;
  for (int a = 0; a < kAnalysts; ++a) {
    sopts.tenant_classes.push_back({"t" + std::to_string(a), 1.0});
  }
  blusim::serve::QueryService service(env->engine.get(), sopts);

  struct Analyst {
    blusim::Rng rng;
    std::vector<int> perm;
    size_t pos = 0;
    int passes = 0;
    int idx = 0;
    blusim::serve::QueryHandle handle;
    Clock::time_point submitted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<int, Clock::time_point>> done;

  Window w;
  std::vector<Analyst> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.push_back({blusim::Rng(env->args.seed * 1000003 + a + 1), {}});
  }
  struct Replay {
    int idx;
    core::QueryProfile profile;
    Clock::time_point start, end;
  };
  std::vector<Replay> replays;

  auto submit = [&](int a) {
    Analyst& an = analysts[a];
    if (an.pos == an.perm.size()) {
      an.perm = Permutation(env->queries.size(), &an.rng);
      an.pos = 0;
    }
    an.idx = an.perm[an.pos++];
    if (an.passes == 0) w.Executed(a, an.idx);
    blusim::serve::SubmitOptions so;
    so.on_complete = [&, a](const blusim::Result<core::QueryResult>&) {
      const Clock::time_point t = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu);
        done.emplace_back(a, t);
      }
      cv.notify_one();
    };
    an.submitted = Clock::now();
    an.handle = service.SubmitAsync(env->queries[an.idx],
                                    "t" + std::to_string(a), std::move(so));
    ++w.attempted;
  };

  const Totals before = ReadCounters(env->engine->metrics());
  const Clock::time_point start = Clock::now();
  for (int a = 0; a < kAnalysts; ++a) submit(a);
  int active = kAnalysts;
  int passes_each = 0;  // set when the first pass completes
  Clock::time_point last = start;
  while (active > 0) {
    std::pair<int, Clock::time_point> next;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      next = done.front();
      done.pop_front();
    }
    const auto [a, t_done] = next;
    Analyst& an = analysts[a];
    auto r = an.handle.Get();
    last = t_done;
    w.latency_ms.push_back(Ms(an.submitted, t_done));
    Check(*env, an.idx, r, &w);
    if (r.ok()) {
      const double wait_ms = AdmissionWaitMs(r->profile);
      w.queue_wait_ms.push_back(wait_ms);
      if (recorder != nullptr && a == 0) {
        const auto begin =
            an.submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   wait_ms));
        replays.push_back({an.idx, r->profile, begin, t_done});
      }
    }
    if (an.pos == an.perm.size()) {
      ++an.passes;
      ++w.passes;
      if (passes_each == 0) {
        passes_each = std::max<int>(
            limits.min_passes,
            std::lround(limits.seconds / Seconds(start, t_done)));
      }
      if (an.passes == passes_each) {
        --active;
        continue;
      }
    }
    const Clock::time_point t_submit = Clock::now();
    w.client_lag_ms += Ms(t_done, t_submit);
    submit(a);
  }
  w.elapsed_s = Seconds(start, last);
  w.counters = Delta(ReadCounters(env->engine->metrics()), before);
  w.serve = service.stats();

  for (const Replay& rp : replays) {
    Span root;
    root.query_id = recorder->spans().size() + 1;
    root.name = "core.execute";
    root.query = env->queries[rp.idx].name;
    root.start = rp.start;
    root.end = rp.end;
    const int id = recorder->Add(root);
    blusim::Status st = ReplayLayers(env->engine.get(), env->queries[rp.idx],
                                     rp.profile, root.query_id, id, recorder);
    if (!st.ok()) w.bad.push_back(root.query + ": replay " + st.ToString());
  }
  return w;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

void PrintList(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ",", v[i]);
  }
  std::printf("],");
}

// Per-layer metrics of a traced run, per completed query: simulated time
// and counter deltas from the untraced window `u`, span self times from the
// traced window (`replayed` queries).
Totals LayerMetrics(const Env& env, const Window& u, const Window& t,
                    const SpanRecorder& spans, uint64_t replayed) {
  Totals m;
  const double n = std::max<uint64_t>(u.completed, 1);
  const double nr = std::max<uint64_t>(replayed, 1);
  auto counter = [&](const std::string& name) {
    auto it = u.counters.find(name);
    return it == u.counters.end() ? 0.0 : it->second;
  };
  auto sim = [&](const char* name) {
    auto it = u.sim_layers.find(name);
    return it == u.sim_layers.end() ? 0.0 : it->second / n;
  };
  const Totals self = spans.SelfMsByName();
  auto wall = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / nr;
  };
  double execute_ms = 0;
  for (const Span& s : spans.spans()) {
    if (s.parent < 0) execute_ms += Ms(s.start, s.end);
  }

  m["workload.generate_s"] = Median(env.generate_s);
  m["core.execute_wall_ms"] = execute_ms / nr;
  m["core.overhead_wall_ms"] = wall("core.execute");
  m["core.materialize_wall_ms"] = wall("core.materialize");
  m["runtime.scan_wall_ms"] = wall("runtime.scan");
  m["runtime.scan_sim_ms"] = sim("runtime.scan_sim_ms");
  m["runtime.join_wall_ms"] = wall("runtime.join");
  m["runtime.join_sim_ms"] = sim("runtime.join_sim_ms");
  m["runtime.cpu_groupby_wall_ms"] = wall("runtime.cpu_groupby");
  m["runtime.cpu_groupby_sim_ms"] = sim("runtime.cpu_groupby_sim_ms");
  const double waits = counter("blusim_thread_pool_task_wait_us.count");
  m["runtime.pool_task_wait_us"] =
      waits > 0 ? counter("blusim_thread_pool_task_wait_us.sum") / waits : 0;
  m["groupby.stage_wall_ms"] = wall("groupby.stage");
  m["groupby.stage_sim_ms"] = sim("groupby.stage_sim_ms");
  m["groupby.device_wall_ms"] = wall("groupby.gpu");
  m["groupby.retries"] = sim("groupby.retries");
  m["groupby.kernel_sim_ms"] = sim("groupby.kernel_sim_ms");
  for (const char* k : {"regular", "sharedmem", "rowlock"}) {
    const std::string base =
        std::string("blusim_moderator_kernel_total{kernel=groupby_") + k;
    m[std::string("groupby.kernel_") + k] =
        (counter(base + "}") + counter(base + "_fused}")) / n;
  }
  m["gpusim.transfer_sim_ms"] = sim("gpusim.transfer_sim_ms");
  m["gpusim.h2d_bytes"] = counter("blusim_bytes_h2d_total") / n;
  m["gpusim.d2h_bytes"] = counter("blusim_bytes_d2h_total") / n;
  m["sched.reservation_wait_wall_ms"] = wall("sched.pick");
  m["sched.reservation_wait_sim_ms"] = sim("sched.reservation_wait_sim_ms");
  m["sched.waits"] = counter("blusim_sched_reservation_waits_total") / n;
  m["sched.denials"] = counter("blusim_sched_reservation_denials_total") / n;
  m["sort.wall_ms"] = wall("sort.sort");
  m["sort.keygen_sim_ms"] = sim("sort.keygen_sim_ms");
  m["sort.kernel_sim_ms"] = sim("sort.kernel_sim_ms");
  m["sort.jobs_gpu"] = counter("blusim_sort_jobs_total{path=gpu}") / n;
  m["sort.jobs_cpu"] = counter("blusim_sort_jobs_total{path=cpu}") / n;
  m["sort.gpu_fallbacks"] = counter("blusim_sort_gpu_fallbacks_total") / n;
  std::vector<double> waits_ms = u.queue_wait_ms;
  std::sort(waits_ms.begin(), waits_ms.end());
  auto pct = [&](double p) {
    if (waits_ms.empty()) return 0.0;
    const size_t rank = static_cast<size_t>(std::ceil(p * waits_ms.size()));
    return waits_ms[std::max<size_t>(rank, 1) - 1];
  };
  m["serve.queue_wait_ms_p50"] = pct(0.5);
  m["serve.queue_wait_ms_p90"] = pct(0.9);
  m["serve.degraded_frac"] =
      counter("blusim_queries_degraded_total") / n;
  m["serve.shed"] = static_cast<double>(u.serve.shed);
  m["serve.wakeups_per_submit"] =
      u.serve.submitted > 0
          ? static_cast<double>(u.serve.wakeups) / u.serve.submitted
          : 0;
  m["harness.client_lag_ms"] =
      u.client_lag_ms / std::max<uint64_t>(u.attempted, 1);
  m["obs.trace_overhead_frac"] =
      u.qps() > 0 && t.qps() > 0 ? 1.0 - t.qps() / u.qps() : 0;
  return m;
}

int Main(int argc, char** argv) {
  Env env;
  if (!ParseArgs(argc, argv, &env.args)) {
    std::fprintf(stderr,
                 "usage: blubench --workload <dashboard|offload|multiuser> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  blusim::Status st = Setup(&env);
  if (st.ok()) st = BuildReference(&env);
  if (!st.ok()) {
    std::fprintf(stderr, "blubench: setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The reference pass already touched every table. A dashboard pass is
  // light, so one untimed pass on the measured engine warms it too; an
  // offload pass takes seconds and its first and second passes measure the
  // same, so it gets none.
  if (env.args.workload == Workload::kDashboard) {
    for (const core::QuerySpec& q : env.queries) {
      auto r = env.engine->Execute(q);
      if (!r.ok()) {
        std::fprintf(stderr, "blubench: warm-up %s failed: %s\n",
                     q.name.c_str(), r.status().ToString().c_str());
        return 1;
      }
    }
  }
  // A traced run needs per-query means, not tails: its untraced and
  // traced windows are a quarter of --seconds each, at least one pass.
  const Limits limits = env.args.trace
                            ? Limits{env.args.seconds / 4, 1, 1}
                            : Limits{env.args.seconds, kMinSamples, 2};
  Window u;
  Window t;
  SpanRecorder spans;
  if (env.args.workload == Workload::kMultiuser) {
    u = RunMultiuser(&env, limits, nullptr);
    if (env.args.trace) t = RunMultiuser(&env, limits, &spans);
  } else {
    RunSerial(&env, limits, &u, env.args.trace ? &t : nullptr, &spans);
  }
  uint64_t replayed = 0;
  for (const Span& s : spans.spans()) replayed += s.parent < 0 ? 1 : 0;
  if (env.args.trace && !env.args.trace_out.empty() &&
      !spans.WriteChromeTrace(env.args.trace_out)) {
    std::fprintf(stderr, "blubench: cannot write %s\n",
                 env.args.trace_out.c_str());
    return 1;
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"queries\":%zu,",
              WorkloadName(env.args.workload),
              static_cast<unsigned long long>(env.args.seed),
              env.queries.size());
  std::printf("\"attempted\":%llu,\"completed\":%llu,\"ok\":%llu,",
              static_cast<unsigned long long>(u.attempted + t.attempted),
              static_cast<unsigned long long>(u.completed + t.completed),
              static_cast<unsigned long long>(u.ok + t.ok));
  std::printf("\"bad\":[");
  std::vector<std::string> bad = u.bad;
  bad.insert(bad.end(), t.bad.begin(), t.bad.end());
  for (size_t i = 0; i < bad.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(bad[i]);
  }
  std::printf("],\"passes\":%d,\"elapsed_s\":%.6f,\"qps\":%.6f,", u.passes,
              u.elapsed_s, u.qps());
  std::printf("\"order_hash\":\"%016llx\",",
              static_cast<unsigned long long>(u.OrderHash()));
  std::printf("\"sim_ms\":%.6f,\"peak_rss_mb\":%.3f,",
              u.completed > 0
                  ? static_cast<double>(u.sim_us) / u.completed / 1000.0
                  : 0.0,
              PeakRssMb());
  PrintList("setup_s", env.setup_s);
  PrintList("latency_ms", u.latency_ms);
  std::printf("\"layers\":{");
  if (env.args.trace) {
    const Totals layers = LayerMetrics(env, u, t, spans, replayed);
    bool first = true;
    for (const auto& [name, value] : layers) {
      std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
      first = false;
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace blubench

int main(int argc, char** argv) { return blubench::Main(argc, argv); }
