#include "common/lockdep.h"

#include <execinfo.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
// Raw std::mutex on purpose: lockdep sits *below* common::Mutex (whose
// hooks call into here), so its own state cannot be guarded by an
// instrumented lock without infinite recursion. This file is allowlisted
// by scripts/blusim_lint.py check C alongside common/annotations.h.
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/logging.h"

namespace blusim::common {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "unranked";
    case LockRank::kCommon:   return "common";
    case LockRank::kObs:      return "obs";
    case LockRank::kRuntime:  return "runtime";
    case LockRank::kGpusim:   return "gpusim";
    case LockRank::kSched:    return "sched";
    case LockRank::kExec:     return "exec";
    case LockRank::kCore:     return "core";
    case LockRank::kServe:    return "serve";
  }
  return "?";
}

const char* LockdepReportKindName(LockdepReport::Kind kind) {
  switch (kind) {
    case LockdepReport::Kind::kRankViolation: return "lock-rank violation";
    case LockdepReport::Kind::kOrderInversion: return "lock-order inversion";
  }
  return "?";
}

std::string LockdepReport::ToString() const {
  std::ostringstream os;
  os << LockdepReportKindName(kind) << ": acquiring '" << acquired_name
     << "' (rank " << LockRankName(acquired_rank) << ") while holding '"
     << held_name << "' (rank " << LockRankName(held_rank) << ")";
  if (!cycle.empty()) {
    os << "; cycle:";
    for (size_t i = 0; i < cycle.size(); ++i) {
      os << (i == 0 ? " " : " -> ") << cycle[i];
    }
  }
  if (!held_backtrace.empty()) {
    os << "\n  held lock acquired at:";
    for (const std::string& f : held_backtrace) os << "\n    " << f;
  }
  if (!acquire_backtrace.empty()) {
    os << "\n  offending acquisition at:";
    for (const std::string& f : acquire_backtrace) os << "\n    " << f;
  }
  return os.str();
}

namespace lockdep {
namespace {

constexpr int kMaxFrames = 24;
// Skip the capture frames themselves (CaptureBacktrace, OnAcquire) so the
// report starts at Mutex::Lock's caller.
constexpr int kSkipFrames = 2;

struct Backtrace {
  void* frames[kMaxFrames];
  int count = 0;
};

void CaptureBacktrace(Backtrace* bt) {
  bt->count = backtrace(bt->frames, kMaxFrames);
}

std::vector<std::string> ResolveBacktrace(const Backtrace& bt) {
  std::vector<std::string> out;
  if (bt.count <= kSkipFrames) return out;
  char** symbols = backtrace_symbols(bt.frames, bt.count);
  if (symbols == nullptr) return out;
  out.reserve(static_cast<size_t>(bt.count - kSkipFrames));
  for (int i = kSkipFrames; i < bt.count; ++i) {
    out.emplace_back(symbols[i]);
  }
  std::free(symbols);
  return out;
}

// A lock *class*: every Mutex constructed with the same name shares one
// node in the order graph, like kernel lockdep's lock classes.
struct LockClass {
  std::string name;
  LockRank rank = LockRank::kUnranked;

  struct Edge {
    // Where each side of the first recorded (held, acquired) pair was
    // acquired; resolved lazily if the edge ever joins a report.
    Backtrace held_bt;
    Backtrace acquire_bt;
  };
  // this -> successor: successor was acquired while `this` was held.
  std::map<LockClass*, Edge> after;
};

struct HeldLock {
  const void* instance = nullptr;
  LockClass* cls = nullptr;
  Backtrace acquired_at;
};

struct GlobalState {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<LockClass>> classes;
  std::vector<LockdepReport> reports;
  // Each (held, acquired) class pair reports at most once per kind, so a
  // hot path with a bad edge does not flood the log.
  std::set<std::pair<LockClass*, LockClass*>> reported_rank;
  std::set<std::pair<LockClass*, LockClass*>> reported_order;
  size_t edges = 0;
};

GlobalState& State() {
  static GlobalState* state = new GlobalState();  // leaked: outlives TLS
  return *state;
}

std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

// Depth-first reachability over `after` edges. The graph is tiny (one
// node per named lock class), so no visited-set reuse is needed.
bool FindPath(LockClass* from, LockClass* to, std::set<LockClass*>* visited,
              std::vector<LockClass*>* path) {
  if (from == to) {
    path->push_back(from);
    return true;
  }
  if (!visited->insert(from).second) return false;
  for (auto& [next, edge] : from->after) {
    if (FindPath(next, to, visited, path)) {
      path->insert(path->begin(), from);
      return true;
    }
  }
  return false;
}

void Record(GlobalState* state, LockdepReport report) {
  BLUSIM_LOG(Error) << "lockdep: " << report.ToString();
  state->reports.push_back(std::move(report));
}

#if BLUSIM_LOCKDEP
bool EnabledFromEnv() {
  const char* env = std::getenv("BLUSIM_LOCKDEP");
  if (env == nullptr) return true;
  const std::string v(env);
  return !(v == "0" || v == "off" || v == "OFF" || v == "false");
}
#endif

}  // namespace

bool Enabled() {
#if BLUSIM_LOCKDEP
  static const bool enabled = EnabledFromEnv();
  return enabled;
#else
  return false;
#endif
}

void OnAcquire(const void* instance, const char* name, LockRank rank,
               bool trylock) {
  if (!Enabled()) return;
  Backtrace bt;
  CaptureBacktrace(&bt);

  std::vector<HeldLock>& held = HeldStack();
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);

  auto it = state.classes.find(name);
  if (it == state.classes.end()) {
    auto cls = std::make_unique<LockClass>();
    cls->name = name;
    cls->rank = rank;
    it = state.classes.emplace(name, std::move(cls)).first;
  }
  LockClass* acquired = it->second.get();

  for (const HeldLock& h : held) {
    if (h.instance == instance) {
      // Re-acquiring the very same std::mutex instance self-deadlocks.
      if (state.reported_order.emplace(h.cls, acquired).second) {
        LockdepReport report;
        report.kind = LockdepReport::Kind::kOrderInversion;
        report.held_name = h.cls->name;
        report.held_rank = h.cls->rank;
        report.acquired_name = acquired->name;
        report.acquired_rank = acquired->rank;
        report.cycle = {acquired->name, acquired->name};
        report.held_backtrace = ResolveBacktrace(h.acquired_at);
        report.acquire_backtrace = ResolveBacktrace(bt);
        Record(&state, std::move(report));
      }
      continue;
    }
    if (trylock || h.cls == acquired) continue;

    // Rank walk-down check: the acquired band must not be above any held
    // band (unranked locks opt out and rely on the order graph alone).
    if (rank != LockRank::kUnranked && h.cls->rank != LockRank::kUnranked &&
        rank > h.cls->rank &&
        state.reported_rank.emplace(h.cls, acquired).second) {
      LockdepReport report;
      report.kind = LockdepReport::Kind::kRankViolation;
      report.held_name = h.cls->name;
      report.held_rank = h.cls->rank;
      report.acquired_name = acquired->name;
      report.acquired_rank = acquired->rank;
      report.held_backtrace = ResolveBacktrace(h.acquired_at);
      report.acquire_backtrace = ResolveBacktrace(bt);
      Record(&state, std::move(report));
    }

    // Order graph: record held -> acquired; if acquired already reaches
    // held, this edge closes a cycle -- the two-edge A->B / B->A case and
    // longer chains alike.
    if (h.cls->after.find(acquired) == h.cls->after.end()) {
      std::set<LockClass*> visited;
      std::vector<LockClass*> path;
      if (FindPath(acquired, h.cls, &visited, &path)) {
        if (state.reported_order.emplace(h.cls, acquired).second) {
          LockdepReport report;
          report.kind = LockdepReport::Kind::kOrderInversion;
          report.held_name = h.cls->name;
          report.held_rank = h.cls->rank;
          report.acquired_name = acquired->name;
          report.acquired_rank = acquired->rank;
          for (LockClass* c : path) report.cycle.push_back(c->name);
          report.cycle.push_back(acquired->name);
          report.held_backtrace = ResolveBacktrace(h.acquired_at);
          report.acquire_backtrace = ResolveBacktrace(bt);
          Record(&state, std::move(report));
        }
      } else {
        LockClass::Edge edge;
        edge.held_bt = h.acquired_at;
        edge.acquire_bt = bt;
        h.cls->after.emplace(acquired, edge);
        ++state.edges;
      }
    }
  }

  HeldLock entry;
  entry.instance = instance;
  entry.cls = acquired;
  entry.acquired_at = bt;
  held.push_back(entry);
}

void OnRelease(const void* instance) {
  if (!Enabled()) return;
  std::vector<HeldLock>& held = HeldStack();
  // Locks are usually released in LIFO order, but split acquire/release
  // paths may interleave: search from the top.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->instance == instance) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

size_t report_count() {
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);
  return state.reports.size();
}

std::vector<LockdepReport> Reports() {
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);
  return state.reports;
}

std::vector<LockdepReport> DrainReports() {
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);
  std::vector<LockdepReport> out;
  out.swap(state.reports);
  return out;
}

size_t edge_count() {
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);
  return state.edges;
}

void ResetForTest() {
  GlobalState& state = State();
  std::lock_guard<std::mutex> guard(state.mu);
  state.reports.clear();
  state.reported_rank.clear();
  state.reported_order.clear();
  for (auto& [name, cls] : state.classes) cls->after.clear();
  state.edges = 0;
}

}  // namespace lockdep
}  // namespace blusim::common
