#ifndef BLUBENCH_LAYERS_H_
#define BLUBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace blubench {

using Clock = std::chrono::steady_clock;
using Totals = std::map<std::string, double>;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One wall-clock span around a call into a layer's public entry point.
// Spans of one query share `query_id`; `parent` indexes the causing span
// (-1 for the query's root span).
struct Span {
  uint64_t query_id = 0;
  int parent = -1;
  std::string name;
  std::string query;
  Clock::time_point start;
  Clock::time_point end;
};

// Keeps spans in memory; they are written out once the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int Add(Span span);
  Span& at(int id) { return spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }
  // A span's self time is its duration minus its children's durations.
  // Returns the summed self time per span name, in milliseconds.
  Totals SelfMsByName() const;
  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one
  // complete event per span, with the query id, parent and self time.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Adds one executed query's simulated time per layer, in ms, read from its
// PhaseRecords and trace spans, plus its kernel retry count.
void AddSimulatedLayers(const blusim::core::QueryProfile& profile,
                        Totals* totals);

// Counter, gauge and histogram values of the engine registry summed over
// labels per family (histograms as "<name>.sum" and "<name>.count"), and
// per label value of counters and gauges ("<name>{<key>=<value>}").
Totals ReadCounters(const blusim::obs::MetricsRegistry& metrics);
Totals Delta(const Totals& after, const Totals& before);

// Replays an executed query through the layer entry points Engine::Execute
// uses -- FilterScan, HashJoin, CpuGroupBy or StageForDevice + GpuGroupBy,
// PickDeviceWithWait, HybridSorter::Sort, MaterializeRows -- on the same
// inputs and the same routing `executed` took, recording one span per call
// under `root` (the query's core.execute span).
blusim::Status ReplayLayers(blusim::core::Engine* engine,
                            const blusim::core::QuerySpec& query,
                            const blusim::core::QueryProfile& executed,
                            uint64_t query_id, int root,
                            SpanRecorder* recorder);

}  // namespace blubench

#endif  // BLUBENCH_LAYERS_H_
