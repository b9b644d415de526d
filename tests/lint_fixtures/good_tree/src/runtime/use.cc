// Known-good fixture: runtime (band 2) including common (band 0) is a
// legal downward include; metric registration follows the conventions;
// threading goes through the annotated wrappers.
#include "common/util.h"

namespace fixture {

struct Registry {
  int* GetCounter(const char* name) { return name ? &v : &v; }
  int* GetGauge(const char* name) { return name ? &v : &v; }
  int v = 0;
};

// A comment mentioning std::mutex must not trip the primitive check, nor
// one naming plan.PackKey(row), dst.AppendFrom(src, row) or
// AccumulateRow(slot, pv, i, acc) the per-row check, nor one naming a
// KmvSketch the estimate check.
void Register(Registry* r) {
  r->GetCounter("blusim_fixture_ops_total");
  r->GetGauge("blusim_fixture_depth");
}

}  // namespace fixture
