#include "groupby/moderator.h"

#include "groupby/kernels.h"
#include "groupby/price.h"

namespace blusim::groupby {

using gpusim::GroupByKernelKind;

GroupByKernelKind GpuModerator::ChooseKernel(
    const gpusim::CostModel& cost, const gpusim::GroupByKernelParams& params,
    const HashTableLayout& layout, uint64_t usable_shared_mem) {
  const uint64_t shared_cap = SharedTableCapacity(layout, usable_shared_mem);
  const bool shared_feasible =
      !params.wide_key && shared_cap > 0 &&
      static_cast<double>(params.groups) <=
          static_cast<double>(shared_cap) * kSharedTableMaxFill;

  auto model_time = [&](GroupByKernelKind kind) {
    return KernelTime(cost, kind, params);
  };
  GroupByKernelKind best = GroupByKernelKind::kRegular;
  SimTime best_time = model_time(best);
  auto consider = [&](GroupByKernelKind kind) {
    const SimTime t = model_time(kind);
    if (t < best_time) {
      best = kind;
      best_time = t;
    }
  };
  if (shared_feasible) consider(GroupByKernelKind::kSharedMem);
  consider(GroupByKernelKind::kRowLock);
  return best;
}

}  // namespace blusim::groupby
