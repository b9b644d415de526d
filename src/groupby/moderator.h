#ifndef BLUSIM_GROUPBY_MODERATOR_H_
#define BLUSIM_GROUPBY_MODERATOR_H_

#include <cstdint>

#include "gpusim/cost_model.h"
#include "gpusim/sim_device.h"
#include "groupby/layout.h"

namespace blusim::groupby {

// Kernel 2 is feasible only when the estimated groups fill at most this
// fraction of the per-SMX shared-memory table: past it, hash collisions in
// the small table and the KMV estimate's error leave too little headroom.
inline constexpr double kSharedTableMaxFill = 0.5;

// The shared-memory split kernel 2 configures on launch (section 4.3.2:
// 48 KB shared, 16 KB L1), and its shared budget per SMX on `spec`. Kernel
// 2 is priced on this budget, not on a device's current split, so the
// kernel choice depends on the query alone and not on which kernels the
// device ran before.
inline constexpr gpusim::SharedMemConfig kSharedKernelConfig =
    gpusim::SharedMemConfig::kShared48L116;
inline uint64_t SharedKernelBudget(const gpusim::DeviceSpec& spec) {
  return gpusim::SharedMemBytes(spec, kSharedKernelConfig);
}

// The GPU moderator (section 4.2): picks the group-by kernel for a query at
// runtime from the optimizer/KMV metadata. It holds no state; the choice is
// one function of the query shape and the cost model.
class GpuModerator {
 public:
  // Among the feasible kernels, the one with the lowest modeled time
  // (groupby/price.h KernelTime: the fused kernel model for record input,
  // the SoA one otherwise). Kernels are tried in the order 1, 2, 3 and
  // ties go to the earlier one. Kernels 1 and 3 are always feasible;
  // kernel 2 only for a <=64-bit key whose estimated groups fit
  // kSharedTableMaxFill of the shared table sized by `layout` and
  // `usable_shared_mem`.
  static gpusim::GroupByKernelKind ChooseKernel(
      const gpusim::CostModel& cost, const gpusim::GroupByKernelParams& params,
      const HashTableLayout& layout, uint64_t usable_shared_mem);
};

}  // namespace blusim::groupby

#endif  // BLUSIM_GROUPBY_MODERATOR_H_
