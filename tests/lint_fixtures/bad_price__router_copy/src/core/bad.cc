// Known-bad fixture: the router pricing the CPU chain from the cost-model
// primitive instead of groupby::CpuChainTime.
#include "gpusim/cost_model.h"

long RouterCpuPrice(const blusim::gpusim::CostModel& cost) {
  return cost.HostGroupByTime(1000000, 5000, 2, 1);
}
