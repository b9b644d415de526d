// Known-bad fixture: a staging sweep packing and hashing one key per row
// instead of calling the key kernel once per morsel.
#include "runtime/groupby_plan.h"

void StageKeys(const blusim::runtime::GroupByPlan& plan, unsigned long n,
               unsigned long* keys, unsigned long* hashes) {
  for (unsigned long row = 0; row < n; ++row) {
    keys[row] = plan.PackKey(row);
    hashes[row] = plan.KeyHash(row);
  }
}
