#ifndef BLUSIM_RUNTIME_PARTITION_SWEEP_H_
#define BLUSIM_RUNTIME_PARTITION_SWEEP_H_

#include <cstdint>
#include <vector>

#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Distinct grouping keys in a strided sample of a selection: what a
// group-by that has no optimizer estimate reads before it commits to a
// strategy or a fan-out.
struct KeySample {
  uint64_t rows = 0;      // keys sampled
  uint64_t distinct = 0;  // KMV estimate of the distinct keys among them

  // Distinct keys per sampled row, in [0, 1]: near 1 when almost every key
  // is new, which is when a morsel's local table would not shrink it.
  double DistinctPerRow() const;
};

// Hashes every stride-th selected key (a stride that samples about one
// morsel's worth of rows) into a KMV sketch. `selection` nullptr = all
// rows. `hash_partitions` > 1 says the selection is one HashPartition range
// of that many, so the estimate drops the hash bits its keys share.
KeySample SampleKeys(const GroupByPlan& plan,
                     const std::vector<uint32_t>* selection,
                     uint32_t hash_partitions = 1);

// The full-pass group-count estimate: every selected key's hash fed to a
// KMV sketch of size `k`, one sketch per morsel on `pool` (nullptr =
// serial), merged afterwards. A merged sketch keeps the k smallest distinct
// hashes in any merge order, so the estimate is the serial one.
// `selection` nullptr = all rows.
uint64_t CountDistinctKeys(const GroupByPlan& plan, ThreadPool* pool,
                           const std::vector<uint32_t>* selection, size_t k);

// The hash-partition sweep: scatters the selected row ids into
// `num_partitions` (a power of two) lists by
// HashPartition(hash * hash_partitions, num_partitions) of each row's key
// hash (GroupByPlan::HashKeys).
// Equal keys land in one list, so the lists are disjoint in group space
// and their group sets merge by concatenation. Morsel-parallel on `pool`
// (nullptr = serial); per-morsel buckets are concatenated in morsel order,
// so every list keeps its rows in selection order and the result does not
// depend on thread timing. `selection` nullptr = all rows; a selection that
// is one HashPartition range of `hash_partitions` splits by the bits below
// the ones its keys share.
std::vector<std::vector<uint32_t>> PartitionRows(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint32_t num_partitions);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_PARTITION_SWEEP_H_
