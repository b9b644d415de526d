#ifndef BLUSIM_RUNTIME_PARTITION_SWEEP_H_
#define BLUSIM_RUNTIME_PARTITION_SWEEP_H_

#include <cstdint>
#include <vector>

#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// The group-count estimate (the router's, and a group-by's own when its
// caller has none): every selected key's hash fed to a KMV sketch of size
// `k`, one sketch per morsel on `pool` (nullptr = serial), merged
// afterwards. A merged sketch keeps the k smallest distinct hashes in any
// merge order, so the estimate is the serial one. `selection` nullptr = all
// rows; a selection that is one HashPartition range of `hash_partitions`
// is estimated from the hash bits below the ones its keys share.
uint64_t CountDistinctKeys(const GroupByPlan& plan, ThreadPool* pool,
                           const std::vector<uint32_t>* selection, size_t k,
                           uint32_t hash_partitions = 1);

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
// the ones its keys share. With `hashes`, each list's key hashes are
// scattered alongside it, (*hashes)[p][i] being the hash of row
// partitions[p][i], so the partition's chain need not hash again.
std::vector<std::vector<uint32_t>> PartitionRows(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint32_t num_partitions,
    std::vector<std::vector<uint64_t>>* hashes = nullptr);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_PARTITION_SWEEP_H_
