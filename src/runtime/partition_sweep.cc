#include "runtime/partition_sweep.h"

#include <algorithm>

#include "common/hash.h"
#include "common/kmv.h"

namespace blusim::runtime {

namespace {

// Sweep morsel size (the CPU chain's granularity).
constexpr uint64_t kSweepMorselRows = 65536;
// The full-pass sketch's morsels: smaller than the sweep's, so a selection
// of a few morsels still spreads over the pool (the estimate does not
// depend on them).
constexpr uint64_t kSketchMorselRows = 16384;

// Hashes the keys of the input positions of `range` (through the selection
// `rows`, nullptr = row ids) a cache-sized block at a time with the plan's
// key kernel, and calls f(first position, hashes, count) per block.
template <typename F>
void ForEachHashBlock(const GroupByPlan& plan, const uint32_t* rows,
                      MorselRange range, F&& f) {
  constexpr uint64_t kBlockRows = 4096;
  uint64_t hashes[kBlockRows];
  for (uint64_t begin = range.begin; begin < range.end; begin += kBlockRows) {
    const MorselRange block{begin, std::min(begin + kBlockRows, range.end)};
    plan.HashKeys(rows, block, hashes);
    f(begin, hashes, block.size());
  }
}

const uint32_t* RowsOf(const std::vector<uint32_t>* selection) {
  return selection != nullptr ? selection->data() : nullptr;
}

}  // namespace

uint64_t CountDistinctKeys(const GroupByPlan& plan, ThreadPool* pool,
                           const std::vector<uint32_t>* selection, size_t k,
                           uint32_t hash_partitions) {
  const uint64_t total_rows =
      selection != nullptr ? selection->size() : plan.table().num_rows();
  const uint64_t num_morsels = NumMorsels(total_rows, kSketchMorselRows);
  std::vector<KmvSketch> sketches(num_morsels, KmvSketch(k));
  auto sketch_morsel = [&](uint64_t m) {
    KmvSketch& sketch = sketches[m];
    ForEachHashBlock(plan, RowsOf(selection),
                     GetMorsel(total_rows, kSketchMorselRows, m),
                     [&](uint64_t, const uint64_t* hashes, uint64_t n) {
                       sketch.AddHashes(hashes, n);
                     });
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, sketch_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) sketch_morsel(m);
  }
  KmvSketch merged(k);
  for (const KmvSketch& sketch : sketches) merged.Merge(sketch);
  return merged.Estimate(hash_partitions);
}

std::vector<std::vector<uint32_t>> PartitionRows(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint32_t num_partitions, std::vector<std::vector<uint64_t>>* hashes) {
  const uint64_t total_rows =
      selection != nullptr ? selection->size() : plan.table().num_rows();
  const uint64_t num_morsels = NumMorsels(total_rows, kSweepMorselRows);
  const bool keep_hashes = hashes != nullptr;
  // Per morsel: each partition's rows and (kept) key hashes.
  struct Buckets {
    std::vector<std::vector<uint32_t>> rows;
    std::vector<std::vector<uint64_t>> hashes;
  };
  std::vector<Buckets> morsel_buckets(num_morsels);
  auto sweep_morsel = [&](uint64_t m) {
    const MorselRange r = GetMorsel(total_rows, kSweepMorselRows, m);
    Buckets buckets;
    buckets.rows.resize(num_partitions);
    if (keep_hashes) buckets.hashes.resize(num_partitions);
    ForEachHashBlock(
        plan, RowsOf(selection), r,
        [&](uint64_t begin, const uint64_t* block_hashes, uint64_t n) {
          for (uint64_t j = 0; j < n; ++j) {
            const uint64_t i = begin + j;
            const uint32_t row = selection != nullptr
                                     ? (*selection)[i]
                                     : static_cast<uint32_t>(i);
            const uint32_t p = HashPartition(
                block_hashes[j] * hash_partitions, num_partitions);
            buckets.rows[p].push_back(row);
            if (keep_hashes) buckets.hashes[p].push_back(block_hashes[j]);
          }
        });
    morsel_buckets[m] = std::move(buckets);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, sweep_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) sweep_morsel(m);
  }
  // Concatenates each partition's per-morsel lists in morsel order.
  auto concat = [&](auto member, auto* out) {
    out->resize(num_partitions);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      uint64_t n = 0;
      for (const Buckets& buckets : morsel_buckets) {
        n += (buckets.*member)[p].size();
      }
      auto& list = (*out)[p];
      list.reserve(n);
      for (const Buckets& buckets : morsel_buckets) {
        list.insert(list.end(), (buckets.*member)[p].begin(),
                    (buckets.*member)[p].end());
      }
    }
  };
  std::vector<std::vector<uint32_t>> partitions;
  concat(&Buckets::rows, &partitions);
  if (keep_hashes) concat(&Buckets::hashes, hashes);
  return partitions;
}

}  // namespace blusim::runtime
