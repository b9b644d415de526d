#include "runtime/partition_sweep.h"

#include <algorithm>

#include "common/hash.h"
#include "common/kmv.h"

namespace blusim::runtime {

namespace {

// Sweep morsel size (the CPU chain's granularity), and the sample a
// KeySample aims for: about one morsel of keys, so its distinct-per-row
// ratio is the reduction a morsel's local table would see.
constexpr uint64_t kSweepMorselRows = 65536;
constexpr uint64_t kSampleRows = 65536;

}  // namespace

double KeySample::DistinctPerRow() const {
  if (rows == 0) return 0.0;
  return std::min(1.0, static_cast<double>(distinct) /
                           static_cast<double>(rows));
}

KeySample SampleKeys(const GroupByPlan& plan,
                     const std::vector<uint32_t>* selection,
                     uint32_t hash_partitions) {
  const uint64_t total_rows =
      selection != nullptr ? selection->size() : plan.table().num_rows();
  KmvSketch sketch(256);
  KeySample sample;
  const uint64_t stride = std::max<uint64_t>(1, total_rows / kSampleRows);
  for (uint64_t i = 0; i < total_rows; i += stride) {
    sketch.AddHash(plan.KeyHash(selection != nullptr ? (*selection)[i] : i));
    ++sample.rows;
  }
  sample.distinct = sketch.Estimate(hash_partitions);
  return sample;
}

std::vector<std::vector<uint32_t>> PartitionRows(
    const GroupByPlan& plan, ThreadPool* pool,
    const std::vector<uint32_t>* selection, uint32_t hash_partitions,
    uint32_t num_partitions) {
  const uint64_t total_rows =
      selection != nullptr ? selection->size() : plan.table().num_rows();
  const uint64_t num_morsels = NumMorsels(total_rows, kSweepMorselRows);
  std::vector<std::vector<std::vector<uint32_t>>> morsel_buckets(num_morsels);
  auto sweep_morsel = [&](uint64_t m) {
    const MorselRange r = GetMorsel(total_rows, kSweepMorselRows, m);
    std::vector<std::vector<uint32_t>> buckets(num_partitions);
    for (uint64_t i = r.begin; i < r.end; ++i) {
      const uint32_t row = selection != nullptr ? (*selection)[i]
                                                : static_cast<uint32_t>(i);
      buckets[HashPartition(plan.KeyHash(row) * hash_partitions,
                            num_partitions)]
          .push_back(row);
    }
    morsel_buckets[m] = std::move(buckets);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, sweep_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) sweep_morsel(m);
  }
  std::vector<std::vector<uint32_t>> partitions(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    uint64_t n = 0;
    for (const auto& buckets : morsel_buckets) n += buckets[p].size();
    partitions[p].reserve(n);
    for (const auto& buckets : morsel_buckets) {
      partitions[p].insert(partitions[p].end(), buckets[p].begin(),
                           buckets[p].end());
    }
  }
  return partitions;
}

}  // namespace blusim::runtime
