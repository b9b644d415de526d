#ifndef BLUSIM_SORT_CPU_RADIX_H_
#define BLUSIM_SORT_CPU_RADIX_H_

#include <cstdint>
#include <vector>

#include "sort/gpu_sort.h"
#include "sort/sds.h"

namespace blusim::sort {

// Jobs smaller than this skip the radix machinery: a comparator sort on so
// few rows is faster than four counting passes.
inline constexpr uint32_t kCpuRadixSmallCutoff = 64;

// CPU half of the hybrid sort (paper section 3, "type-agnostic" design):
// an MSD radix sort over the same 4-byte encoded partial keys the GPU path
// sorts, so both sides of the job queue run the identical algorithm on the
// identical keys. Per 4-byte level the 32-bit partial key is ordered with
// up to four stable 8-bit counting passes (passes whose byte is constant
// across the run are skipped -- the common case on duplicate-heavy data);
// equal-key runs then descend one level, and a run that has consumed every
// level of its rows' encoded keys tie-breaks by row id. Full-key
// comparisons are used only below kCpuRadixSmallCutoff, where they win.
//
// The sorter owns the (partial key, payload) scratch buffers so a worker
// draining many jobs reuses one allocation, mirroring the GPU workers'
// reusable staging buffers.
class CpuRadixSorter {
 public:
  explicit CpuRadixSorter(const SortDataStore* sds) : sds_(sds) {}

  // Sorts perm[0..n) by the full encoded key (row-id tie-break), assuming
  // all rows are already equal on levels < `level` (the job-queue
  // invariant). Generates the level-`level` entries itself.
  void Sort(uint32_t* perm, uint32_t n, int level);

  // Same, but the caller has already filled entries()[0..n) with
  // {PartialKey(row, level), row} -- e.g. in parallel across a thread
  // pool -- and knows `max_levels`, the largest RowLevels() over the run.
  void SortPrefilled(uint32_t* perm, uint32_t n, int level, int max_levels);

  // Level-`level` staging area for SortPrefilled. Resized to >= n entries.
  std::vector<PkEntry>& entries() { return a_; }

 private:
  // Counting-sorts a_[0..n) by key (stable), leaving the result in a_.
  void SortEntriesByKey(uint32_t n);
  void SortRange(uint32_t* perm, uint32_t n, int level, int max_levels,
                 bool prefilled);

  const SortDataStore* sds_;
  std::vector<PkEntry> a_, b_;
};

// The `k` rows (k < sds.num_rows()) that rank first in the order the sorts
// produce -- the zero-padded encoded key, then the row id -- in no
// particular order: an MSD radix select. Each pass skips the key bits the
// remaining candidates share, takes every candidate whose next 16-bit
// digit is below the k-th candidate's, and narrows to those holding the
// same digit. Sorting its result yields the first k ranks of the full
// sort, ties included.
std::vector<uint32_t> SelectHead(const SortDataStore& sds, uint32_t k);

}  // namespace blusim::sort

#endif  // BLUSIM_SORT_CPU_RADIX_H_
