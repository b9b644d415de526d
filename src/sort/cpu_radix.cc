#include "sort/cpu_radix.h"

#include <algorithm>
#include <cstring>

namespace blusim::sort {

namespace {

constexpr uint32_t kRadixBits = 8;
constexpr uint32_t kBuckets = 1u << kRadixBits;
// Bits per SelectHead digit: one pass usually narrows a few hundred
// thousand candidates to the few around the k-th.
constexpr int kSelectDigitBits = 16;

}  // namespace

void CpuRadixSorter::Sort(uint32_t* perm, uint32_t n, int level) {
  SortRange(perm, n, level, /*max_levels=*/0, /*prefilled=*/false);
}

void CpuRadixSorter::SortPrefilled(uint32_t* perm, uint32_t n, int level,
                                   int max_levels) {
  SortRange(perm, n, level, max_levels, /*prefilled=*/true);
}

void CpuRadixSorter::SortEntriesByKey(uint32_t n) {
  // All four 8-bit histograms in one read pass; constant bytes (one
  // non-empty bucket) skip their counting pass entirely, so a run of keys
  // that differ only in the low byte pays a single scatter.
  uint32_t counts[4][kBuckets];
  std::memset(counts, 0, sizeof(counts));
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t k = a_[i].key;
    ++counts[0][k & 0xFF];
    ++counts[1][(k >> 8) & 0xFF];
    ++counts[2][(k >> 16) & 0xFF];
    ++counts[3][k >> 24];
  }

  if (b_.size() < n) b_.resize(n);
  PkEntry* in = a_.data();
  PkEntry* out = b_.data();
  for (int pass = 0; pass < 4; ++pass) {
    uint32_t* c = counts[pass];
    const uint32_t shift = static_cast<uint32_t>(pass) * kRadixBits;
    // Skip passes whose byte is constant over the whole run.
    uint32_t nonzero = 0;
    for (uint32_t d = 0; d < kBuckets && nonzero < 2; ++d) {
      nonzero += c[d] != 0;
    }
    if (nonzero < 2) continue;
    // Exclusive scan -> stable scatter.
    uint32_t running = 0;
    for (uint32_t d = 0; d < kBuckets; ++d) {
      const uint32_t count = c[d];
      c[d] = running;
      running += count;
    }
    for (uint32_t i = 0; i < n; ++i) {
      out[c[(in[i].key >> shift) & 0xFF]++] = in[i];
    }
    std::swap(in, out);
  }
  if (in != a_.data()) std::memcpy(a_.data(), in, n * sizeof(PkEntry));
}

void CpuRadixSorter::SortRange(uint32_t* perm, uint32_t n, int level,
                               int max_levels, bool prefilled) {
  if (n < 2) return;
  if (n < kCpuRadixSmallCutoff) {
    const SortDataStore* sds = sds_;
    std::sort(perm, perm + n,
              [sds](uint32_t x, uint32_t y) { return sds->RowLess(x, y); });
    return;
  }
  if (!prefilled) {
    if (a_.size() < n) a_.resize(n);
    max_levels = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t row = perm[i];
      a_[i].key = sds_->PartialKey(row, level);
      a_[i].payload = row;
      max_levels = std::max(max_levels, sds_->RowLevels(row));
    }
  }
  if (level >= max_levels) {
    // Every level of every row's encoded key has been consumed: the keys
    // are fully equal (the encodings are prefix-free, so zero-padding
    // cannot mask a difference) and only the row-id tie-break remains.
    std::sort(perm, perm + n);
    return;
  }

  SortEntriesByKey(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = a_[i].payload;

  // Collect the equal-key runs before recursing: the recursion reuses the
  // scratch buffers, so run boundaries must be read out of a_ first.
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  uint32_t run_begin = 0;
  for (uint32_t i = 1; i <= n; ++i) {
    if (i == n || a_[i].key != a_[run_begin].key) {
      if (i - run_begin > 1) runs.emplace_back(run_begin, i);
      run_begin = i;
    }
  }
  for (const auto& [rb, re] : runs) {
    if (level + 1 < max_levels) {
      SortRange(perm + rb, re - rb, level + 1, /*max_levels=*/0,
                /*prefilled=*/false);
    } else {
      // Keys exhausted inside this job: rows in the run are fully equal.
      std::sort(perm + rb, perm + re);
    }
  }
}

std::vector<uint32_t> SelectHead(const SortDataStore& sds, uint32_t k) {
  const uint32_t n = sds.num_rows();
  uint64_t longest = 0;
  for (uint32_t r = 0; r < n; ++r) {
    longest = std::max(longest, sds.KeyBytes(r));
  }
  std::vector<uint32_t> head;
  head.reserve(k);
  std::vector<uint32_t> candidates(n);
  for (uint32_t r = 0; r < n; ++r) candidates[r] = r;
  std::vector<uint32_t> next;
  std::vector<uint64_t> windows;
  std::vector<uint32_t> counts(uint32_t{1} << kSelectDigitBits);
  uint64_t need = k;
  // Leading key bits every candidate is known to share.
  uint64_t bit = 0;
  while (need > 0) {
    if (candidates.size() == need) {
      head.insert(head.end(), candidates.begin(), candidates.end());
      break;
    }
    if (bit >= longest * 8) {
      // The candidates' keys are fully equal: the lowest row ids rank first.
      std::nth_element(candidates.begin(), candidates.begin() + need - 1,
                       candidates.end());
      head.insert(head.end(), candidates.begin(), candidates.begin() + need);
      break;
    }
    // The candidates' next key bits, from `bit` on, left-aligned in a
    // window of `valid` bits (zero past a key's end).
    const auto offset = static_cast<int>(bit % 8);
    const int valid = 64 - offset;
    windows.resize(candidates.size());
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint64_t w = sds.KeyWord(candidates[i], bit / 8) << offset;
      windows[i] = w;
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    if (lo == hi) {
      bit += static_cast<uint64_t>(valid);
      continue;
    }
    // Skip the bits all candidates share; the digit is the next bits.
    const int shared = __builtin_clzll(lo ^ hi);
    const int width = std::min(kSelectDigitBits, valid - shared);
    const int shift = 64 - shared - width;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    std::fill(counts.begin(), counts.end(), 0);
    for (const uint64_t w : windows) ++counts[(w >> shift) & mask];
    // The digit of the need-th candidate.
    uint64_t digit = 0;
    uint64_t below = 0;
    while (below + counts[digit] < need) below += counts[digit++];
    next.clear();
    next.reserve(counts[digit]);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint64_t d = (windows[i] >> shift) & mask;
      if (d < digit) {
        head.push_back(candidates[i]);
      } else if (d == digit) {
        next.push_back(candidates[i]);
      }
    }
    need -= below;
    candidates.swap(next);
    bit += static_cast<uint64_t>(shared + width);
  }
  return head;
}

}  // namespace blusim::sort
