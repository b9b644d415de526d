#ifndef BLUSIM_SORT_SDS_H_
#define BLUSIM_SORT_SDS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "sort/key_encoder.h"

namespace blusim::sort {

// Sort Data Store (paper section 3): incoming tuples for the columns being
// sorted are stored once and never move during the sort; all swapping
// happens in the small (key4, payload4) partial-key buffer whose payload
// points back into the SDS.
//
// The store caches each row's full binary-sortable encoded key, so
// generating the next level's partial keys for a duplicate range is a pure
// lookup ("subsequent fetches of the next partial key").
class SortDataStore {
 public:
  static Result<SortDataStore> Make(const columnar::Table& table,
                                    std::vector<SortKey> keys);

  uint32_t num_rows() const { return num_rows_; }
  int levels() const { return encoder_.levels(); }

  // 4-byte partial key of `row` at `level` (zero-padded past the end).
  uint32_t PartialKey(uint32_t row, int level) const {
    const uint64_t begin = Begin(row);
    const uint64_t end = End(row);
    uint32_t v = 0;
    const uint64_t base = begin + static_cast<uint64_t>(level) * 4;
    for (uint64_t i = 0; i < 4; ++i) {
      v <<= 8;
      if (base + i < end) v |= blob_[base + i];
    }
    return v;
  }

  // Bytes i .. i+7 of `row`'s encoded key as one big-endian word (0 past
  // its end).
  uint64_t KeyWord(uint32_t row, uint64_t i) const {
    const uint64_t at = Begin(row) + i;
    const uint64_t end = End(row);
    if (at + 8 <= end) {
      uint64_t w;
      std::memcpy(&w, blob_.data() + at, 8);
      return __builtin_bswap64(w);
    }
    uint64_t w = 0;
    for (uint64_t j = 0; j < 8; ++j) {
      w = (w << 8) | (at + j < end ? blob_[at + j] : 0);
    }
    return w;
  }
  // Length in bytes of `row`'s encoded key.
  uint64_t KeyBytes(uint32_t row) const { return End(row) - Begin(row); }

  // Number of 4-byte levels required to fully order `row`'s key.
  int RowLevels(uint32_t row) const {
    return static_cast<int>((KeyBytes(row) + 3) / 4);
  }

  // Full-key comparison with row-id tie-break (total order).
  bool RowLess(uint32_t a, uint32_t b) const;
  bool RowEqual(uint32_t a, uint32_t b) const;

 private:
  SortDataStore() = default;

  // Where `row`'s encoded key starts and ends in the blob.
  uint64_t Begin(uint32_t row) const {
    return offsets_.empty() ? uint64_t{row} * row_bytes_ : offsets_[row];
  }
  uint64_t End(uint32_t row) const {
    return offsets_.empty() ? (uint64_t{row} + 1) * row_bytes_
                            : offsets_[row + 1];
  }

  KeyEncoder encoder_;
  uint32_t num_rows_ = 0;
  std::vector<uint8_t> blob_;     // concatenated encoded keys
  // Row -> blob offset (num_rows_ + 1 entries) when keys vary in length;
  // empty when every key takes row_bytes_.
  std::vector<uint64_t> offsets_;
  uint64_t row_bytes_ = 0;
};

}  // namespace blusim::sort

#endif  // BLUSIM_SORT_SDS_H_
