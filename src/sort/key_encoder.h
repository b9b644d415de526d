#ifndef BLUSIM_SORT_KEY_ENCODER_H_
#define BLUSIM_SORT_KEY_ENCODER_H_

#include <cstdint>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"

namespace blusim::sort {

// One sort key column with direction.
struct SortKey {
  int column = -1;
  bool ascending = true;
};

// Transforms a row's sort-key columns into a binary-sortable byte stream
// consumed 4 bytes at a time (paper section 3: "we have transformed the
// underlying type into a binary stream that is sorted on 4 bytes at a
// time", making the sort independent of the column data type).
//
// Encodings (all big-endian so bytewise order == value order):
//   INT32/DATE  : sign bit flipped, 4 bytes
//   INT64       : sign bit flipped, 8 bytes
//   FLOAT64     : IEEE total-order transform, 8 bytes
//   DECIMAL128  : sign bit flipped, 16 bytes
//   STRING      : raw bytes + 0x00 terminator (prefix-free)
// Descending keys invert every encoded byte.
class KeyEncoder {
 public:
  static Result<KeyEncoder> Make(const columnar::Table& table,
                                 std::vector<SortKey> keys);

  // Number of 4-byte partial-key levels for fixed-width keys; for string
  // keys this is a per-row property, so levels() returns the maximum over
  // the table (computed at Make time).
  int levels() const { return levels_; }

  // Encoded bytes of every row's key when no key is a string; the
  // fixed-width part of it otherwise.
  int fixed_bytes() const { return fixed_bytes_; }

  // The 4-byte partial key of `row` at depth `level` (zero-padded past the
  // end of the encoded stream).
  uint32_t PartialKey(uint32_t row, int level) const;

  // Full comparison of two rows' complete encoded keys, with row-id
  // tie-break so the overall ordering is total and deterministic.
  bool RowLess(uint32_t a, uint32_t b) const;

  // True when every 4-byte level of the two rows matches (rows belong to
  // the same duplicate range at full depth).
  bool RowEqual(uint32_t a, uint32_t b) const;

  // Appends the encoded bytes of row `row` to `out`: the one-row oracle of
  // EncodeAll.
  void EncodeRow(uint32_t row, std::vector<uint8_t>* out) const;

  // Encodes every row's key, row after row, into `blob` -- a column at a
  // time, one type switch per key column. With string keys, row r's bytes
  // are [offsets[r], offsets[r + 1]) (num_rows + 1 offsets); without, every
  // row takes fixed_bytes() and `offsets` is left empty. The Sort Data
  // Store caches every row's encoded key this way once up front.
  void EncodeAll(std::vector<uint8_t>* blob,
                 std::vector<uint64_t>* offsets) const;

  // Default-constructed encoders are inert placeholders; only Make()
  // produces a usable one.
  KeyEncoder() = default;

 private:

  const columnar::Table* table_ = nullptr;
  std::vector<SortKey> keys_;
  int levels_ = 0;
  bool has_strings_ = false;
  int fixed_bytes_ = 0;
};

}  // namespace blusim::sort

#endif  // BLUSIM_SORT_KEY_ENCODER_H_
