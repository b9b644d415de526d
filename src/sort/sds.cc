#include "sort/sds.h"

#include <cstring>

namespace blusim::sort {

Result<SortDataStore> SortDataStore::Make(const columnar::Table& table,
                                          std::vector<SortKey> keys) {
  SortDataStore sds;
  BLUSIM_ASSIGN_OR_RETURN(sds.encoder_,
                          KeyEncoder::Make(table, std::move(keys)));
  sds.num_rows_ = static_cast<uint32_t>(table.num_rows());
  sds.encoder_.EncodeAll(&sds.blob_, &sds.offsets_);
  sds.row_bytes_ = static_cast<uint64_t>(sds.encoder_.fixed_bytes());
  return sds;
}

bool SortDataStore::RowLess(uint32_t a, uint32_t b) const {
  const uint64_t abegin = Begin(a), aend = End(a);
  const uint64_t bbegin = Begin(b), bend = End(b);
  const uint64_t alen = aend - abegin, blen = bend - bbegin;
  const int cmp = std::memcmp(blob_.data() + abegin, blob_.data() + bbegin,
                              static_cast<size_t>(std::min(alen, blen)));
  if (cmp != 0) return cmp < 0;
  if (alen != blen) return alen < blen;
  return a < b;  // deterministic tie-break
}

bool SortDataStore::RowEqual(uint32_t a, uint32_t b) const {
  const uint64_t abegin = Begin(a), aend = End(a);
  const uint64_t bbegin = Begin(b), bend = End(b);
  if (aend - abegin != bend - bbegin) return false;
  return std::memcmp(blob_.data() + abegin, blob_.data() + bbegin,
                     static_cast<size_t>(aend - abegin)) == 0;
}

}  // namespace blusim::sort
