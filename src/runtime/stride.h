#ifndef BLUSIM_RUNTIME_STRIDE_H_
#define BLUSIM_RUNTIME_STRIDE_H_

#include <cstdint>
#include <vector>

#include "columnar/types.h"
#include "runtime/groupby_plan.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Payload values loaded by LCOV for one aggregate slot, as a typed vector.
struct PayloadVector {
  columnar::DataType type = columnar::DataType::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<columnar::Decimal128> dec;
  // valid[i] == false -> the input value was NULL and the aggregate skips
  // the row (SQL semantics). Empty when the column has no nulls.
  std::vector<bool> valid;

  size_t size() const {
    switch (type) {
      case columnar::DataType::kFloat64: return f64.size();
      case columnar::DataType::kDecimal128: return dec.size();
      default: return i64.size();
    }
  }
  bool IsValid(size_t i) const { return valid.empty() || valid[i]; }
};

// Per-morsel state flowing through the evaluator chain (figures 1 and 2).
// Each evaluator consumes fields produced by its predecessor:
//   LCOG/LCOV fill keys/payloads, CCAT packs, HASH hashes, then
//   LGHT groups locally (CPU path) or MEMCPY stages for the GPU.
struct Stride {
  MorselRange range;
  // Optional row selection (from an upstream filter/join); when non-empty,
  // row i of this stride is input row `selection[range.begin + i]`.
  const std::vector<uint32_t>* selection = nullptr;

  // Input row id of stride-local row i.
  uint32_t InputRow(uint64_t i) const {
    const uint64_t pos = range.begin + i;
    return selection ? (*selection)[pos] : static_cast<uint32_t>(pos);
  }
  uint64_t num_rows() const { return range.size(); }

  // CCAT output: exactly one of the two key vectors is populated.
  std::vector<uint64_t> packed_keys;
  std::vector<WideKey> wide_keys;

  // HASH output, or the key hashes an upstream sweep already computed for
  // these rows (`hashes_given`), which the HASH evaluator then keeps.
  std::vector<uint64_t> hashes;
  bool hashes_given = false;
  // Keys the HASH evaluator hashed for this stride.
  uint64_t keys_hashed = 0;

  // LCOV output: one PayloadVector per plan slot (COUNT slots are empty).
  std::vector<PayloadVector> payloads;
};

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_STRIDE_H_
