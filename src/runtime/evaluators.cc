#include "runtime/evaluators.h"

#include "common/hash.h"

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;

Status LoadConcatKeysEvaluator::Process(Stride* stride) const {
  const uint64_t n = stride->num_rows();
  const uint32_t* rows =
      stride->selection != nullptr ? stride->selection->data() : nullptr;
  if (plan_->wide_key()) {
    stride->wide_keys.resize(n);
    plan_->FillWideKeys(rows, stride->range, stride->wide_keys.data());
  } else {
    stride->packed_keys.resize(n);
    plan_->PackKeys(rows, stride->range, stride->packed_keys.data());
  }
  return Status::OK();
}

Status LoadPayloadsEvaluator::Process(Stride* stride) const {
  const uint64_t n = stride->num_rows();
  const auto& slots = plan_->slots();
  stride->payloads.resize(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    const AggSlot& slot = slots[s];
    PayloadVector& pv = stride->payloads[s];
    if (slot.input_column < 0) continue;  // COUNT(*): no payload
    const Column& col =
        plan_->table().column(static_cast<size_t>(slot.input_column));
    pv.type = slot.acc_type;
    if (col.has_nulls()) pv.valid.resize(n);
    if (slot.fn == AggFn::kCount) {
      // COUNT(col) needs only the validity of each value, never the value.
      if (!pv.valid.empty()) {
        for (uint64_t i = 0; i < n; ++i) {
          pv.valid[i] = !col.IsNull(stride->InputRow(i));
        }
      }
      continue;
    }
    // Columns without NULLs whose storage is the accumulator type are read
    // straight from their typed vector.
    const bool direct = !col.has_nulls() && col.type() == slot.acc_type;
    switch (slot.acc_type) {
      case DataType::kFloat64:
        pv.f64.resize(n);
        if (direct) {
          const std::vector<double>& data = col.float64_data();
          for (uint64_t i = 0; i < n; ++i) {
            pv.f64[i] = data[stride->InputRow(i)];
          }
          break;
        }
        for (uint64_t i = 0; i < n; ++i) {
          const uint32_t row = stride->InputRow(i);
          if (col.IsNull(row)) continue;
          pv.f64[i] = col.GetDouble(row);
          if (!pv.valid.empty()) pv.valid[i] = true;
        }
        break;
      case DataType::kDecimal128:
        pv.dec.resize(n);
        if (direct) {
          const std::vector<columnar::Decimal128>& data = col.decimal_data();
          for (uint64_t i = 0; i < n; ++i) {
            pv.dec[i] = data[stride->InputRow(i)];
          }
          break;
        }
        for (uint64_t i = 0; i < n; ++i) {
          const uint32_t row = stride->InputRow(i);
          if (col.IsNull(row)) continue;
          pv.dec[i] = col.GetDecimal(row);
          if (!pv.valid.empty()) pv.valid[i] = true;
        }
        break;
      case DataType::kString:
        // Rejected at plan time (GroupByPlan::Make).
        return Status::Internal("string aggregate reached LCOV");
      default:
        pv.i64.resize(n);
        if (direct && slot.acc_type == DataType::kInt64) {
          const std::vector<int64_t>& data = col.int64_data();
          for (uint64_t i = 0; i < n; ++i) {
            pv.i64[i] = data[stride->InputRow(i)];
          }
          break;
        }
        for (uint64_t i = 0; i < n; ++i) {
          const uint32_t row = stride->InputRow(i);
          if (col.IsNull(row)) continue;
          pv.i64[i] = col.GetInt64(row);
          if (!pv.valid.empty()) pv.valid[i] = true;
        }
        break;
    }
  }
  return Status::OK();
}

Status HashEvaluator::Process(Stride* stride) const {
  if (stride->hashes_given) return Status::OK();
  const uint64_t n = stride->num_rows();
  stride->keys_hashed += n;
  stride->hashes.resize(n);
  if (plan_->wide_key()) {
    for (uint64_t i = 0; i < n; ++i) {
      const WideKey& k = stride->wide_keys[i];
      stride->hashes[i] = Murmur3_64(k.bytes, k.len);
    }
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      stride->hashes[i] = Mix64(stride->packed_keys[i]);
    }
  }
  return Status::OK();
}

GroupByChain::GroupByChain(const GroupByPlan* plan) {
  evaluators_.push_back(std::make_unique<LoadConcatKeysEvaluator>(plan));
  evaluators_.push_back(std::make_unique<LoadPayloadsEvaluator>(plan));
  evaluators_.push_back(std::make_unique<HashEvaluator>(plan));
}

Status GroupByChain::ProcessStride(Stride* stride) const {
  for (const auto& evaluator : evaluators_) {
    BLUSIM_RETURN_NOT_OK(evaluator->Process(stride));
  }
  return Status::OK();
}

}  // namespace blusim::runtime
