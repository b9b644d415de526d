#ifndef BLUSIM_RUNTIME_EVALUATORS_H_
#define BLUSIM_RUNTIME_EVALUATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/groupby_plan.h"
#include "runtime/stride.h"

namespace blusim::runtime {

// One stage of the BLU group-by evaluator chain (paper figure 1):
//
//   LCOG/LCOV -> CCAT -> HASH -> LGHT -> AGGD/SUM/CNT      (CPU path)
//   LCOG/LCOV -> CCAT -> HASH -> MEMCPY -> GPU runtime     (GPU path, fig 2)
//
// Evaluators are stateless w.r.t. strides: parallel threads push
// independent Stride objects through the same chain.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual const char* name() const = 0;
  virtual Status Process(Stride* stride) const = 0;
};

// LCOG + CCAT fused: loads grouping-key components and concatenates them
// into packed 64-bit keys or wide keys. (The paper draws LCOG and CCAT as
// separate evaluators; the concatenation consumes the loaded components
// directly, so the fused form avoids materializing components twice. The
// chain still reports both stages for monitoring.)
class LoadConcatKeysEvaluator : public Evaluator {
 public:
  explicit LoadConcatKeysEvaluator(const GroupByPlan* plan) : plan_(plan) {}
  const char* name() const override { return "LCOG+CCAT"; }
  Status Process(Stride* stride) const override;

 private:
  const GroupByPlan* plan_;
};

// LCOV: loads payload (aggregation input) values for every plan slot.
class LoadPayloadsEvaluator : public Evaluator {
 public:
  explicit LoadPayloadsEvaluator(const GroupByPlan* plan) : plan_(plan) {}
  const char* name() const override { return "LCOV"; }
  Status Process(Stride* stride) const override;

 private:
  const GroupByPlan* plan_;
};

// HASH: hashes concatenated keys (mod/mix hash for narrow keys, Murmur for
// wide keys), unless the stride carries hashes a partition sweep already
// computed for its rows (Stride::hashes_given). The group count is
// estimated once, before the chain runs (runtime::CountDistinctKeys); the
// device path's staging sweep feeds the same hashes to the KMV sketch that
// sizes its table (section 4.2).
class HashEvaluator : public Evaluator {
 public:
  explicit HashEvaluator(const GroupByPlan* plan) : plan_(plan) {}
  const char* name() const override { return "HASH"; }
  Status Process(Stride* stride) const override;

 private:
  const GroupByPlan* plan_;
};

// The standard chain prefix shared by CPU and GPU paths.
class GroupByChain {
 public:
  explicit GroupByChain(const GroupByPlan* plan);

  // Runs LCOG/CCAT -> LCOV -> HASH on one stride.
  Status ProcessStride(Stride* stride) const;

  const std::vector<std::unique_ptr<Evaluator>>& evaluators() const {
    return evaluators_;
  }

 private:
  std::vector<std::unique_ptr<Evaluator>> evaluators_;
};

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_EVALUATORS_H_
