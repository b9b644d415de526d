// Known-bad fixture: a result materializer copying one cell per call and
// an aggregation loop dispatching per row, instead of the typed column
// gather and the per-slot AGGD loop.
#include "columnar/column.h"
#include "runtime/group_result.h"

void CopyRows(const blusim::columnar::Column& src, const unsigned* rows,
              unsigned long n, blusim::columnar::Column* dst) {
  for (unsigned long i = 0; i < n; ++i) dst->AppendFrom(src, rows[i]);
}

void Aggregate(const blusim::runtime::AggSlot& slot,
               const blusim::runtime::PayloadVector& pv, unsigned long n,
               blusim::runtime::AccValue* acc) {
  for (unsigned long i = 0; i < n; ++i) AccumulateRow(slot, pv, i, acc);
}
