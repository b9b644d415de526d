#ifndef BLUSIM_COMMON_HEAP_H_
#define BLUSIM_COMMON_HEAP_H_

#include <cstddef>

namespace blusim {

// The C allocator's thresholds the engine runs with: blocks below
// kHeapMmapThreshold come from the heap, and freed heap memory is handed
// back to the kernel only once kHeapTrimThreshold of it sits at a heap's
// top. These are the ceilings glibc's own dynamic thresholds climb to
// (32 MiB, and twice that); fixing them from the start keeps a query's
// working set -- e.g. the accumulators and the result columns of a
// near-unique group-by, tens of MB -- mapped for the next query instead of
// returned and refaulted, by an amount that would otherwise depend on
// which blocks the process happened to free first.
inline constexpr size_t kHeapMmapThreshold = size_t{32} << 20;
inline constexpr size_t kHeapTrimThreshold = 2 * kHeapMmapThreshold;

// Sets those thresholds, once per process; later calls do nothing. Has no
// effect where the allocator is not glibc's malloc (e.g. under ASan or
// TSan, which bring their own).
void KeepFreedHeapMapped();

}  // namespace blusim

#endif  // BLUSIM_COMMON_HEAP_H_
