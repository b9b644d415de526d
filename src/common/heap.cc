#include "common/heap.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace blusim {

void KeepFreedHeapMapped() {
#if defined(__GLIBC__)
  // Setting either threshold also stops glibc adjusting both.
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, static_cast<int>(kHeapMmapThreshold));
    mallopt(M_TRIM_THRESHOLD, static_cast<int>(kHeapTrimThreshold));
    return true;
  }();
  (void)once;
#endif
}

}  // namespace blusim
