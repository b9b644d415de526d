// Known-bad fixture: a group-by chain sketching its own keys to size its
// tables instead of taking the router's group-count estimate.
#include "common/kmv.h"

unsigned long long TableSize(const unsigned long long* hashes,
                             unsigned long n) {
  blusim::KmvSketch sketch(256);
  sketch.AddHashes(hashes, n);
  return sketch.Estimate();
}
