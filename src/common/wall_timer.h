#ifndef BLUSIM_COMMON_WALL_TIMER_H_
#define BLUSIM_COMMON_WALL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace blusim {

// Host wall-clock stopwatch on the steady clock, the second clock next to
// SimTime: what running the engine and the simulated device actually cost
// the host. Wall readings are reported beside simulated ones and never
// feed a simulated number.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  // The instant of construction, for deadlines measured from it.
  std::chrono::steady_clock::time_point start() const { return start_; }

  // Wall microseconds since construction.
  int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace blusim

#endif  // BLUSIM_COMMON_WALL_TIMER_H_
