// Wall-clock timing: the stopwatch behind bench harnesses and the off-line
// DP's stage timings (Observer::dp_stage_done). obs::ScopedTimer reads
// steady_clock itself and records integer nanoseconds.
#pragma once

#include <chrono>
#include <cstdint>

namespace mcdc {

/// Monotonic stopwatch. start() on construction; elapsed in seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

  /// Integer nanoseconds, the native resolution — what histogram feeders
  /// should use to avoid double rounding at small scales.
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mcdc
