// RAII profiling scope feeding a latency histogram.
//
// Construct with the target histogram; destruction records the elapsed
// wall time in integer nanoseconds (LatencyHistogram::record, lock-free).
// A null histogram disables the scope — the usual pattern at
// instrumentation sites is
//
//   obs::ScopedTimer t(observer ? observer->request_latency_ns() : nullptr);
//
// so the disabled path pays only null tests — the clock is not read at
// all (a steady_clock read is ~20ns, which alone would blow the <2%
// overhead budget on the per-request path).
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/latency_histogram.h"

namespace mcdc::obs {

class ScopedTimer {
  // The start point is value-initialized (clock epoch) rather than wrapped
  // in std::optional: the disabled path still never reads the clock, and
  // GCC's -Wmaybe-uninitialized cannot see through optional's engaged flag
  // here (it fired on every call site under the strict warning set).
  using Clock = std::chrono::steady_clock;

 public:
  explicit ScopedTimer(LatencyHistogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count()));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  Clock::time_point start_{};
};

}  // namespace mcdc::obs
