// The fixed-capacity telemetry ring and the background gauge sampler.
//
// Everything here obeys the telemetry allocation contract: a Ring sizes
// itself fully at construction and never reallocates, so pushing a
// sample or a span from a hot path (shard worker, sampler tick) is
// allocation-free — the property the counting-operator-new test in
// tests/test_telemetry.cpp pins down. Overflow keeps the newest entries
// (a telemetry tail is worth more than a head) and counts what it
// displaced via seen().
//
// Timestamps all come from one process-wide monotonic clock
// (telemetry_now_ns), so submit stamps, shard spans, and sampler series
// land on a single timeline in the Chrome-trace export.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotate.h"

namespace mcdc::obs {

/// Nanoseconds since the process-wide telemetry epoch (the first call).
/// Monotonic (steady_clock); shared by every telemetry producer so
/// exported timelines align.
std::uint64_t telemetry_now_ns() noexcept;

/// Single-writer ring of trivially copyable entries: TimeSample for the
/// sampler series, TelemetrySpan for the shard stage spans. Pre-allocated;
/// keeps the newest `capacity` entries. Readers must synchronize with the
/// writer externally (the sampler reads after stop(), the engine after
/// join).
template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring entries are bulk-copied on export");

 public:
  explicit Ring(std::size_t capacity) : buf_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("obs::Ring: capacity must be > 0");
    }
  }

  MCDC_NO_ALLOC MCDC_LOCK_FREE
  void push(const T& entry) noexcept {
    buf_[static_cast<std::size_t>(seen_ % buf_.size())] = entry;
    ++seen_;
  }

  /// Retained entries, oldest first. Allocates (export path only).
  std::vector<T> items() const {
    const std::size_t n =
        seen_ < buf_.size() ? static_cast<std::size_t>(seen_) : buf_.size();
    std::vector<T> out;
    out.reserve(n);
    const std::uint64_t first = seen_ - n;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(buf_[static_cast<std::size_t>((first + i) % buf_.size())]);
    }
    return out;
  }

  std::uint64_t seen() const { return seen_; }
  std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<T> buf_;
  std::uint64_t seen_ = 0;
};

/// One sampled value on the telemetry timeline.
struct TimeSample {
  std::uint64_t t_ns = 0;
  double value = 0.0;
};

// The capacity math in the samplers and the shard span rings assumes
// these exact slot footprints.
static_assert(sizeof(TimeSample) == 16,
              "TimeSample must stay a 16-byte POD (Ring slot)");

/// One timed stage execution (Chrome-trace "X" span). `name` must point
/// to static storage — rings retain it verbatim.
struct TelemetrySpan {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t weight = 0;  ///< records covered by the span (0 = n/a)
};

static_assert(sizeof(TelemetrySpan) == 32,
              "TelemetrySpan must stay a 32-byte POD (Ring slot)");

/// Optional background thread that probes a fixed set of sources every
/// `period` and appends to one pre-allocated Ring<TimeSample> per source.
/// Sources are registered at construction (probes must be safe to call
/// from the sampler thread for the sampler's whole lifetime and must not
/// allocate); start() launches the thread, stop() joins it. series() is
/// valid after stop().
class TelemetrySampler {
 public:
  struct Source {
    std::string name;
    std::function<double()> probe;
  };

  struct Series {
    std::string name;
    std::uint64_t seen = 0;  ///< samples taken (>= samples.size())
    std::vector<TimeSample> samples;
  };

  TelemetrySampler(std::vector<Source> sources,
                   std::chrono::milliseconds period,
                   std::size_t capacity = 4096);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  /// Idempotent; joins the thread. Safe to call without start().
  void stop();
  bool running() const { return thread_.joinable(); }

  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_acquire);
  }

  /// One series per source, in registration order. Call after stop().
  std::vector<Series> series() const;

 private:
  void run();

  std::vector<Source> sources_;
  std::vector<Ring<TimeSample>> rings_;  ///< parallel to sources_
  std::chrono::milliseconds period_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
  std::atomic<std::uint64_t> ticks_{0};
};

}  // namespace mcdc::obs
