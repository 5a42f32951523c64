// Lock-free fixed-bucket latency histogram (log2 nanosecond buckets) —
// the one histogram type in obs.
//
// The streaming engine records four stage latencies per record from N
// worker threads at 10M+ records/s, and the observer times every service
// request, DP stage and executor replay. So the type trades
// bucket-boundary flexibility for a wait-free record(): the bucket array
// is a fixed std::array of atomics (pre-allocated, so recording can sit
// inside the zero-steady-state-allocation envelope), bucket selection is
// one std::bit_width, and every update is a relaxed fetch_add (max is a
// CAS loop). Buckets are powers of two in integer nanoseconds — bucket i
// counts samples in [2^i, 2^(i+1)) — which covers 1 ns .. ~39 hours in 48
// buckets with <= 2x relative quantile error.
//
// Snapshots are plain PODs: mergeable across shards (bucket-wise add) and
// queryable for p50/p95/p99 with the same fractional-rank interpolation
// as util/stats.h percentile() — the agreement the telemetry tests pin
// down on random samples.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "util/annotate.h"

namespace mcdc::obs {

inline constexpr int kLatencyBuckets = 48;

/// Point-in-time copy of one LatencyHistogram; plain data, mergeable.
struct LatencyHistogramSnapshot {
  std::array<std::uint64_t, kLatencyBuckets> counts{};
  std::uint64_t count = 0;   ///< sum of counts (kept consistent by snapshot())
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;

  /// Bucket-wise accumulate (cross-shard rollup).
  void merge(const LatencyHistogramSnapshot& other);

  /// Inclusive lower edge of bucket b in ns (0 for bucket 0).
  static std::uint64_t bucket_floor_ns(int b);
  /// Exclusive upper edge of bucket b in ns.
  static std::uint64_t bucket_ceil_ns(int b);

  /// Quantile estimate in ns: util/stats.h fractional-rank interpolation
  /// over the order statistics, with samples spread uniformly inside
  /// their bucket. Exact to within one bucket (<= 2x). q in [0, 100];
  /// returns 0 when empty; q == 100 returns the exact max.
  double percentile_ns(double q) const;

  double p50_ns() const { return percentile_ns(50); }
  double p95_ns() const { return percentile_ns(95); }
  double p99_ns() const { return percentile_ns(99); }
  double mean_ns() const {
    return count ? static_cast<double>(sum_ns) / static_cast<double>(count)
                 : 0.0;
  }
};

/// Wait-free multi-writer histogram of nanosecond durations.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Any thread; no locks, no allocation.
  MCDC_NO_ALLOC MCDC_LOCK_FREE
  void record(std::uint64_t ns) noexcept {
    counts_[static_cast<std::size_t>(bucket_of(ns))].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !max_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }

  /// Bucket index: floor(log2(ns)), clamped to the array (0 and 1 ns land
  /// in bucket 0; everything >= 2^47 ns in the last bucket).
  static int bucket_of(std::uint64_t ns) noexcept {
    if (ns < 2) return 0;
    const int b = static_cast<int>(std::bit_width(ns)) - 1;
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
  }

  /// Consistent-enough copy: per-bucket atomic reads; count is derived
  /// from the bucket sums so quantiles are internally consistent even if
  /// writers race the snapshot.
  LatencyHistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace mcdc::obs
