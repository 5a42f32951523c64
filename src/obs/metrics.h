// Metrics registry: named counters, gauges, and latency histograms.
//
// Design goals, in order: (1) the hot path — incrementing a counter or
// recording a duration — must be cheap enough to sit on the per-request
// path of the online service; (2) a registry snapshot must be consistent
// enough for reports (exact under single-threaded use, per-metric atomic
// otherwise); (3) export to JSON and to the repo's CSV writer so bench
// harnesses and the trace tool can persist runs.
//
// Concurrency: every instrument records lock-free — counters and gauges
// are relaxed atomics, and the one histogram type, LatencyHistogram
// (obs/latency_histogram.h), is a fixed array of atomic log2-ns buckets.
// Registration (name -> metric) takes the registry mutex; returned
// references stay valid for the registry's lifetime, so callers register
// once and cache pointers (see obs::Observer).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_histogram.h"

namespace mcdc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (replicas alive, live items, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Everything a registry held at one instant, name-sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencyHistogramSnapshot>> latency;

  /// One JSON object: {"counters":{...},"gauges":{...},"latency":{...}}.
  /// Latency histograms carry integer-ns buckets plus derived
  /// p50/p95/p99 so consumers need not re-implement the interpolation.
  std::string to_json() const;

  /// Long-form CSV via util/csv.h: rows of `kind,name,key,value` (counters
  /// and gauges use key "value"; latency histograms emit only their
  /// non-empty `le_<ns>` buckets plus count/sum_ns/max_ns).
  void write_csv(std::ostream& out) const;
};

/// Named metric store. Metrics are created on first registration and live
/// as long as the registry; re-registering a name returns the same object.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& latency(const std::string& name);

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  void write_csv(std::ostream& out) const { snapshot().write_csv(out); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latency_;
};

/// Cached name builder for a labeled metric family — the per-shard /
/// per-producer registrations ("engine_shard<i>_*", "engine_producer<i>_*").
/// The "<base><label>_" prefix is formatted exactly once; each handle is
/// then resolved with a single concatenation instead of every registration
/// site re-spelling the prefix arithmetic. Handles come straight from the
/// registry, so they stay valid for the registry's lifetime and are meant
/// to be cached by the caller as usual.
class LabeledMetricFamily {
 public:
  LabeledMetricFamily(MetricsRegistry& reg, const char* base,
                      std::size_t label);

  Counter& counter(const char* field) const;
  Gauge& gauge(const char* field) const;
  LatencyHistogram& latency(const char* field) const;

  /// "<base><label>_", e.g. "engine_shard3_".
  const std::string& prefix() const { return prefix_; }

 private:
  MetricsRegistry* reg_;
  std::string prefix_;
};

}  // namespace mcdc::obs
