// Telemetry exporters: Chrome-trace/Perfetto JSON and Prometheus text.
//
// ChromeTraceBuilder assembles one chrome://tracing / Perfetto-loadable
// JSON document from heterogeneous telemetry: wall-clock stage spans
// (the shards' Ring<TelemetrySpan> contents, "X" events), sampler series
// ("C" counter events), and instant markers derived from the obs::Event
// stream ("i" events).
// Engine wall-clock tracks and model-time event tracks live under
// separate pids so the two timebases never share an axis — the engine
// groups its shards under one "process", the service event stream under
// another (docs/OBSERVABILITY.md, "Chrome-trace export").
//
// to_prometheus() renders a whole MetricsSnapshot in the Prometheus text
// exposition format (the wire format a future /metrics endpoint serves):
// counters and gauges verbatim, and each LatencyHistogram as cumulative
// `_bucket{le=...}` rows with `le` in integer nanoseconds (names carry
// the `_ns` suffix, so the unit is explicit).
//
// Numbers and JSON strings render through obs/format.h, the one
// formatter every obs exporter shares.
#pragma once

#include <cstdint>
#include <string>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace mcdc::obs {

class ChromeTraceBuilder {
 public:
  /// Metadata: name the pid group / the tid track inside it.
  void add_process(int pid, const std::string& name);
  void add_thread(int pid, int tid, const std::string& name);

  /// Complete span ("X"); timestamps on the telemetry_now_ns timeline.
  /// `weight` > 0 is attached as args.records.
  void add_span(int pid, int tid, const TelemetrySpan& span);

  /// Counter sample ("C"): one series per name within a pid.
  void add_counter(int pid, const std::string& name, std::uint64_t t_ns,
                   double value);

  /// Instant marker ("i", thread scope) at an explicit microsecond
  /// timestamp (callers pick the timebase; see add_event).
  void add_instant(int pid, int tid, const char* name, double ts_us);

  /// One traced service event as an instant marker on a *model-time*
  /// track: ts is e.at in seconds rendered as microseconds, so a trace
  /// second reads as a viewer microsecond. Keep these under their own
  /// pid — model time and wall time must not share a track group.
  void add_event(int pid, int tid, const Event& e);

  std::size_t events() const { return n_; }

  /// The finished document: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string json() const;

 private:
  void append_raw(const std::string& obj);

  std::string body_;
  std::size_t n_ = 0;
};

/// Prometheus text exposition of everything the snapshot holds.
std::string to_prometheus(const MetricsSnapshot& snap);

}  // namespace mcdc::obs
