#include "obs/export.h"

#include "obs/format.h"

namespace mcdc::obs {

namespace {

using detail::json_string;
using detail::num;

/// Nanoseconds on the telemetry clock -> trace microseconds.
std::string us_from_ns(std::uint64_t ns) {
  return num(static_cast<double>(ns) / 1000.0);
}

}  // namespace

void ChromeTraceBuilder::append_raw(const std::string& obj) {
  if (n_ > 0) body_ += ',';
  body_ += obj;
  ++n_;
}

void ChromeTraceBuilder::add_process(int pid, const std::string& name) {
  append_raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
             json_string(name) + "}}");
}

void ChromeTraceBuilder::add_thread(int pid, int tid,
                                    const std::string& name) {
  append_raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":" + json_string(name) + "}}");
}

void ChromeTraceBuilder::add_span(int pid, int tid,
                                  const TelemetrySpan& span) {
  std::string obj = "{\"name\":" + json_string(span.name) +
                    ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid) +
                    ",\"ts\":" + us_from_ns(span.start_ns) +
                    ",\"dur\":" + us_from_ns(span.dur_ns);
  if (span.weight > 0) {
    obj += ",\"args\":{\"records\":" + std::to_string(span.weight) + "}";
  }
  obj += '}';
  append_raw(obj);
}

void ChromeTraceBuilder::add_counter(int pid, const std::string& name,
                                     std::uint64_t t_ns, double value) {
  append_raw("{\"name\":" + json_string(name) + ",\"ph\":\"C\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":0,\"ts\":" + us_from_ns(t_ns) +
             ",\"args\":{\"value\":" + num(value) + "}}");
}

void ChromeTraceBuilder::add_instant(int pid, int tid, const char* name,
                                     double ts_us) {
  append_raw("{\"name\":" + json_string(name) + ",\"ph\":\"i\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + num(ts_us) + ",\"s\":\"t\"}");
}

void ChromeTraceBuilder::add_event(int pid, int tid, const Event& e) {
  std::string obj = "{\"name\":" + json_string(event_kind_name(e.kind)) +
                    ",\"ph\":\"i\",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid) +
                    ",\"ts\":" + num(e.at * 1e6) + ",\"s\":\"t\"" +
                    ",\"args\":{\"item\":" + std::to_string(e.item) +
                    ",\"server\":" + std::to_string(e.server) +
                    ",\"cost_delta\":" + num(e.cost_delta);
  if (e.kind == EventKind::kRequestServed) {
    obj += e.hit ? ",\"hit\":true" : ",\"hit\":false";
  }
  obj += "}}";
  append_raw(obj);
}

std::string ChromeTraceBuilder::json() const {
  return "{\"traceEvents\":[" + body_ + "],\"displayTimeUnit\":\"ms\"}";
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + num(v) + "\n";
  }
  for (const auto& [name, h] : snap.latency) {
    // Log2 ns buckets; collapse the empty tail by stopping at the last
    // occupied bucket (the +Inf row still carries the full count).
    out += "# TYPE " + name + " histogram\n";
    int last = -1;
    for (int b = 0; b < kLatencyBuckets; ++b) {
      if (h.counts[static_cast<std::size_t>(b)] > 0) last = b;
    }
    std::uint64_t cum = 0;
    for (int b = 0; b <= last; ++b) {
      cum += h.counts[static_cast<std::size_t>(b)];
      out += name + "_bucket{le=\"" +
             std::to_string(LatencyHistogramSnapshot::bucket_ceil_ns(b)) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum_ns) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace mcdc::obs
