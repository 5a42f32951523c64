#include "obs/metrics.h"

#include <ostream>

#include "obs/format.h"
#include "util/csv.h"

namespace mcdc::obs {

using detail::json_string;
using detail::num;

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += json_string(name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += json_string(name);
    out += ':';
    out += num(v);
  }
  out += "},\"latency\":{";
  first = true;
  for (const auto& [name, h] : latency) {
    if (!first) out += ',';
    first = false;
    out += json_string(name);
    out += ":{\"counts\":[";
    for (int b = 0; b < kLatencyBuckets; ++b) {
      if (b) out += ',';
      out += std::to_string(h.counts[static_cast<std::size_t>(b)]);
    }
    out += "],\"count\":" + std::to_string(h.count);
    out += ",\"sum_ns\":" + std::to_string(h.sum_ns);
    out += ",\"max_ns\":" + std::to_string(h.max_ns);
    out += ",\"p50_ns\":" + num(h.p50_ns());
    out += ",\"p95_ns\":" + num(h.p95_ns());
    out += ",\"p99_ns\":" + num(h.p99_ns());
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsSnapshot::write_csv(std::ostream& out) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"kind", "name", "key", "value"});
  for (const auto& [name, v] : counters) {
    rows.push_back({"counter", name, "value", std::to_string(v)});
  }
  for (const auto& [name, v] : gauges) {
    rows.push_back({"gauge", name, "value", num(v)});
  }
  for (const auto& [name, h] : latency) {
    // 48 log2 buckets are mostly empty in practice; only emit occupied
    // ones (the ceilings make the row self-describing).
    for (int b = 0; b < kLatencyBuckets; ++b) {
      const std::uint64_t c = h.counts[static_cast<std::size_t>(b)];
      if (c == 0) continue;
      rows.push_back(
          {"latency", name,
           "le_" +
               std::to_string(LatencyHistogramSnapshot::bucket_ceil_ns(b)),
           std::to_string(c)});
    }
    rows.push_back({"latency", name, "count", std::to_string(h.count)});
    rows.push_back({"latency", name, "sum_ns", std::to_string(h.sum_ns)});
    rows.push_back({"latency", name, "max_ns", std::to_string(h.max_ns)});
  }
  csv_write(out, rows);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::latency(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latency_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.latency.reserve(latency_.size());
  for (const auto& [name, h] : latency_) {
    s.latency.emplace_back(name, h->snapshot());
  }
  return s;
}

LabeledMetricFamily::LabeledMetricFamily(MetricsRegistry& reg,
                                         const char* base, std::size_t label)
    : reg_(&reg), prefix_(base + std::to_string(label) + "_") {}

Counter& LabeledMetricFamily::counter(const char* field) const {
  return reg_->counter(prefix_ + field);
}

Gauge& LabeledMetricFamily::gauge(const char* field) const {
  return reg_->gauge(prefix_ + field);
}

LatencyHistogram& LabeledMetricFamily::latency(const char* field) const {
  return reg_->latency(prefix_ + field);
}

}  // namespace mcdc::obs
