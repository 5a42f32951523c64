#include "tracer.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/export.h"
#include "obs/timeseries.h"

namespace mcdc::bench {

namespace {

thread_local std::int64_t tls_current = -1;
thread_local std::uint32_t tls_thread = 0;

}  // namespace

Tracer::Tracer(bool on, std::size_t capacity) : on_(on) {
  if (on_) slots_.resize(capacity);
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t records)
    : tracer_(tracer) {
  if (!tracer_.on_) return;
  const std::size_t i = tracer_.next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= tracer_.slots_.size()) return;
  SpanRecord& s = tracer_.slots_[i];
  s.name = name;
  s.records = records;
  s.parent = tls_current;
  s.thread = tls_thread;
  index_ = static_cast<std::int64_t>(i);
  saved_parent_ = tls_current;
  tls_current = index_;
  s.start_ns = obs::telemetry_now_ns();
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.slots_[static_cast<std::size_t>(index_)].end_ns =
      obs::telemetry_now_ns();
  tls_current = saved_parent_;
}

void Tracer::adopt(std::int64_t parent, std::uint32_t thread) const {
  tls_current = parent;
  tls_thread = thread;
}

std::int64_t Tracer::current() { return tls_current; }

std::vector<SpanRecord> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), slots_.size());
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::size_t Tracer::dropped() const {
  const std::size_t n = next_.load();
  return n > slots_.size() ? n - slots_.size() : 0;
}

std::vector<LayerTime> Tracer::layer_times() const {
  const std::vector<SpanRecord> all = spans();
  // Child intervals per parent, clipped to the parent and merged, give the
  // covered part of each span (children on several threads may overlap).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<LayerTime> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t reach = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0, 0.0, 0.0});
    LayerTime& lt = out[it->second];
    ++lt.calls;
    lt.records += s.records;
    lt.total_ms += static_cast<double>(dur) / 1e6;
    lt.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& process) const {
  obs::ChromeTraceBuilder b;
  b.add_process(1, process);
  std::uint32_t threads = 0;
  const std::vector<SpanRecord> all = spans();
  for (const SpanRecord& s : all) threads = std::max(threads, s.thread + 1);
  for (std::uint32_t t = 0; t < threads; ++t) {
    b.add_thread(1, static_cast<int>(t),
                 t == 0 ? "main" : "thread " + std::to_string(t));
  }
  for (const SpanRecord& s : all) {
    b.add_span(1, static_cast<int>(s.thread),
               {s.name, s.start_ns, s.end_ns - s.start_ns, s.records});
  }
  return b.json();
}

}  // namespace mcdc::bench
