// Span recorder for the traced run (`mcdc_bench --trace`).
//
// The benchmark wraps every call it makes into a library layer
// (request_span, submit_span, solve_offline, run_network_sim, ...) in a
// span: name, start, end, parent span and thread. Spans land in a vector
// reserved up front, so recording is two clock reads and one atomic
// increment; nothing is formatted until the run ends. A disabled tracer
// makes every call a no-op, which is how the untraced run measures the
// end-to-end metrics.
//
// Timestamps come from obs::telemetry_now_ns(), the clock the engine's own
// telemetry uses, so benchmark spans and engine stage spans share a
// timeline. Each thread tracks its innermost open span in thread-local
// state; a thread started inside a span calls adopt() to name that span as
// its parent. Only one tracer may be active on a thread at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mcdc::bench {

struct SpanRecord {
  const char* name = "";       ///< static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t records = 0;   ///< work items the call covered (0 = n/a)
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 = root
  std::uint32_t thread = 0;    ///< 0 = main thread, then adopt() order
};

/// Per span name: call count, wall time, and self time (wall time minus
/// the part of each span's interval that its child spans cover).
struct LayerTime {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t records = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  /// Off: every call is a no-op. On: `capacity` spans are reserved; later
  /// spans are counted in dropped() and not kept.
  Tracer(bool on, std::size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// RAII span on the calling thread.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t records = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Make `parent` the enclosing span of spans this thread opens next and
  /// give the thread trace number `thread` (call first thing in a thread
  /// started inside a span).
  void adopt(std::int64_t parent, std::uint32_t thread) const;

  /// The calling thread's innermost open span (-1 = none).
  static std::int64_t current();

  // Call the rest only after every recording thread has joined.

  /// Spans that did not fit the reserved buffer.
  std::size_t dropped() const;

  /// Wall and self time per span name, in first-seen order.
  std::vector<LayerTime> layer_times() const;

  /// Chrome-trace/Perfetto JSON of every span (obs::ChromeTraceBuilder).
  std::string chrome_json(const std::string& process) const;

 private:
  std::vector<SpanRecord> spans() const;

  bool on_;
  std::vector<SpanRecord> slots_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace mcdc::bench
