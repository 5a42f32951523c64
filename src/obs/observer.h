// Observer: the single handle instrumented code holds.
//
// Bundles an optional MetricsRegistry and an optional TraceSink behind one
// pointer. Construction registers the standard metric set once and caches
// the returned handles, so every hook is a couple of cached-pointer updates
// plus (when a sink is attached) one virtual call — no map lookups, no
// allocation, no lock, nothing on the hot path that scales with registry
// size. The three timers (request_latency_ns, dp_stage_ns,
// executor_replay_ns) are LatencyHistograms in integer nanoseconds.
//
// Attachment points:
//   SpeculativeCachingOptions::observer  — SC + OnlineDataService
//   OfflineDpOptions::observer           — the off-line DP stages
//   execute_schedule(..., observer)      — the discrete-event replay
//
// An absent observer (nullptr, the default everywhere) costs one branch per
// instrumentation site. Standard metric names are listed in
// docs/OBSERVABILITY.md.
#pragma once

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/annotate.h"

namespace mcdc::obs {

class Observer {
 public:
  Observer() = default;

  explicit Observer(MetricsRegistry* metrics, TraceSink* sink = nullptr)
      : metrics_(metrics), sink_(sink) {
    if (metrics_ == nullptr) return;
    requests_served_ = &metrics_->counter("requests_served");
    cache_hits_ = &metrics_->counter("cache_hits");
    cache_misses_ = &metrics_->counter("cache_misses");
    transfers_issued_ = &metrics_->counter("transfers_issued");
    copies_born_ = &metrics_->counter("copies_born");
    copies_expired_ = &metrics_->counter("copies_expired");
    epoch_resets_ = &metrics_->counter("epoch_resets");
    dp_stages_ = &metrics_->counter("dp_stages");
    replicas_alive_ = &metrics_->gauge("replicas_alive");
    items_live_ = &metrics_->gauge("items_live");
    service_resident_bytes_ = &metrics_->gauge("service_resident_bytes");
    request_latency_ns_ = &metrics_->latency("request_latency_ns");
    dp_stage_ns_ = &metrics_->latency("dp_stage_ns");
    executor_replay_ns_ = &metrics_->latency("executor_replay_ns");
  }

  MetricsRegistry* metrics() const { return metrics_; }
  TraceSink* sink() const { return sink_; }

  // --- instrumentation hooks -------------------------------------------

  MCDC_ALLOC_OK("sink tracing is opt-in diagnostics; the metrics side is atomics only")
  void request_served(int item, RequestIndex request, ServerId server, Time at,
                      bool hit, Cost cost_delta, std::size_t replicas_alive) {
    if (metrics_ != nullptr) {
      requests_served_->inc();
      (hit ? cache_hits_ : cache_misses_)->inc();
      replicas_alive_->set(static_cast<double>(replicas_alive));
    }
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kRequestServed;
      e.item = item;
      e.request = request;
      e.server = server;
      e.at = at;
      e.hit = hit;
      e.cost_delta = cost_delta;
      sink_->on_event(e);
    }
  }

  MCDC_ALLOC_OK("sink tracing is opt-in diagnostics; the metrics side is atomics only")
  void transfer_issued(int item, RequestIndex request, ServerId from,
                       ServerId to, Time at, Cost cost_delta) {
    if (metrics_ != nullptr) transfers_issued_->inc();
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kTransferIssued;
      e.item = item;
      e.request = request;
      e.server = to;
      e.from = from;
      e.at = at;
      e.cost_delta = cost_delta;
      sink_->on_event(e);
    }
  }

  MCDC_ALLOC_OK("sink tracing is opt-in diagnostics; the metrics side is atomics only")
  void copy_born(int item, ServerId server, Time at) {
    if (metrics_ != nullptr) copies_born_->inc();
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kCopyBorn;
      e.item = item;
      e.server = server;
      e.at = at;
      sink_->on_event(e);
    }
  }

  MCDC_ALLOC_OK("sink tracing is opt-in diagnostics; the metrics side is atomics only")
  void copy_expired(int item, ServerId server, Time at, bool expired,
                    Cost cost_delta) {
    if (metrics_ != nullptr) copies_expired_->inc();
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kCopyExpired;
      e.item = item;
      e.server = server;
      e.at = at;
      e.expired = expired;
      e.cost_delta = cost_delta;
      sink_->on_event(e);
    }
  }

  MCDC_ALLOC_OK("sink tracing is opt-in diagnostics; the metrics side is atomics only")
  void epoch_reset(int item, Time at) {
    if (metrics_ != nullptr) epoch_resets_->inc();
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kEpochReset;
      e.item = item;
      e.at = at;
      sink_->on_event(e);
    }
  }

  /// `stage` must point to static storage (a string literal). The
  /// histogram records the stage time rounded to whole nanoseconds; the
  /// event keeps the µs reading as given.
  void dp_stage_done(const char* stage, double micros) {
    if (metrics_ != nullptr) {
      dp_stages_->inc();
      dp_stage_ns_->record(
          micros > 0.0 ? static_cast<std::uint64_t>(micros * 1e3 + 0.5) : 0);
    }
    if (sink_ != nullptr) {
      Event e;
      e.kind = EventKind::kDpStageDone;
      e.stage = stage;
      e.micros = micros;
      sink_->on_event(e);
    }
  }

  void set_items_live(std::size_t n) {
    if (items_live_ != nullptr) items_live_->set(static_cast<double>(n));
  }

  /// Resident heap footprint of a serving layer (item slab + index + copy
  /// state; see OnlineDataService::resident_bytes). Engine shards add to
  /// the shared gauge so the exported value covers the whole fleet.
  void set_service_resident_bytes(std::size_t bytes) {
    if (service_resident_bytes_ != nullptr) {
      service_resident_bytes_->set(static_cast<double>(bytes));
    }
  }
  void add_service_resident_bytes(std::size_t bytes) {
    if (service_resident_bytes_ != nullptr) {
      service_resident_bytes_->add(static_cast<double>(bytes));
    }
  }

  // Cached histogram handles for ScopedTimer call sites (null without a
  // registry, which ScopedTimer treats as "off").
  LatencyHistogram* request_latency_ns() const { return request_latency_ns_; }
  LatencyHistogram* executor_replay_ns() const { return executor_replay_ns_; }

 private:
  MetricsRegistry* metrics_ = nullptr;
  TraceSink* sink_ = nullptr;

  Counter* requests_served_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  Counter* transfers_issued_ = nullptr;
  Counter* copies_born_ = nullptr;
  Counter* copies_expired_ = nullptr;
  Counter* epoch_resets_ = nullptr;
  Counter* dp_stages_ = nullptr;
  Gauge* replicas_alive_ = nullptr;
  Gauge* items_live_ = nullptr;
  Gauge* service_resident_bytes_ = nullptr;
  LatencyHistogram* request_latency_ns_ = nullptr;
  LatencyHistogram* dp_stage_ns_ = nullptr;
  LatencyHistogram* executor_replay_ns_ = nullptr;
};

}  // namespace mcdc::obs
