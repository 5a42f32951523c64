// Sharded concurrent streaming engine fronting the multi-item data service.
//
// The serial OnlineDataService ingests one request at a time, paying the
// per-item Speculative Caching update on the caller's thread — fine for a
// trace replay, a ceiling for "heavy traffic" streams. Under the
// homogeneous cost model items are independent (the service layer already
// exploits this), so the stream can be hash-partitioned by item id onto N
// shards, each an OnlineDataService of its own behind its ingest lanes:
// producers pay only stamp + hash + publish, the SC work proceeds on N
// worker threads, and no cross-shard coordination ever happens because no
// item spans shards. Each producer×shard lane is a lock-free SPSC ring.
//
// Ingestion is organized around producer sessions (engine/ingress.h):
// open_producer() hands out an IngressSession per request source; each
// session stamps its submissions with a per-producer monotone sequence
// number and shard workers merge the per-producer FIFOs back into one
// time-ordered stream with a deterministic (producer_id, seq) tie-break
// on equal timestamps. The submission API is the batched
// IngressSession::submit_span() — one validation pass, one ring
// publication per shard touched, and one watermark advance for a whole
// span of records. All sessions must be opened before the first
// submit anywhere on the engine; each session is single-threaded, and
// distinct sessions may submit concurrently from distinct threads.
//
// Determinism contract (asserted by the differential fuzz lane): under
// policy=block (the default), per-item outcomes AND aggregate
// ServiceReport totals are bit-identical
// to the serial service on the canonically merged stream — same per-item
// subsequences (stable shard_of hash + FIFO lanes + deterministic merge),
// same floating-point summation order (finalize_report over
// item-id-ascending outcomes) — REGARDLESS of producer thread
// interleaving. Only the interleaving of observer events across items is
// unspecified.
//
// The engine stays threaded under ThreadSanitizer by design — std::thread
// and std::mutex are fully instrumented — so TSan actually races the hot
// paths (util/concurrency.h states the repo-wide threading policy).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "engine/engine_config.h"
#include "engine/engine_stats.h"
#include "engine/ingress.h"
#include "engine/shard.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "obs/timeseries.h"
#include "service/data_service.h"

namespace mcdc {

class StreamingEngine {
 public:
  /// `cm` accepts a CostModel (homogeneous fast path, implicit
  /// conversion) or a ServingCostModel carrying a HeterogeneousCostModel.
  /// EngineConfig::cost = "het:<spec>" is an alternative, string-borne way
  /// to select heterogeneous costs: the spec must be sized for
  /// `num_servers` and combining it with a heterogeneous `cm` is a
  /// conflict (std::invalid_argument — two models, no tiebreak). Either
  /// way the shards' services serve per-pair costs; the deterministic
  /// merge itself never reads the cost model, so the bit-identity
  /// contract below is unchanged (het lane of the differential fuzz
  /// tower).
  StreamingEngine(int num_servers, const ServingCostModel& cm,
                  const EngineConfig& cfg = {});

  /// Joins any still-running workers; results are discarded if finish()
  /// was never called. Sessions must not outlive the engine.
  ~StreamingEngine();

  /// Open an ingestion session. Every open must happen before the first
  /// submit anywhere on the engine (throws std::logic_error afterwards —
  /// the deterministic merge needs the full producer set before it can
  /// order anything). The returned session is single-threaded; distinct
  /// sessions may run on distinct threads. finish() force-closes any
  /// session left open.
  IngressSession open_producer();

  /// Close all sessions, join all workers (rethrowing the
  /// first worker failure), and merge the per-shard reports into one
  /// ServiceReport whose per_item is ascending by item id and whose
  /// totals satisfy the finalize_report reconciliation invariant. All
  /// producer threads must be quiesced before this call.
  ServiceReport finish();

  /// Queue/batch/loss/producer statistics. Valid after finish().
  const EngineStats& stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Producers opened so far.
  std::size_t num_producers() const;

  /// Stable item -> shard assignment (splitmix64 finalizer; independent of
  /// platform, std::hash, and insertion order — part of the determinism
  /// contract).
  static std::size_t shard_of(int item, int num_shards);

  // ---- Pipeline telemetry (EngineConfig::telemetry) ---------------------

  /// True when the engine was built with telemetry on.
  bool telemetry_enabled() const { return telemetry_registry_ != nullptr; }

  /// The registry holding per-shard/per-producer metrics and the stage
  /// latency histograms: the attached observer's registry when there is
  /// one, an engine-owned registry otherwise. Null with telemetry off
  /// and no observer.
  obs::MetricsRegistry* telemetry_registry() const;

  /// Fleet-wide stage histograms, merged across shards (lock-free reads;
  /// callable any time). Empty snapshots with telemetry off.
  obs::LatencyHistogramSnapshot queue_wait_snapshot() const;
  obs::LatencyHistogramSnapshot merge_stall_snapshot() const;
  obs::LatencyHistogramSnapshot apply_snapshot() const;
  obs::LatencyHistogramSnapshot e2e_snapshot() const;

  /// Sampler ring series (EngineConfig::sample_ms); empty when the
  /// sampler never ran. Valid after finish().
  std::vector<obs::TelemetrySampler::Series> telemetry_series() const;

  /// Chrome-trace/Perfetto JSON: one wall-clock track per shard carrying
  /// queue-wait/merge-stall/apply spans, sampler series as counter
  /// tracks, plus — when `service_events` is given — the obs::Event
  /// stream as a model-time instant track. Valid after finish().
  std::string chrome_trace_json(
      const std::vector<obs::Event>* service_events = nullptr) const;

 private:
  friend class IngressSession;

  /// The session submit path: validates the WHOLE span first (nothing is
  /// enqueued on a bad span), stamps (producer, seq), buckets records per
  /// shard, enqueues each bucket in one ring publication, then advances
  /// the watermark once to the span's last time. Returns records accepted
  /// (== batch.size() except under kDrop).
  std::size_t submit_span_from(ProducerState& p,
                               std::span<const MultiItemRequest> batch);

  /// Idempotent: first closer marks the session closed (the workers'
  /// end-of-lane signal) and publishes the session's metrics.
  void close_producer(ProducerState* p);

  /// Builds the sampler's probe set (every producer is open by the first
  /// submit, so the source list is final) and launches its thread. Runs
  /// once, via sampler_once_.
  void start_sampler();

  int num_servers_;
  std::size_t sample_ms_ = 0;
  std::vector<std::unique_ptr<EngineShard>> shards_;

  /// First submit anywhere seals the lane sets (the merge needs the
  /// full producer population before it can order anything; freezing lets
  /// workers scan lanes lock-free thereafter).
  std::once_flag freeze_once_;

  // Telemetry registry: the observer's, or engine-owned when telemetry is
  // on without an observer. Null iff telemetry is off.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* telemetry_registry_ = nullptr;

  // Engine-owned observer rewiring: shards share the caller's metrics
  // registry directly (atomics), but an attached TraceSink is serialized
  // through this LockedSink.
  std::unique_ptr<obs::LockedSink> locked_sink_;
  std::unique_ptr<obs::Observer> shard_observer_;
  obs::Observer* observer_ = nullptr;  ///< caller's observer (fleet gauges)

  mutable std::mutex producers_mu_;  ///< guards producers_ and finished_
  std::vector<std::unique_ptr<ProducerState>> producers_;
  std::atomic<bool> ingest_started_{false};
  bool finished_ = false;

  // Declared after shards_ and producers_: the sampler's probes reference
  // both, so it must stop (destruction runs in reverse order) first.
  // Mutable: const readers run a passive call_once to synchronize with
  // the producer thread that lazily started the sampler.
  mutable std::once_flag sampler_once_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;

  EngineStats stats_;
};

}  // namespace mcdc
