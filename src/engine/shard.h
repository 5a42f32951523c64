// One shard of the streaming engine: one ingest lane per producer, a
// worker thread, and a private OnlineDataService owning every item
// hashed here.
//
// Multi-producer ingestion (docs/ENGINE.md, "Ingestion sessions"): the
// lanes carry stamped IngressRecords from any number of sessions, each a
// strictly-increasing-time FIFO of its own. The worker drains records
// into per-producer merge lanes and emits them in global
// (time, producer_id, seq) order — the deterministic cross-producer merge
// that keeps the engine bit-identical to the serial service no matter how
// producer threads interleave. A lane's head may only be emitted once
// every other open lane either has a buffered record or a watermark
// snapshot proving its future records are strictly later; the snapshot is
// taken *before* a full drain of every lane, which is what makes trusting
// it sound (the merge-safety argument in the doc). With a single producer
// the worker bypasses the merge buffers entirely and processes records in
// arrival order — the original fast path, preserved bit for bit.
//
// Transport: one lock-free SpscRing per producer lane (registered via
// add_lane() at open_producer, sealed by freeze_lanes() at first submit).
// Producers push with wait-free span publications; the worker polls
// lanes, consuming each ring in one acquire/release pair. kBlock spins
// the producer on ring space; kDrop rejects the tail of a span that does
// not fit.
//
// Memory: the shard's service is its arena — item state lives in the
// service-owned slab (docs/ENGINE.md "Memory model"), so steady-state
// ingest allocates nothing on the worker thread and teardown releases the
// whole item population chunk-wise. The service is CachePadded: adjacent
// shards in the engine's array never false-share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/batcher.h"
#include "engine/engine_config.h"
#include "engine/engine_stats.h"
#include "engine/ingress.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "service/data_service.h"
#include "util/concurrency.h"

namespace mcdc {

class EngineShard {
 public:
  /// `options` are the per-shard service options (observer already
  /// rewired by the engine for thread safety; not owned).
  /// `telemetry_registry` is non-null iff EngineConfig::telemetry is on:
  /// the shard pre-allocates its stage latency histograms and span ring
  /// there (and registers its standard per-shard metrics into it when no
  /// observer registry is attached).
  EngineShard(int index, int num_servers, const ServingCostModel& cm,
              const EngineConfig& cfg,
              const SpeculativeCachingOptions& options,
              obs::MetricsRegistry* telemetry_registry = nullptr);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;
  ~EngineShard();

  void start();

  /// Register a producer's lane on this shard (open_producer; before the
  /// first submit anywhere). Returns the lane the producer pushes into;
  /// the shard keeps ownership.
  SpscLane* add_lane(ProducerState* p);

  /// Seal the lane set: called (once) at the first submit. After this the
  /// lane vector is immutable, so the worker scans it without locking.
  void freeze_lanes();

  /// Producer-side: push `n` stamped records into `lane` under the
  /// shard's backpressure policy, in one ring publication when they fit.
  /// Returns records accepted (== n except under kDrop). Producer thread
  /// of `lane` only.
  std::size_t lane_push_span(SpscLane& lane, const IngressRecord* data,
                             std::size_t n);

  /// Stop the worker once every lane is closed and drained, join it
  /// (rethrowing anything it threw), and return the shard's service report
  /// (per_item ascending by item id).
  ServiceReport drain_and_finish();

  /// Valid after drain_and_finish().
  ShardStats stats() const;

  int index() const { return index_; }

  /// Instantaneous ingest depth (any thread): sum of lane ring
  /// occupancies. The TelemetrySampler's per-shard probe.
  std::size_t queue_depth() const;

  // Telemetry read-outs: null with telemetry off. The histograms are
  // lock-free (readable any time); the span ring is single-writer, so
  // spans() is only safe after drain_and_finish().
  const obs::LatencyHistogram* queue_wait_hist() const {
    return queue_wait_ns_;
  }
  const obs::LatencyHistogram* merge_stall_hist() const {
    return merge_stall_ns_;
  }
  const obs::LatencyHistogram* apply_hist() const { return apply_ns_; }
  const obs::LatencyHistogram* e2e_hist() const { return e2e_ns_; }

  /// Retained stage spans, oldest first; empty with telemetry off.
  std::vector<obs::TelemetrySpan> telemetry_spans() const;

 private:
  /// Per-producer merge lane: the FIFO of this producer's records that
  /// have reached the shard but not yet been emitted, plus the watermark
  /// snapshot taken before the most recent full drain of every lane.
  struct Lane {
    std::deque<IngressRecord> buf;
    ProducerState* state = nullptr;
    double wm_snap = 0.0;
    bool closed = false;
    Time last_time = 0.0;       ///< per-lane replay-order check
    std::uint64_t last_seq = 0;
    bool saw_any = false;
    std::uint64_t retired_pending = 0;  ///< batched into state->retired
  };

  void run();
  /// Consume everything in `src`'s ring: buffer into the merge
  /// lane `ml`, or — single-producer — into the SoA scratch (telemetry
  /// off) / straight through process_record (telemetry on). `deq_ns`
  /// feeds the queue-wait histogram (0 with telemetry off).
  std::size_t drain_lane(SpscLane& src, Lane& ml, bool single,
                         std::uint64_t deq_ns);
  /// Emit every merge-eligible record; with `flush_all` (every lane closed
  /// and drained — no further input can exist) lanes are treated as
  /// closed. Returns true when records remain parked (merge stalled).
  bool process_eligible(bool flush_all);
  /// The deterministic cross-producer merge order: (time, producer id).
  /// seq never ties across lanes (each lane is already FIFO by seq).
  /// Stamp-blind by contract — mcdc-lint proves no telemetry stamp read
  /// is reachable from here (rule `stamp`).
  static bool merge_precedes(const IngressRecord& a, const IngressRecord& b);
  /// The lane whose head is globally minimal under merge_precedes, or
  /// nullptr when every lane is empty; sets `tie` when the winner shares
  /// its time with another lane's head.
  Lane* select_merge_head(bool& tie);
  void process_record(const IngressRecord& r);
  void flush_retired();

  const int index_;
  const BackpressurePolicy policy_;
  const std::size_t lane_capacity_;  ///< per-lane ring capacity
  CachePadded<OnlineDataService> service_;
  std::thread worker_;
  std::exception_ptr failure_;
  bool joined_ = false;

  // Lane registry: mutated only under lanes_mu_ and only before
  // freeze_lanes(); the worker waits on the condvar for the freeze (or
  // stop) and then reads the vector lock-free.
  mutable std::mutex lanes_mu_;
  std::condition_variable lanes_cv_;
  std::vector<std::unique_ptr<SpscLane>> spsc_lanes_;
  std::atomic<bool> lanes_frozen_{false};
  std::atomic<bool> stop_{false};

  // Worker-local state.
  RequestSoA soa_;
  BatchStats batch_stats_;
  std::vector<Lane> lanes_;
  std::size_t producers_seen_ = 0;
  std::size_t merge_buffered_ = 0;   ///< total records parked across lanes
  std::size_t merge_depth_max_ = 0;
  std::uint64_t merge_stalls_ = 0;
  std::uint64_t ties_broken_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t batch_emitted_ = 0;  ///< requests emitted since last counter flush
  Time last_time_seen_ = 0.0;
  bool saw_request_ = false;
  std::size_t items_ = 0;
  Cost cost_ = 0.0;
  std::size_t resident_bytes_ = 0;
  QueueStats queue_stats_;  ///< one consistent snapshot, taken at drain

  // Per-shard registry metrics (null without an observer registry and
  // with telemetry off).
  obs::Counter* enqueue_stalls_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Gauge* cost_total_ = nullptr;
  obs::Gauge* shard_resident_bytes_ = nullptr;
  obs::Gauge* merge_depth_ = nullptr;
  obs::Counter* merge_stall_counter_ = nullptr;

  // Pipeline telemetry (all null/empty when EngineConfig::telemetry is
  // off; pre-allocated in the constructor when on, so the worker records
  // without allocating). Stage definitions: docs/ENGINE.md,
  // "Pipeline-stage latencies".
  obs::LatencyHistogram* queue_wait_ns_ = nullptr;  ///< submit -> dequeue
  obs::LatencyHistogram* merge_stall_ns_ = nullptr; ///< stall episode length
  obs::LatencyHistogram* apply_ns_ = nullptr;       ///< dequeue -> applied
  obs::LatencyHistogram* e2e_ns_ = nullptr;         ///< submit -> retire
  /// Stage spans; the worker is the only writer.
  std::unique_ptr<obs::Ring<obs::TelemetrySpan>> spans_;

  // Worker-local telemetry bookkeeping (meaningless when telemetry off).
  std::uint64_t stall_started_ns_ = 0;     ///< open merge-stall episode
  std::uint64_t batch_min_submit_ns_ = 0;  ///< oldest stamp in this batch
  std::uint64_t batch_requests_ = 0;       ///< stamped requests in batch
  std::uint64_t last_deq_ns_ = 0;
  std::uint64_t telemetry_batches_ = 0;    ///< resident-refresh amortizer
};

}  // namespace mcdc
