// Multi-producer ingestion sessions for the streaming engine.
//
// The engine's original submit() was single-producer: one caller owning
// the global clock. A real service is fed by many uncoordinated sources,
// so ingestion is organized around sessions: each producer opens an
// IngressSession (StreamingEngine::open_producer()) and submits its own
// strictly-increasing-time subsequence from its own thread. The session
// stamps every submission with the producer id and a per-producer
// monotone sequence number; shard workers merge the per-producer FIFO
// streams back into one time-ordered stream, breaking equal-timestamp
// ties deterministically by (producer_id, seq). docs/ENGINE.md
// ("Ingestion sessions") derives why this keeps the N-producer run
// bit-identical to the serial service regardless of thread interleaving.
//
// The submission API is BATCHED: submit_span() stamps, sequences, and
// enqueues a whole span of records with one ring publication per shard
// touched. A caller with one record in hand submits a one-element span.
//
// Transport: one lock-free SpscRing per producer×shard lane — each lane
// has exactly one writer (the session) and one reader (the shard worker),
// so the hot path is wait-free loads/stores (spsc_ring.h carries the
// memory-ordering proof).
//
// Threading contract:
//  * open_producer() calls must all happen before the first submit
//    anywhere on the engine (enforced; the merge needs the full producer
//    set before it can order anything).
//  * Each session is single-threaded; distinct sessions may run on
//    distinct threads concurrently.
//  * All producer threads must be quiesced (joined or otherwise
//    synchronized) before finish(); sessions must not outlive the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "engine/spsc_ring.h"
#include "model/request.h"
#include "util/types.h"

namespace mcdc {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class StreamingEngine;
struct SpscLane;
struct IngressRecord;

/// Engine-owned per-producer state. Stable address (the engine stores
/// these behind unique_ptrs); shard workers reach it through their lane
/// registration, producers through their IngressSession.
struct ProducerState {
  std::uint32_t id = 0;

  /// Highest time this producer has finished submitting (stored with
  /// release order *after* the enqueue). A shard worker that snapshots
  /// the watermark before draining its lane is guaranteed to have seen
  /// every record from this producer with time <= the snapshot — the
  /// merge-safety argument in docs/ENGINE.md. With submit_span the store
  /// happens once per span (after every shard bucket is enqueued), value
  /// = the span's last time.
  std::atomic<double> watermark{0.0};

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> retired{0};  ///< processed by shard workers
  std::atomic<std::uint64_t> dropped{0};  ///< rejected by kDrop backpressure
  std::atomic<bool> closed{false};

  // Producer-thread-only (read by finish() after the quiesce contract).
  Time last_time = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t max_in_flight = 0;  ///< peak submitted - dropped - retired

  /// This producer's ring lane on each shard (index = shard).
  /// Shard-owned; filled at open_producer.
  std::vector<SpscLane*> lanes;

  /// Producer-thread-only per-shard routing buckets for submit_span:
  /// records are stamped into their shard's bucket, then each non-empty
  /// bucket is enqueued in one operation. Capacity grows to the largest
  /// span ever routed (amortized; no steady-state allocation).
  std::vector<std::vector<IngressRecord>> scratch;

  // Registry handles (created at open_producer when an observer with a
  // metrics registry is attached; published once at session close).
  obs::Counter* m_submitted = nullptr;
  obs::Gauge* m_max_in_flight = nullptr;
};

/// One element of a shard's ingest lane: a stamped request. Lifecycle
/// needs no in-band records: lanes are registered directly at
/// open_producer and a closed lane is state->closed + empty ring.
struct IngressRecord {
  int item = 0;
  ServerId server = 0;
  Time time = 0.0;
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
  /// Telemetry stamp (obs::telemetry_now_ns at submit); 0 with telemetry
  /// off. Feeds the queue-wait and end-to-end histograms only — the
  /// deterministic merge orders strictly by (time, producer, seq) and
  /// never consults wall-clock stamps (bit-identity is stamp-blind).
  std::uint64_t submit_ns = 0;
};

// Queue-slot layout guards: records are copied between producer threads,
// ring buffers, and merge lanes by the millions — they must stay memcpy-
// safe, and a silent size/alignment change would shift every queue
// capacity and resident-bytes figure the benches report.
static_assert(std::is_trivially_copyable_v<IngressRecord>,
              "IngressRecord must be memcpy-safe (queue/merge-lane slots)");
static_assert(sizeof(IngressRecord) == 40 && alignof(IngressRecord) == 8,
              "IngressRecord layout changed — revisit queue capacity and "
              "resident-bytes accounting before accepting the new size");

/// One producer×shard ingest lane: a wait-free ring plus the lane's
/// share of QueueStats. Owned by the shard; the producer holds a raw
/// pointer (ProducerState::lanes).
///
/// Counter ownership is single-writer by design: `enqueued`, `dropped`,
/// `stalls` are written by the producer thread only and read by the
/// shard only after the worker joined (the drain snapshot);
/// `max_depth_seen` is worker-only. No atomics needed, no torn reads
/// possible — stats() publishes one post-quiesce snapshot.
struct SpscLane {
  explicit SpscLane(std::size_t capacity) : ring(capacity) {}

  SpscRing<IngressRecord> ring;
  ProducerState* state = nullptr;

  // Producer-thread-only counters (read at drain, after quiesce).
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stalls = 0;

  // Worker-side high-water sample of this lane's ring depth, taken at
  // each drain; summed across lanes at the final snapshot.
  std::size_t max_depth_seen = 0;
};

/// A producer's handle into the engine. Move-only; single-threaded;
/// closes itself on destruction. Obtain via
/// StreamingEngine::open_producer().
class IngressSession {
 public:
  IngressSession() = default;
  IngressSession(const IngressSession&) = delete;
  IngressSession& operator=(const IngressSession&) = delete;
  IngressSession(IngressSession&& other) noexcept;
  IngressSession& operator=(IngressSession&& other) noexcept;
  ~IngressSession();

  /// False for a default-constructed or moved-from handle.
  bool valid() const { return state_ != nullptr; }

  std::uint32_t id() const;

  /// THE ingestion API: stamp, sequence, and enqueue a whole span of
  /// records with one ring publication per shard touched. Validation is
  /// atomic — the entire span is checked (servers in range, times
  /// strictly increasing within the span and beyond this session's last
  /// time) before ANY record is enqueued, so a bad span throws
  /// std::invalid_argument with nothing partially submitted. Throws
  /// std::logic_error once closed. An empty span is a no-op (returns 0
  /// without starting ingest). Returns the number of records accepted:
  /// == batch.size() unless kDrop backpressure rejected some.
  std::size_t submit_span(std::span<const MultiItemRequest> batch);

  /// Announce end-of-stream: releases the merge from waiting on this
  /// producer's watermark. Idempotent; finish() force-closes any session
  /// left open.
  void close();

  bool closed() const;

  /// Requests submitted but neither dropped nor yet processed by shard
  /// workers (the quantity ProducerStats::max_in_flight peaks over).
  std::uint64_t in_flight() const;

 private:
  friend class StreamingEngine;
  IngressSession(StreamingEngine* engine, ProducerState* state)
      : engine_(engine), state_(state) {}

  StreamingEngine* engine_ = nullptr;
  ProducerState* state_ = nullptr;
};

/// The name the API is documented under: a ProducerHandle *is* an
/// ingestion session.
using ProducerHandle = IngressSession;

}  // namespace mcdc
