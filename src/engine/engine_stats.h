// Per-shard and engine-level runtime statistics.
//
// Complements the ServiceReport (which books *costs*): these describe how
// the serving layer behaved — queue pressure, batch shapes, losses. They
// are collected without locks (queue counters are single-writer per lane,
// batch stats are worker-local) and snapshot after finish(), so reading
// them costs the hot path nothing. When an observer with a metrics
// registry is attached, the same numbers also roll up into per-shard
// registry metrics (see docs/OBSERVABILITY.md, "Engine").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/batcher.h"
#include "model/cost_model.h"

namespace mcdc {

/// One shard's ingest-lane counters, summed over its producer lanes and
/// assembled once after the worker joined (docs/ENGINE.md, "Queue
/// statistics under ring lanes").
struct QueueStats {
  std::uint64_t enqueued = 0;   ///< accepted pushes
  std::uint64_t dropped = 0;    ///< rejected pushes (kDrop on a full ring)
  std::uint64_t stalls = 0;     ///< producer waits (kBlock on a full ring)
  std::size_t max_depth = 0;    ///< sum of per-lane depth high-water marks
  std::size_t depth = 0;        ///< depth left at snapshot time
};

struct ShardStats {
  int shard = 0;
  std::size_t items = 0;        ///< distinct items routed to this shard
  std::uint64_t requests = 0;   ///< requests processed (births included)
  QueueStats queue;
  BatchStats batches;
  Cost cost = 0.0;              ///< this shard's share of the total cost
  std::size_t resident_bytes = 0;  ///< shard arena footprint at drain time

  // Cross-producer merge behaviour (see docs/ENGINE.md, "Ingestion
  // sessions"). All zero in single-producer runs, where the worker
  // bypasses the merge buffers entirely.
  std::size_t producers = 0;       ///< producer lanes opened on this shard
  std::size_t merge_depth_max = 0; ///< peak records parked in merge buffers
  std::uint64_t merge_stalls = 0;  ///< waits on a lagging producer watermark
  std::uint64_t ties_broken = 0;   ///< equal-time heads ordered by (producer, seq)
};

/// Per-producer ingestion accounting, snapshot by finish().
struct ProducerStats {
  std::uint32_t producer = 0;
  std::uint64_t submitted = 0;      ///< records submitted (accepted or dropped)
  std::uint64_t dropped = 0;        ///< lost to kDrop backpressure
  std::uint64_t retired = 0;        ///< processed by shard workers
  std::uint64_t max_in_flight = 0;  ///< peak submitted - dropped - retired
};

struct EngineStats {
  std::vector<ShardStats> shards;
  std::vector<ProducerStats> producers;

  std::uint64_t submitted = 0;  ///< records submitted, accepted or dropped
  std::uint64_t dropped = 0;    ///< lost to kDrop backpressure
  std::uint64_t stalls = 0;     ///< producer waits under kBlock

  /// Totals plus util/table.h breakdowns: per shard (queue pressure, batch
  /// amortization, merge behaviour, cost share) and — when more than one
  /// producer fed the engine — per producer (loss and in-flight
  /// accounting).
  std::string to_string() const;
};

}  // namespace mcdc
