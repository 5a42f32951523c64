// Configuration for the sharded streaming engine (see docs/ENGINE.md).
#pragma once

#include <cstddef>
#include <string>

#include "core/online_sc.h"

namespace mcdc {

/// What a producer experiences when its ingest lane on a shard is full.
enum class BackpressurePolicy {
  kBlock,  ///< wait until the shard drains — lossless, bounded memory; the
           ///< determinism contract (docs/ENGINE.md) holds under this policy
  kDrop,   ///< reject what does not fit (submit_span() returns the accepted
           ///< count) — lossy, bounded
};

const char* to_string(BackpressurePolicy policy);

struct EngineConfig {
  /// Number of shards (worker threads). 0 = one per hardware thread.
  int num_shards = 4;

  /// Capacity of each producer×shard ingest lane, in requests (string
  /// key `cap=`): the lane's lock-free SpscRing, rounded up to the next
  /// power of two by the ring itself.
  std::size_t queue_capacity = 1024;

  /// `policy=block` (the default) is lossless: per-item outcomes and
  /// aggregate ServiceReport totals are bit-identical to the serial
  /// OnlineDataService on the same stream (item independence makes this
  /// exact; see docs/ENGINE.md "Determinism contract"). `policy=drop`
  /// drops what does not fit.
  BackpressurePolicy policy = BackpressurePolicy::kBlock;

  /// Pipeline telemetry: per-shard stage latency histograms (queue-wait,
  /// merge-stall, batch apply, end-to-end submit->retire) and per-shard
  /// span rings for the Chrome-trace export. Off by default — the off
  /// path costs one branch per submit and per batch (held under the <2%
  /// gate in bench_obs_overhead). Everything telemetry records into is
  /// pre-allocated at construction/open_producer, so telemetry-on keeps
  /// steady-state ingest allocation-free; submit timestamps never
  /// participate in the deterministic merge order (bit-identity is
  /// unchanged either way). Histograms land in the attached observer's
  /// metrics registry, or an engine-owned registry when none is attached
  /// (see StreamingEngine::telemetry_registry()).
  bool telemetry = false;

  /// TelemetrySampler period in milliseconds: with telemetry on and a
  /// non-zero period, a background thread samples queue depth, merge
  /// depth, per-producer in-flight, and resident bytes into fixed-size
  /// ring series (docs/OBSERVABILITY.md, "Time-series sampler"). 0
  /// disables the sampler.
  std::size_t sample_ms = 0;

  /// Forwarded to every shard's OnlineDataService (speculation knobs,
  /// observer). A non-null observer's metrics registry is shared by all
  /// shards (counters are atomic); an attached TraceSink is wrapped in an
  /// obs::LockedSink so shard event streams interleave without racing.
  SpeculativeCachingOptions service_options;

  /// Cost model selector: "hom" (the CostModel the engine constructor
  /// receives) or "het:<spec>" with <spec> in the
  /// HeterogeneousCostModel::parse grammar (comma-free, so it nests in
  /// this comma-separated string form). parse() validates the spec
  /// eagerly and stores the canonical rendering; StreamingEngine resolves
  /// it against its constructor model (het spec + het constructor model
  /// is a conflict and throws there). The deterministic merge is
  /// cost-model-blind, so bit-identity to the serial service holds for
  /// heterogeneous runs too (fuzz-proven).
  std::string cost = "hom";

  /// Canonical textual form of the scalar fields, e.g.
  /// "shards=4,cap=1024,policy=block,telemetry=off,sample_ms=0,cost=hom".
  /// service_options (pointers, speculation knobs) is not part of the
  /// string form. parse(to_string()) round-trips exactly (property test).
  std::string to_string() const;

  /// Parse a comma-separated key=value list in the to_string() format.
  /// Keys may appear in any order and be omitted (defaults apply). Errors
  /// name the offending key or token and the valid choices — e.g.
  /// `EngineConfig: unknown value "blok" for key "policy" (expected
  /// block|drop)` — and throw std::invalid_argument.
  static EngineConfig parse(const std::string& text);
};

}  // namespace mcdc
