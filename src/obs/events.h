// Typed runtime events emitted by the algorithm, service, and simulator
// layers (the `mcdc::obs` tracing pillar).
//
// Every instrumentation point produces one flat POD `Event`; a pluggable
// `TraceSink` receives them. The Event carries a superset of the fields any
// single kind needs so sinks can be allocation-free ring buffers. Cost
// accounting convention: each unit of cost is *booked* by exactly one event
// — a `kTransferIssued` books its lambda, a `kCopyExpired` books the
// mu * (death - birth) of the closed lifetime — so summing `cost_delta`
// over those two kinds reconciles exactly with the algorithm's reported
// total cost. `kRequestServed` additionally mirrors the cost attributable
// to serving that request (lambda on a miss, 0 on a hit) for per-request
// attribution; it is excluded from the booking identity.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace mcdc::obs {

enum class EventKind : std::uint8_t {
  kRequestServed = 0,  ///< a request was served (hit or via transfer)
  kTransferIssued,     ///< a copy was shipped between servers (books lambda)
  kCopyBorn,           ///< a replica came alive on a server
  kCopyExpired,        ///< a replica died (books mu * lifetime)
  kEpochReset,         ///< SC epoch completed; replica set collapsed to one
  kDpStageDone,        ///< one stage of the off-line DP finished
};

inline constexpr int kNumEventKinds = 6;

inline const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kRequestServed: return "request_served";
    case EventKind::kTransferIssued: return "transfer_issued";
    case EventKind::kCopyBorn: return "copy_born";
    case EventKind::kCopyExpired: return "copy_expired";
    case EventKind::kEpochReset: return "epoch_reset";
    case EventKind::kDpStageDone: return "dp_stage_done";
  }
  return "unknown";
}

/// One traced occurrence. Fields not meaningful for a kind keep their
/// defaults; `stage` must point to static storage (it is retained verbatim
/// by buffering sinks).
struct Event {
  EventKind kind = EventKind::kRequestServed;
  int item = -1;                ///< multi-item stream id; -1 single-instance
  RequestIndex request = kNoRequest;  ///< serving request index, if any
  ServerId server = kNoServer;  ///< served / born / expired server, transfer target
  ServerId from = kNoServer;    ///< transfer source
  Time at = 0.0;                ///< event time (absolute when offset is set)
  bool hit = false;             ///< kRequestServed: served by a local copy
  bool expired = false;         ///< kCopyExpired: window ran out (vs epoch/horizon close)
  Cost cost_delta = 0.0;        ///< cost booked/attributed by this event
  const char* stage = nullptr;  ///< kDpStageDone: stage name (static storage)
  double micros = 0.0;          ///< kDpStageDone: stage wall time in µs
};

/// Receiver interface for traced events. Implementations must tolerate
/// high call rates; heavy sinks should buffer internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& e) = 0;
};

}  // namespace mcdc::obs
