// Online replica-management policy interface for the discrete-event
// simulator.
//
// A policy reacts to requests (and to self-scheduled wake-ups) by moving
// and dropping copies through the ReplicaContext. The simulator owns the
// clock, meters costs, enforces the problem invariants (a request must find
// a copy on its server; at least one copy must always exist), and builds a
// replayable Schedule. This gives every online strategy — the paper's SC
// and all comparison baselines — one measured, validated execution path.
#pragma once

#include <string>
#include <vector>

#include "model/request.h"
#include "util/types.h"

namespace mcdc {

class ReplicaContext {
 public:
  virtual ~ReplicaContext() = default;

  virtual Time now() const = 0;
  virtual int num_servers() const = 0;
  virtual bool has_copy(ServerId s) const = 0;
  virtual std::size_t copy_count() const = 0;
  virtual std::vector<ServerId> holders() const = 0;

  /// Replicate from `from` (must hold a copy) to `to` at the current time;
  /// costs lambda. No-op cost still applies if `to` already holds a copy
  /// (policies should not do that; the simulator flags it as a violation).
  virtual void transfer(ServerId from, ServerId to) = 0;

  /// Delete the copy on s at the current time. Dropping the last copy is a
  /// violation (the problem requires one copy at all times).
  virtual void drop(ServerId s) = 0;

  /// Request an on_wake callback at absolute time t (>= now).
  virtual void wake_at(Time t) = 0;
};

struct PolicyRunOptions;
struct PolicyRunResult;
struct CostModel;

/// A policy object is single-use: it keeps its state (last server,
/// counters, windows) across callbacks, so run_policy() runs each object
/// once and throws std::logic_error when handed one that already ran.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  virtual std::string name() const = 0;

  /// Called once at t = 0 with the initial copy on the origin in place.
  virtual void on_start(ReplicaContext& ctx) { (void)ctx; }

  /// Called at each request time. On return the request's server must hold
  /// a copy, or must have been the target of a transfer at this instant
  /// (transfer-and-drop service is legal: transfer then drop).
  virtual void on_request(ReplicaContext& ctx, ServerId server,
                          RequestIndex index) = 0;

  /// Called for wake-ups scheduled via wake_at.
  virtual void on_wake(ReplicaContext& ctx) { (void)ctx; }

 private:
  friend PolicyRunResult run_policy(const RequestSequence& seq,
                                    const CostModel& cm, OnlinePolicy& policy,
                                    const PolicyRunOptions& options);
  bool ran_ = false;  ///< set by run_policy() only
};

}  // namespace mcdc
