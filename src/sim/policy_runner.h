// Discrete-event execution of an OnlinePolicy over a request sequence.
//
// The runner owns the event loop (requests in time order, interleaved with
// policy wake-ups), meters caching cost continuously (mu * copies * dt) and
// transfer cost per edge, verifies the serving and at-least-one-copy
// invariants, and emits a replayable Schedule. It is deliberately an
// independent accounting path from core/online_sc.cpp: tests require both
// to agree on the SC policy to the last epsilon.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/request.h"
#include "model/schedule.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace mcdc {

/// Fault injection and other execution knobs.
struct PolicyRunOptions {
  /// Probability that a single transfer attempt fails; failed attempts are
  /// retried (and billed lambda each) until one succeeds — an unreliable
  /// network model. 0 disables injection.
  double transfer_failure_prob = 0.0;
  /// Required when transfer_failure_prob > 0.
  Rng* rng = nullptr;
};

struct PolicyRunResult {
  std::string policy_name;
  Cost total_cost = 0.0;
  Cost caching_cost = 0.0;
  Cost transfer_cost = 0.0;
  std::size_t transfers = 0;
  std::size_t failed_transfer_attempts = 0;  ///< injected failures (retried)
  std::size_t hits = 0;    ///< requests that found a local copy already there
  std::size_t misses = 0;
  std::size_t max_copies = 0;
  double mean_copies = 0.0;  ///< time-averaged replica count
  Schedule schedule;
  bool feasible = true;
  std::vector<std::string> violations;
};

/// Run `policy` over `seq` under `cm`. The clock starts at t_0 = 0 with the
/// initial copy on seq.origin() and stops at t_n (copies truncate there).
/// Each policy object runs once: a second call with the same object throws
/// std::logic_error naming the policy (construct a fresh one per run).
PolicyRunResult run_policy(const RequestSequence& seq, const CostModel& cm,
                           OnlinePolicy& policy,
                           const PolicyRunOptions& options = {});

}  // namespace mcdc
