// Network-time discrete-event simulator for the scenario lab.
//
// The policy_runner world is instantaneous: a transfer lands the moment it
// is ordered, so a copy is either local or one lambda away. This simulator
// adds the network back in — ROADMAP item 3's "network delays, server
// capacities" — while running the same speculative-caching discipline:
//
//   * A transfer of an item occupies its SOURCE server's link for
//     item_size / bandwidth simulated time. Sources have `transfer_slots`
//     concurrent outgoing transfers; excess fetches queue FIFO (by event
//     sequence, so the order is deterministic).
//   * A request is a HIT (latency 0) when a local copy exists, JOINS an
//     in-flight transfer to its server when one exists (no duplicate
//     fetch), and otherwise starts a fetch from the most-recently-used
//     holder. Latency = copy-arrival time - request time, checked against
//     the scenario's SLO.
//   * Replicas expire one speculation window after their last use, exactly
//     as in SC: window = factor * lambda / mu, refreshed on every local
//     hit and on serving a transfer. The LAST copy of an item is pinned
//     (never dropped — the feasibility invariant), and a copy that is
//     currently sourcing transfers is kept alive until they complete
//     ("doomed", dropped at the next completion).
//   * An optional WindowController (scenlab/adaptive.h) is polled every
//     `interval` of simulated time with the observed hit/transfer/expiry/
//     SLO mix and retunes (factor, epoch) online — the adaptive policy of
//     the lab.
//
// Everything runs off one EventQueue ordered by (time, priority, seq); no
// wall clocks and no RNG inside the simulator, so a given (config, stream)
// replays bit-identically (the scenlab fuzz lane pins this).
//
// Accounting mirrors the paper's cost model: caching cost mu_s * (copy
// lifetime at s), transfer cost lambda(u,v) per completed transfer, and
// total == caching + transfer is enforced exactly (cost reconciliation
// invariant). Copy lifetimes truncate at the horizon = max(duration, last
// event time).
//
// Heterogeneous costs (ScenarioConfig::cost = "het:<spec>", or a
// ServingCostModel carrying a HeterogeneousCostModel): fetches pick the
// cheapest-lambda holder (ties prefer the last requesting server, then
// the most-recently-used copy — the homogeneous discipline), a transfer
// u->v occupies its source for (size/bw) * lambda(u,v)/min_lambda (link
// time scales with distance), costs lambda(u,v), and each copy's
// speculation window is factor * lambda_in / mu_s where lambda_in is the
// edge it arrived over (cheapest_in for a born copy). Under an
// exactly-homogeneous matrix every one of these expressions reduces
// bit-for-bit to the homogeneous path (x/x == 1.0, same evaluation
// order), so het-lifted runs replay bit-identically — the scenlab fuzz
// lane pins this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "workload/scenario_gen.h"

#include "scenlab/adaptive.h"
#include "scenlab/scenario_config.h"

namespace mcdc::scenlab {

struct NetworkRunResult {
  std::string policy_name;

  Cost total_cost = 0.0;
  Cost caching_cost = 0.0;
  Cost transfer_cost = 0.0;

  std::size_t requests = 0;
  std::size_t hits = 0;    ///< served by a local copy at latency 0
  std::size_t misses = 0;  ///< waited for a transfer (includes joins)
  std::size_t joins = 0;   ///< misses that latched onto an in-flight transfer
  std::size_t transfers = 0;
  std::size_t expirations = 0;  ///< copies dropped by window expiry / epoch

  std::size_t slo_met = 0;
  std::size_t slo_missed = 0;
  double latency_p50 = 0.0;  ///< simulated time units (not ns)
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
  double latency_max = 0.0;

  std::size_t max_copies = 0;  ///< peak replicas of any single item
  double copy_time = 0.0;      ///< integral of replica count over time
  Time horizon = 0.0;

  std::size_t events = 0;     ///< events processed
  std::size_t max_queue = 0;  ///< event-queue high-water mark
  std::size_t queued_transfers = 0;  ///< fetches that waited for a slot

  std::size_t monitor_intervals = 0;
  double final_factor = 1.0;
  std::size_t final_epoch = 0;

  bool feasible = true;
  std::vector<std::string> violations;
};

/// Run the network-time simulation of `stream` under `cfg`'s network and
/// policy knobs. `controller` == nullptr runs static SC at cfg.window;
/// otherwise the controller retunes (factor, epoch) every cfg.interval.
/// Items are born at their first request's server (the split_by_item
/// convention); items never requested cost nothing.
///
/// `cm` accepts a CostModel (implicit conversion; the homogeneous path)
/// or a heterogeneous ServingCostModel. cfg.cost = "het:<spec>" selects
/// heterogeneity by string instead; combining it with a heterogeneous
/// `cm` is a conflict (std::invalid_argument), and either way the model
/// must be sized for cfg.load.num_servers.
NetworkRunResult run_network_sim(const ScenarioConfig& cfg,
                                 const ServingCostModel& cm,
                                 const std::vector<MultiItemRequest>& stream,
                                 WindowController* controller = nullptr);

}  // namespace mcdc::scenlab
