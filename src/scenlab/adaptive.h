// AdaptiveController: online retuning of the SC speculation window.
//
// The paper fixes delta_t = lambda / mu, the deterministic ski-rental
// break-even: a copy is kept exactly as long as its caching cost since the
// last use stays below one transfer. That is worst-case optimal but load-
// blind. When the per-pair request rate r is known, the expected-cost
// calculus changes: holding a copy one base window costs mu * delta_t =
// lambda and saves lambda per re-hit, so re-hits per window r * delta_t
// is the natural dial — above 1, longer holds pay for themselves (rent
// less, buy more); below 1, most holds expire unused and the window
// should shrink toward pure transfer-on-demand.
//
// The controller estimates r each monitoring interval as the REPEAT rate
// (requests - active_pairs) / (active_pairs * interval): active_pairs is
// the number of distinct (item, server) pairs that saw traffic, so the
// numerator counts only re-accesses — the events a held copy can convert
// into hits (a pair touched once pays its transfer no matter the window).
// The estimate is EWMA-smoothed and steers the window factor toward
// clamp(r * delta_base, lo, hi) with two overrides:
//
//   * waste guard — if more copies expired unused than were re-hit, the
//     window halves regardless of the rate estimate (the estimate lags
//     reality on the way down, e.g. at diurnal dusk);
//   * SLO pressure — if more than slo_miss_percent of requests missed
//     their latency SLO, the window doubles (more replicas -> more local
//     hits; network latency only shows where copies are absent).
//
// Epoch length retunes on the same signal: under sustained waste the
// controller installs a short epoch (collapse to one copy every few
// transfers) to prune replica sprawl, otherwise it restores the
// configured epoch. All of it is pure arithmetic on the interval stats —
// no clocks, no RNG — so adaptive runs replay bit-identically.
#pragma once

#include <cstddef>

#include "util/types.h"

namespace mcdc {

/// What a WindowController observes over one monitoring interval. All
/// counters cover the interval just ended, not the whole run.
struct WindowIntervalStats {
  Time interval = 0.0;          ///< interval length in simulated time
  std::size_t requests = 0;
  std::size_t hits = 0;         ///< requests that found a local copy
  std::size_t misses = 0;       ///< requests served by a transfer
  std::size_t expirations = 0;  ///< copies that expired unused
  std::size_t slo_missed = 0;   ///< requests that missed their latency SLO
  /// Distinct (item, server) pairs that received requests this interval —
  /// the denominator for the per-pair arrival-rate estimate lambda-hat.
  std::size_t active_pairs = 0;
};

/// A controller's retuning decision, applied to all subsequent holds.
struct WindowDecision {
  /// New speculation factor: delta_t = factor * lambda / mu.
  double factor = 1.0;
  /// New epoch length in transfers (0 = no epoch resets).
  std::size_t epoch_transfers = 0;
};

/// Measure-then-adapt hook: called once per monitoring interval with the
/// observed hit/transfer/expiry/SLO mix; returns the window/epoch
/// retuning. scenlab::run_network_sim polls it; AdaptiveController below
/// implements it.
class WindowController {
 public:
  virtual ~WindowController() = default;
  virtual WindowDecision on_interval(const WindowIntervalStats& stats,
                                     const WindowDecision& current) = 0;
  /// Called at the start of each run so one controller can serve many
  /// runs in sequence.
  virtual void reset() {}
};

}  // namespace mcdc

namespace mcdc::scenlab {

struct AdaptiveOptions {
  /// Base speculation window lambda / mu (factor 1.0).
  double delta_base = 1.0;
  /// EWMA smoothing weight of the newest rate sample, in (0, 1].
  double ewma = 0.4;
  /// Window-factor clamp range.
  double clamp_lo = 0.25;
  double clamp_hi = 8.0;
  /// Per-step blend toward the target factor, in (0, 1].
  double blend = 0.5;
  /// SLO pressure threshold: misses * 100 > requests * slo_miss_percent
  /// doubles the window.
  double slo_miss_percent = 5.0;
  /// Epoch installed while the waste guard trips (0 = never prune).
  std::size_t prune_epoch = 8;
  /// Epoch restored in calm intervals (the scenario's configured epoch).
  std::size_t base_epoch = 0;
};

class AdaptiveController final : public WindowController {
 public:
  explicit AdaptiveController(const AdaptiveOptions& options);

  WindowDecision on_interval(const WindowIntervalStats& stats,
                             const WindowDecision& current) override;
  void reset() override;

  /// Smoothed per-pair request rate (requests per time unit); 0 until the
  /// first non-empty interval.
  double rate_estimate() const { return rate_ewma_; }

 private:
  AdaptiveOptions opt_;
  double rate_ewma_ = 0.0;
  bool warm_ = false;
};

}  // namespace mcdc::scenlab
