// The paper's primary contribution (§IV): an optimal off-line algorithm
// for the homogeneous data-caching problem in O(mn) time and space.
//
// Recurrences (paper Eqs. 2 and 5):
//
//   C(i) = min( D(i),  C(i-1) + mu*(t_i - t_{i-1}) + lambda )
//   D(i) = min( C(p(i)) + mu*sigma_i + B_{i-1} - B_{p(i)},
//               min_{k in pi(i)} D(k) + mu*sigma_i + B_{i-1} - B_k )
//   pi(i) = { k : p(k) < p(i) <= k < i }
//
// C(i) is the optimal cost up to r_i; D(i) is the conditional optimum given
// r_i is served by the cache on its own server (which then spans
// [t_{p(i)}, t_i], Observation 3). pi(i) holds at most one candidate per
// server: the request whose server-interval spans t_{p(i)}. Finding it in
// O(1) per server is what makes the algorithm O(mn):
//
//   * kPointerMatrix — the paper's pre-scan: an (n+1) x m matrix A where
//     A[q][j] is the last request on server j with index <= q. Exactly the
//     structure of Theorem 2 / Fig. 5. Costs Theta(mn) space.
//   * kBinarySearch — per-server sorted request lists probed with
//     lower_bound: O(mn log n) time, O(n + m) space. Used automatically
//     when the matrix would be too large.
//
// Besides the optimal cost, the solver reconstructs an optimal schedule by
// backtracking the recorded decisions; callers should (and our tests do)
// verify feasibility with validate_schedule and that the schedule's
// measured cost equals C(n).
#pragma once

#include <cstdint>
#include <vector>

#include "core/marginal_bounds.h"
#include "model/cost_model.h"
#include "model/request.h"
#include "model/schedule.h"

namespace mcdc {

namespace obs {
class Observer;
}  // namespace obs

enum class PivotLookup : std::uint8_t {
  kAuto,           ///< matrix when (n+1)*m fits in ~256 MB, else binary search
  kPointerMatrix,  ///< the paper's O(mn)-space pre-scan (Theorem 2)
  kBinarySearch,   ///< O(n+m)-space variant with a log factor
};

struct OfflineDpOptions {
  PivotLookup lookup = PivotLookup::kAuto;
  bool reconstruct_schedule = true;

  /// Optional telemetry: emits one DpStageDone event (and feeds the
  /// `dp_stage_ns` histogram) per solver stage — "bounds", "forward",
  /// "reconstruct". Not owned. Null (default) = off.
  obs::Observer* observer = nullptr;
};

struct OfflineDpResult {
  /// C[i], D[i] for 0 <= i <= n (D[i] = +inf when r_i cannot be served by
  /// its own cache, e.g. the first request on a server).
  std::vector<Cost> C;
  std::vector<Cost> D;

  /// Marginal bounds used by the recurrence (also a certified lower bound).
  MarginalBounds bounds;

  /// The optimal total service cost C(n).
  Cost optimal_cost = 0.0;

  /// An optimal schedule (normalized), present when reconstruction was
  /// requested.
  Schedule schedule;
  bool has_schedule = false;

  /// How each request is served in the reconstructed optimum (useful for
  /// analysis output; kCacheTrivial/kCachePivot both mean "served by the
  /// cache on its own server").
  enum class Serve : std::uint8_t {
    kBoundary,
    kTransfer,          ///< Eq. 2 second branch: transfer from r_{i-1}'s server
    kCacheTrivial,      ///< Eq. 5 first branch (anchor C(p(i)))
    kCachePivot,        ///< Eq. 5 second branch (anchor D(kappa))
    kMarginalCache,     ///< intermediate request served by a short own-server cache (cost mu*sigma_j)
    kMarginalTransfer,  ///< intermediate request served by a transfer off the spanning cache (cost lambda)
  };
  std::vector<Serve> serve;

  /// kappa chosen for each kCachePivot decision (kNoRequest otherwise).
  std::vector<RequestIndex> pivot;
};

/// Solve the off-line data caching problem optimally.
OfflineDpResult solve_offline(const RequestSequence& seq, const CostModel& cm,
                              const OfflineDpOptions& options = {});

}  // namespace mcdc
