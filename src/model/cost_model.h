// Cost models (paper §III).
//
// The paper's model is homogeneous: caching costs mu per copy per unit
// time on every server, and any server-to-server transfer costs lambda.
// Replication and deletion are free (folded into the transfer cost).
//
// HeterogeneousCostModel is the generalization every related work takes
// (per-server caching rates mu_s, a per-pair transfer metric lambda(u,v),
// edge/cloud tiers). It is a first-class serving model: the speculative
// cache, the data service, the streaming engine, and the scenario lab all
// accept it through ServingCostModel. The O(mn) DP still requires
// homogeneity (its optimality proof does); the solve_offline facade
// dispatches on it.
//
// Hot-path contract: mu()/lambda() are O(1) flat-buffer reads guarded by
// MCDC_ASSERT (compiled out in release), never bounds-checked `.at()` —
// they sit inside the per-request serving loop.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/annotate.h"
#include "util/contracts.h"
#include "util/types.h"

namespace mcdc {

struct CostModel {
  double mu = 1.0;      ///< caching cost per unit time per copy
  double lambda = 1.0;  ///< transfer cost between any two servers

  CostModel() = default;
  CostModel(double mu_, double lambda_) : mu(mu_), lambda(lambda_) {
    if (mu <= 0 || lambda <= 0) {
      throw std::invalid_argument("CostModel: mu and lambda must be > 0");
    }
  }

  /// The speculative window of the online SC algorithm (paper §V):
  /// keeping a copy for delta_t costs exactly one transfer.
  Time speculation_window() const { return lambda / mu; }

  Cost caching(Time duration) const { return mu * duration; }
  Cost transfer() const { return lambda; }
};

class HeterogeneousCostModel {
 public:
  struct Options {
    /// Reject transfer matrices that violate the triangle inequality
    /// lambda(j,l) <= lambda(j,k) + lambda(k,l). The SC window derivation
    /// and the het heuristic's bound both assume a metric; pass false to
    /// study deliberately non-metric instances.
    bool require_metric = true;
  };

  /// Homogeneous-equivalent constructor (the lift used by cross-checks:
  /// every serving path must be bit-identical to the CostModel path).
  HeterogeneousCostModel(int m, const CostModel& base);

  /// Fully general: mu[j] and lambda[j][k] (lambda[j][j] ignored).
  HeterogeneousCostModel(std::vector<double> mu,
                         std::vector<std::vector<double>> lambda,
                         Options options);
  HeterogeneousCostModel(std::vector<double> mu,
                         std::vector<std::vector<double>> lambda)
      : HeterogeneousCostModel(std::move(mu), std::move(lambda), Options{}) {}

  /// Two-tier topology: `edge_servers` edge boxes then `cloud_servers`
  /// cloud boxes. Transfers cost lambda_edge within the edge tier,
  /// lambda_cross between tiers, lambda_cloud within the cloud tier.
  static HeterogeneousCostModel edge_cloud(int edge_servers, int cloud_servers,
                                           double mu_edge, double mu_cloud,
                                           double lambda_edge,
                                           double lambda_cross,
                                           double lambda_cloud,
                                           Options options);
  static HeterogeneousCostModel edge_cloud(int edge_servers, int cloud_servers,
                                           double mu_edge, double mu_cloud,
                                           double lambda_edge,
                                           double lambda_cross,
                                           double lambda_cloud) {
    return edge_cloud(edge_servers, cloud_servers, mu_edge, mu_cloud,
                      lambda_edge, lambda_cross, lambda_cloud, Options{});
  }

  int m() const { return m_; }

  MCDC_HOT_PATH double mu(ServerId s) const {
    MCDC_ASSERT(s >= 0 && s < m_, "mu: server %d out of range m=%d", s, m_);
    return mu_[static_cast<std::size_t>(s)];
  }

  MCDC_HOT_PATH double lambda(ServerId from, ServerId to) const {
    if (from == to) {
      throw std::invalid_argument("lambda: self transfer is undefined");
    }
    MCDC_ASSERT(from >= 0 && from < m_ && to >= 0 && to < m_,
                "lambda: pair (%d,%d) out of range m=%d", from, to, m_);
    return lambda_[static_cast<std::size_t>(from) *
                       static_cast<std::size_t>(m_) +
                   static_cast<std::size_t>(to)];
  }

  /// min over u != to of lambda(u,to): the cheapest way to re-create a
  /// copy at `to`, precomputed (used for the origin copy's window).
  MCDC_HOT_PATH double cheapest_in(ServerId to) const {
    MCDC_ASSERT(to >= 0 && to < m_, "cheapest_in: server %d out of range m=%d",
                to, m_);
    return cheapest_in_[static_cast<std::size_t>(to)];
  }

  double min_lambda() const { return min_lambda_; }
  double max_lambda() const { return max_lambda_; }

  Cost caching(ServerId s, Time duration) const { return mu(s) * duration; }

  /// The distance-scaled speculation window: holding the copy that the
  /// transfer u->v just created for delta_t(u,v) = lambda(u,v) / mu_v
  /// costs exactly one such transfer (paper §V's ski-rental argument,
  /// per edge). Association matches CostModel::speculation_window so the
  /// homogeneous lift collapses bit-identically.
  Time speculation_window(ServerId from, ServerId to) const {
    return lambda(from, to) / mu(to);
  }

  /// Tolerance-based (almost_equal): the solver-dispatch notion.
  bool is_homogeneous() const;
  /// Bitwise: every mu identical and every off-diagonal lambda identical.
  /// This is the serving-path dispatch predicate — only an exact lift may
  /// take the scalar fast path, anything else must stay heterogeneous.
  bool is_exactly_homogeneous() const;
  /// The scalar reduction (mu[0], first off-diagonal lambda). Only
  /// faithful when is_exactly_homogeneous(); otherwise a representative.
  CostModel as_homogeneous() const;

  bool metric_checked() const { return metric_checked_; }

  /// Canonical spec string `mu=a|b;lam=0|x|y|0[;metric=off]` — comma-free
  /// on purpose so it nests verbatim inside the EngineConfig /
  /// ScenarioConfig `cost=het:<spec>` value. parse(to_string()) == *this.
  std::string to_string() const;
  /// Accepts the canonical form plus the tier shorthand
  /// `tier=ExC;mu=mu_edge|mu_cloud;lam=edge|cross|cloud`. Errors follow
  /// the EngineConfig contract (offending key, token, and expectations).
  static HeterogeneousCostModel parse(const std::string& spec);

  friend bool operator==(const HeterogeneousCostModel& a,
                         const HeterogeneousCostModel& b) {
    return a.mu_ == b.mu_ && a.lambda_ == b.lambda_ &&
           a.metric_checked_ == b.metric_checked_;
  }

 private:
  HeterogeneousCostModel() = default;
  void validate_and_index(const Options& options);

  int m_ = 0;
  std::vector<double> mu_;
  std::vector<double> lambda_;  ///< m*m row-major, diagonal stored as 0
  std::vector<double> cheapest_in_;
  double min_lambda_ = 0.0;
  double max_lambda_ = 0.0;
  bool metric_checked_ = true;
};

/// The cost model the serving stack actually threads through itself.
/// A homogeneous CostModel converts implicitly (every pre-existing call
/// site compiles unchanged and pays two scalar copies, nothing else); a
/// HeterogeneousCostModel rides along as a shared immutable matrix. The
/// serving code branches once on het(): null means the paper's scalar
/// fast path, non-null means per-pair costs.
class ServingCostModel {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): the implicit conversion
  // is the compatibility seam for the homogeneous fast path.
  ServingCostModel(const CostModel& hom) : hom_(hom) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  ServingCostModel(const HeterogeneousCostModel& het)
      : hom_(het.as_homogeneous()),
        het_(std::make_shared<const HeterogeneousCostModel>(het)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  ServingCostModel(std::shared_ptr<const HeterogeneousCostModel> het)
      : hom_(het->as_homogeneous()), het_(std::move(het)) {}

  bool heterogeneous() const { return het_ != nullptr; }
  /// The scalar model: exact when !heterogeneous(), the representative
  /// as_homogeneous() reduction otherwise.
  const CostModel& hom() const { return hom_; }
  /// Null on the homogeneous fast path. The pointee is immutable and
  /// outlives every copy of this ServingCostModel (shared ownership).
  const HeterogeneousCostModel* het() const { return het_.get(); }
  std::shared_ptr<const HeterogeneousCostModel> het_ptr() const {
    return het_;
  }

 private:
  CostModel hom_;
  std::shared_ptr<const HeterogeneousCostModel> het_;
};

/// Resolve a `cost=hom|het:<spec>` config string (EngineConfig::cost,
/// ScenarioConfig::cost) against the model the caller was handed: "hom"
/// keeps `explicit_model`; "het:<spec>" parses the spec, and conflicts
/// with an `explicit_model` that is heterogeneous too. A heterogeneous
/// result, whichever way it arrived, must be sized for `num_servers`.
/// Errors are std::invalid_argument prefixed with `caller`.
ServingCostModel resolve_cost(const std::string& cost,
                              const ServingCostModel& explicit_model,
                              int num_servers, const std::string& caller);

}  // namespace mcdc
