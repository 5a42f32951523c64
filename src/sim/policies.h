// Online replica-management policies for the simulator.
//
//  * ScSimPolicy        — the paper's Speculative Caching, re-implemented
//                         on top of the generic policy API. Intentionally a
//                         second, independent implementation: tests require
//                         cost equality with core/online_sc.cpp. One state
//                         machine with three window rules (fixed, ski-rental,
//                         predicted); only the fixed rule is the paper's.
//  * AlwaysMigratePolicy— one copy that follows the request stream
//                         (transfer on every server change, never replicate).
//  * StaticHomePolicy   — the copy never leaves the origin; remote requests
//                         are served by transfer-and-discard.
//  * FullReplicationPolicy — replicate on first touch, never delete.
//  * LruKPolicy         — capacity-driven baseline: at most k replicas,
//                         least-recently-used eviction (classic caching
//                         transplanted into the cloud cost model; Table I's
//                         left column).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/cost_model.h"
#include "sim/policy.h"
#include "sim/predictive_policy.h"
#include "util/rng.h"

namespace mcdc {

/// Speculative Caching (paper §V): a used copy lives one window past its
/// last use, the last copy never expires, a miss is served from r_{i-1}'s
/// server, and the source of a transfer is refreshed with its target. The
/// window rule is the one part that varies:
///
///  * fixed      — factor * lambda / mu for every copy, plus an epoch
///                 limit: every `epoch_transfers` transfers the replica set
///                 collapses onto the requesting server (name "sc");
///  * ski-rental — each copy draws its window once, when it is created,
///                 from the randomized ski-rental density e^x / (e - 1) on
///                 [0, 1) scaled by lambda / mu (name "rand-ski");
///  * predicted  — at every refresh the window is lambda / mu if the oracle
///                 predicts the copy's next use inside it, else 0 (name
///                 "predictive-sc"; see sim/predictive_policy.h).
class ScSimPolicy final : public OnlinePolicy {
 public:
  /// The fixed rule; the default epoch limit never resets.
  ScSimPolicy(const CostModel& cm, ServerId origin,
              std::size_t epoch_transfers = static_cast<std::size_t>(-1),
              double speculation_factor = 1.0);
  /// The ski-rental rule; draws from `rng`, which must outlive the policy.
  static ScSimPolicy ski_rental(const CostModel& cm, ServerId origin, Rng& rng);
  /// The predicted rule.
  static ScSimPolicy predicted(const CostModel& cm, ServerId origin,
                               NextUseOracle oracle);

  std::string name() const override;
  void on_start(ReplicaContext& ctx) override;
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;
  void on_wake(ReplicaContext& ctx) override;

 private:
  enum class Rule { kFixed, kSkiRental, kPredicted };

  Time draw_window();
  void refresh(ReplicaContext& ctx, ServerId s, RequestIndex index);

  Rule rule_ = Rule::kFixed;
  Time delta_t_;
  std::size_t epoch_limit_;
  std::size_t epoch_transfers_ = 0;
  ServerId last_request_server_;
  Rng* rng_ = nullptr;    ///< ski-rental rule only
  NextUseOracle oracle_;  ///< predicted rule only
  std::vector<Time> window_;
  std::vector<Time> expiry_;
  std::vector<std::uint64_t> ordinal_;
  std::uint64_t counter_ = 0;
};

class AlwaysMigratePolicy final : public OnlinePolicy {
 public:
  explicit AlwaysMigratePolicy(ServerId origin) : holder_(origin) {}
  std::string name() const override { return "always-migrate"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId holder_;
};

class StaticHomePolicy final : public OnlinePolicy {
 public:
  explicit StaticHomePolicy(ServerId origin) : home_(origin) {}
  std::string name() const override { return "static-home"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId home_;
};

class FullReplicationPolicy final : public OnlinePolicy {
 public:
  explicit FullReplicationPolicy(ServerId origin) : last_(origin) {}
  std::string name() const override { return "full-replication"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId last_;
};

class LruKPolicy final : public OnlinePolicy {
 public:
  LruKPolicy(int num_servers, ServerId origin, std::size_t capacity);
  std::string name() const override { return "lru-" + std::to_string(capacity_); }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  std::size_t capacity_;
  ServerId last_;
  std::vector<std::uint64_t> last_use_;
  std::uint64_t counter_ = 0;
};

}  // namespace mcdc
