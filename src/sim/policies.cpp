#include "sim/policies.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/contracts.h"

namespace mcdc {

// ---------------- ScSimPolicy ----------------

ScSimPolicy::ScSimPolicy(const CostModel& cm, ServerId origin,
                         std::size_t epoch_transfers, double speculation_factor)
    : delta_t_(speculation_factor * cm.lambda / cm.mu),
      epoch_limit_(epoch_transfers),
      last_request_server_(origin) {}

ScSimPolicy ScSimPolicy::ski_rental(const CostModel& cm, ServerId origin,
                                    Rng& rng) {
  ScSimPolicy p(cm, origin);
  p.rule_ = Rule::kSkiRental;
  p.rng_ = &rng;
  return p;
}

ScSimPolicy ScSimPolicy::predicted(const CostModel& cm, ServerId origin,
                                   NextUseOracle oracle) {
  ScSimPolicy p(cm, origin);
  p.rule_ = Rule::kPredicted;
  p.oracle_ = std::move(oracle);
  return p;
}

std::string ScSimPolicy::name() const {
  if (rule_ == Rule::kSkiRental) return "rand-ski";
  if (rule_ == Rule::kPredicted) return "predictive-sc";
  return "sc";
}

Time ScSimPolicy::draw_window() {
  // Inverse-CDF sample of the optimal randomized ski-rental density
  // f(x) = e^x / (e - 1) on [0, 1), scaled to the deterministic window.
  const double u = rng_->uniform();
  return delta_t_ * std::log(1.0 + u * (std::numbers::e - 1.0));
}

void ScSimPolicy::on_start(ReplicaContext& ctx) {
  const auto m = static_cast<std::size_t>(ctx.num_servers());
  window_.assign(m, delta_t_);
  expiry_.assign(m, 0.0);
  ordinal_.assign(m, 0);
  if (rule_ == Rule::kSkiRental) {
    window_[static_cast<std::size_t>(last_request_server_)] = draw_window();
  }
  refresh(ctx, last_request_server_, 0);
}

void ScSimPolicy::refresh(ReplicaContext& ctx, ServerId s, RequestIndex index) {
  const auto i = static_cast<std::size_t>(s);
  if (rule_ == Rule::kPredicted) {
    window_[i] = oracle_(s, index, ctx.now()) <= delta_t_ ? delta_t_ : 0.0;
  }
  expiry_[i] = ctx.now() + window_[i];
  ordinal_[i] = ++counter_;
  ctx.wake_at(expiry_[i]);
}

void ScSimPolicy::on_request(ReplicaContext& ctx, ServerId server,
                             RequestIndex index) {
  if (ctx.has_copy(server)) {
    refresh(ctx, server, index);
  } else {
    ServerId src = last_request_server_;
    if (rule_ == Rule::kFixed) {
      // r_{i-1}'s copy was refreshed last, so it expires last and outlives
      // every drop (Observation 4); were it on this server, the request
      // would have been a hit.
      MCDC_INVARIANT(
          ctx.has_copy(src) && src != server,
          "Observation 4: copy of r_{i-1}'s server s%d must be alive on a miss",
          src + 1);
    } else if (!ctx.has_copy(src) || src == server) {
      // A zero predicted window or a short ski-rental draw can let
      // r_{i-1}'s copy expire: serve from the most recently used holder.
      std::uint64_t best = 0;
      src = kNoServer;
      for (const ServerId h : ctx.holders()) {
        if (src == kNoServer || ordinal_[static_cast<std::size_t>(h)] >= best) {
          best = ordinal_[static_cast<std::size_t>(h)];
          src = h;
        }
      }
    }
    ctx.transfer(src, server);
    if (rule_ == Rule::kSkiRental) {
      window_[static_cast<std::size_t>(server)] = draw_window();
    }
    refresh(ctx, src, index);     // the source gets a fresh window too (step 3)
    refresh(ctx, server, index);  // target refreshed after: the tie rule keeps it

    if (++epoch_transfers_ >= epoch_limit_) {
      for (const ServerId h : ctx.holders()) {
        if (h != server) ctx.drop(h);
      }
      epoch_transfers_ = 0;
    }
  }
  last_request_server_ = server;
}

void ScSimPolicy::on_wake(ReplicaContext& ctx) {
  // Drop every due copy (expiry <= now) in (expiry, ordinal) order, never
  // touching the last copy (paper §V step 4 incl. the tie and last-copy
  // rules).
  while (ctx.copy_count() > 1) {
    ServerId victim = kNoServer;
    for (const ServerId h : ctx.holders()) {
      if (expiry_[static_cast<std::size_t>(h)] > ctx.now() + kEps) continue;
      if (victim == kNoServer ||
          expiry_[static_cast<std::size_t>(h)] <
              expiry_[static_cast<std::size_t>(victim)] - kEps ||
          (almost_equal(expiry_[static_cast<std::size_t>(h)],
                        expiry_[static_cast<std::size_t>(victim)]) &&
           ordinal_[static_cast<std::size_t>(h)] <
               ordinal_[static_cast<std::size_t>(victim)])) {
        victim = h;
      }
    }
    if (victim == kNoServer) break;
    ctx.drop(victim);
  }
}

// ---------------- AlwaysMigratePolicy ----------------

void AlwaysMigratePolicy::on_request(ReplicaContext& ctx, ServerId server,
                                     RequestIndex /*index*/) {
  if (server == holder_) return;
  ctx.transfer(holder_, server);
  ctx.drop(holder_);
  holder_ = server;
}

// ---------------- StaticHomePolicy ----------------

void StaticHomePolicy::on_request(ReplicaContext& ctx, ServerId server,
                                  RequestIndex /*index*/) {
  if (server == home_) return;
  ctx.transfer(home_, server);
  ctx.drop(server);  // serve and discard immediately
}

// ---------------- FullReplicationPolicy ----------------

void FullReplicationPolicy::on_request(ReplicaContext& ctx, ServerId server,
                                       RequestIndex /*index*/) {
  if (!ctx.has_copy(server)) {
    const ServerId src = ctx.has_copy(last_) ? last_ : ctx.holders().front();
    ctx.transfer(src, server);
  }
  last_ = server;
}

// ---------------- LruKPolicy ----------------

LruKPolicy::LruKPolicy(int num_servers, ServerId origin, std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)), last_(origin) {
  last_use_.assign(static_cast<std::size_t>(num_servers), 0);
  last_use_[static_cast<std::size_t>(origin)] = ++counter_;
}

void LruKPolicy::on_request(ReplicaContext& ctx, ServerId server,
                            RequestIndex /*index*/) {
  if (!ctx.has_copy(server)) {
    const ServerId src = ctx.has_copy(last_) ? last_ : ctx.holders().front();
    ctx.transfer(src, server);
  }
  last_use_[static_cast<std::size_t>(server)] = ++counter_;
  last_ = server;
  while (ctx.copy_count() > capacity_) {
    ServerId victim = kNoServer;
    for (const ServerId h : ctx.holders()) {
      if (h == server) continue;
      if (victim == kNoServer || last_use_[static_cast<std::size_t>(h)] <
                                     last_use_[static_cast<std::size_t>(victim)]) {
        victim = h;
      }
    }
    if (victim == kNoServer) break;
    ctx.drop(victim);
  }
}

}  // namespace mcdc
