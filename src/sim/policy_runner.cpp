#include "sim/policy_runner.h"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace mcdc {

namespace {

class RunnerContext final : public ReplicaContext {
 public:
  RunnerContext(const RequestSequence& seq, const CostModel& cm,
                const PolicyRunOptions& options, PolicyRunResult& out)
      : seq_(seq), cm_(cm), options_(options), out_(out) {
    holds_.assign(static_cast<std::size_t>(seq.m()), false);
    birth_.assign(static_cast<std::size_t>(seq.m()), 0.0);
    holds_[static_cast<std::size_t>(seq.origin())] = true;
    copies_ = 1;
    out_.max_copies = 1;
  }

  // -- ReplicaContext --
  Time now() const override { return now_; }
  int num_servers() const override { return seq_.m(); }
  bool has_copy(ServerId s) const override {
    return holds_.at(static_cast<std::size_t>(s));
  }
  std::size_t copy_count() const override { return copies_; }
  std::vector<ServerId> holders() const override {
    std::vector<ServerId> out;
    for (ServerId s = 0; s < seq_.m(); ++s) {
      if (holds_[static_cast<std::size_t>(s)]) out.push_back(s);
    }
    return out;
  }

  void transfer(ServerId from, ServerId to) override {
    if (from < 0 || to < 0 || from >= seq_.m() || to >= seq_.m() || from == to) {
      violation("transfer with invalid endpoints");
      return;
    }
    if (!holds_[static_cast<std::size_t>(from)]) {
      violation("transfer from a server without a copy");
      return;
    }
    // Fault injection: each attempt fails independently and is retried
    // (and billed) until one succeeds.
    if (options_.transfer_failure_prob > 0.0) {
      while (options_.rng->bernoulli(options_.transfer_failure_prob)) {
        out_.transfer_cost += cm_.lambda;
        ++out_.failed_transfer_attempts;
      }
    }
    out_.schedule.add_transfer(from, to, now_);
    out_.transfer_cost += cm_.lambda;
    ++out_.transfers;
    transferred_to_now_ = to;
    if (!holds_[static_cast<std::size_t>(to)]) {
      holds_[static_cast<std::size_t>(to)] = true;
      birth_[static_cast<std::size_t>(to)] = now_;
      ++copies_;
      out_.max_copies = std::max(out_.max_copies, copies_);
    } else {
      violation("transfer to a server that already holds a copy");
    }
  }

  void drop(ServerId s) override {
    if (s < 0 || s >= seq_.m() || !holds_[static_cast<std::size_t>(s)]) {
      violation("drop on a server without a copy");
      return;
    }
    if (copies_ == 1) {
      violation("drop of the last copy");
      return;
    }
    close_copy(s, now_);
  }

  void wake_at(Time t) override {
    if (t < now_ - kEps) {
      violation("wake_at in the past");
      return;
    }
    wakes_.push(t);
  }

  // -- runner-side API --
  void advance_to(Time t) {
    integral_ += static_cast<double>(copies_) * (t - now_);
    out_.caching_cost += cm_.mu * static_cast<double>(copies_) * (t - now_);
    now_ = t;
    transferred_to_now_ = kNoServer;
  }

  bool has_pending_wake_before(Time t) const {
    return !wakes_.empty() && wakes_.top() < t - kEps;
  }
  bool has_pending_wake_at_or_before(Time t) const {
    return !wakes_.empty() && wakes_.top() <= t + kEps;
  }
  Time next_wake() const { return wakes_.top(); }
  void pop_wake() { wakes_.pop(); }

  ServerId transferred_to_now() const { return transferred_to_now_; }
  void clear_transfer_marker() { transferred_to_now_ = kNoServer; }

  void finish(Time horizon) {
    advance_to(horizon);
    for (ServerId s = 0; s < seq_.m(); ++s) {
      if (holds_[static_cast<std::size_t>(s)]) close_copy(s, horizon);
    }
  }

  void violation(const std::string& msg) {
    out_.feasible = false;
    std::ostringstream os;
    os << "t=" << now_ << ": " << msg;
    out_.violations.push_back(os.str());
  }

  double copy_time_integral() const { return integral_; }

 private:
  void close_copy(ServerId s, Time t) {
    out_.schedule.add_cache(s, birth_[static_cast<std::size_t>(s)], t);
    holds_[static_cast<std::size_t>(s)] = false;
    --copies_;
  }

  const RequestSequence& seq_;
  CostModel cm_;
  PolicyRunOptions options_;
  PolicyRunResult& out_;

  std::vector<bool> holds_;
  std::vector<Time> birth_;
  std::size_t copies_ = 0;
  Time now_ = 0.0;
  double integral_ = 0.0;
  ServerId transferred_to_now_ = kNoServer;
  std::priority_queue<Time, std::vector<Time>, std::greater<>> wakes_;
};

}  // namespace

PolicyRunResult run_policy(const RequestSequence& seq, const CostModel& cm,
                           OnlinePolicy& policy,
                           const PolicyRunOptions& options) {
  if (options.transfer_failure_prob > 0.0 &&
      (options.rng == nullptr || options.transfer_failure_prob >= 1.0)) {
    throw std::invalid_argument(
        "run_policy: failure injection needs an Rng and prob < 1");
  }
  if (policy.ran_) {
    throw std::logic_error("run_policy: policy '" + policy.name() +
                           "' already ran; a policy object runs once");
  }
  policy.ran_ = true;
  PolicyRunResult out;
  out.policy_name = policy.name();
  RunnerContext ctx(seq, cm, options, out);

  policy.on_start(ctx);

  for (RequestIndex i = 1; i <= seq.n(); ++i) {
    const Time ti = seq.time(i);
    // Wake-ups strictly before the request fire first (expirations).
    while (ctx.has_pending_wake_before(ti)) {
      const Time tw = ctx.next_wake();
      ctx.pop_wake();
      ctx.advance_to(std::max(tw, ctx.now()));
      policy.on_wake(ctx);
    }

    ctx.advance_to(ti);
    const ServerId s = seq.server(i);
    const bool had_copy = ctx.has_copy(s);
    ctx.clear_transfer_marker();
    policy.on_request(ctx, s, i);
    const bool served = had_copy || ctx.has_copy(s) || ctx.transferred_to_now() == s;
    if (!served) {
      ctx.violation("request r_" + std::to_string(i) + " not served");
    }
    if (had_copy) {
      ++out.hits;
    } else {
      ++out.misses;
    }

    // Wake-ups that landed exactly at the request time run after it.
    while (ctx.has_pending_wake_at_or_before(ctx.now())) {
      ctx.pop_wake();
      policy.on_wake(ctx);
    }
  }

  const Time horizon = seq.time(seq.n());
  // Deliver remaining wake-ups up to the horizon (deletions before t_n
  // still change cost), then truncate.
  while (ctx.has_pending_wake_at_or_before(horizon)) {
    const Time tw = ctx.next_wake();
    ctx.pop_wake();
    ctx.advance_to(std::max(tw, ctx.now()));
    policy.on_wake(ctx);
  }
  ctx.finish(horizon);

  out.schedule.normalize();
  out.total_cost = out.caching_cost + out.transfer_cost;
  out.mean_copies =
      horizon > 0 ? ctx.copy_time_integral() / horizon : static_cast<double>(1);
  return out;
}

}  // namespace mcdc
