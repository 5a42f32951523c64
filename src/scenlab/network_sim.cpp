#include "scenlab/network_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/latency_histogram.h"
#include "scenlab/event_queue.h"
#include "util/contracts.h"

namespace mcdc::scenlab {

namespace {

/// One replica slot: the state of (item, server). `gen` invalidates stale
/// expiry events (each refresh schedules a fresh one); `sourcing` counts
/// transfers (active or queued) reading from this copy — a sourcing copy
/// is never dropped, only doomed, and dies at its last completion.
struct CopySlot {
  bool present = false;
  bool doomed = false;
  Time expiry = 0.0;
  Time birth = 0.0;
  /// The transfer-cost edge this copy arrived over (cheapest_in for a
  /// born copy): its speculation window is factor * lam_in / mu_s for the
  /// copy's whole life, refreshed with the current factor. Equals the
  /// global lambda on the homogeneous path.
  double lam_in = 0.0;
  std::uint64_t gen = 0;
  std::uint64_t ordinal = 0;
  std::uint32_t sourcing = 0;
};

struct Transfer {
  int item = -1;
  ServerId src = kNoServer;
  ServerId dst = kNoServer;
  bool started = false;
  /// Requests waiting on this copy: (request index, arrival time).
  std::vector<std::pair<RequestIndex, Time>> waiters;
};

class NetworkSimulator {
 public:
  NetworkSimulator(const ScenarioConfig& cfg, const ServingCostModel& cm,
                   const std::vector<MultiItemRequest>& stream,
                   WindowController* controller)
      : cfg_(cfg),
        cm_(cm.hom()),
        het_hold_(cm.het_ptr()),
        het_(het_hold_.get()),
        stream_(stream),
        controller_(controller) {
    validate();
    const std::size_t slots =
        static_cast<std::size_t>(cfg_.load.num_items) *
        static_cast<std::size_t>(cfg_.load.num_servers);
    copies_.assign(slots, {});
    inflight_.assign(slots, 0);
    pair_mark_.assign(slots, 0);
    copy_count_.assign(static_cast<std::size_t>(cfg_.load.num_items), 0);
    last_req_.assign(static_cast<std::size_t>(cfg_.load.num_items), kNoServer);
    epoch_count_.assign(static_cast<std::size_t>(cfg_.load.num_items), 0);
    free_slots_.assign(static_cast<std::size_t>(cfg_.load.num_servers),
                       cfg_.transfer_slots);
    pending_.resize(static_cast<std::size_t>(cfg_.load.num_servers));
    decision_.factor = cfg_.window;
    decision_.epoch_transfers = static_cast<std::size_t>(cfg_.epoch);
    xfer_time_ = cfg_.item_size / cfg_.bandwidth;
  }

  NetworkRunResult run();

 private:
  std::size_t idx(int item, ServerId s) const {
    return static_cast<std::size_t>(item) *
               static_cast<std::size_t>(cfg_.load.num_servers) +
           static_cast<std::size_t>(s);
  }

  double mu_of(ServerId s) const {
    return het_ == nullptr ? cm_.mu : het_->mu(s);
  }
  double lambda_of(ServerId from, ServerId to) const {
    return het_ == nullptr ? cm_.lambda : het_->lambda(from, to);
  }
  /// The copy's speculation window under the current factor. Homogeneous
  /// lifts evaluate factor * lambda / mu in the same left-to-right order
  /// as the original global window, so they stay bit-identical.
  Time window_of(const CopySlot& c, ServerId s) const {
    return decision_.factor * c.lam_in / mu_of(s);
  }
  /// Link occupancy of a transfer: the base size/bw time scaled by how
  /// far the copy travels relative to the closest pair. Homogeneous:
  /// lambda/min_lambda == 1.0 exactly, so the duration is xfer_time_.
  Time xfer_dur(ServerId src, ServerId dst) const {
    return het_ == nullptr
               ? xfer_time_
               : xfer_time_ * (het_->lambda(src, dst) / het_->min_lambda());
  }

  void validate() const;
  void refresh(int item, ServerId s, Time now);
  void place_copy(int item, ServerId s, Time now, double lam_in);
  void drop_copy(int item, ServerId s, Time now);
  ServerId choose_source(int item, ServerId target) const;
  void start_or_queue(std::size_t tid, Time now);
  void sweep_lapsed(int item, Time now);
  void record_latency(Time latency);

  void handle_request(const Event& e);
  void handle_transfer_complete(const Event& e);
  void handle_expiry(const Event& e);
  void handle_monitor(const Event& e);

  const ScenarioConfig& cfg_;
  const CostModel cm_;  ///< homogeneous scalars (the fast path)
  const std::shared_ptr<const HeterogeneousCostModel> het_hold_;
  const HeterogeneousCostModel* het_;  ///< null = homogeneous
  const std::vector<MultiItemRequest>& stream_;
  WindowController* controller_;

  EventQueue queue_;
  std::vector<CopySlot> copies_;
  std::vector<std::int64_t> inflight_;  ///< (item, dst) -> transfer id + 1
  std::vector<Transfer> transfers_;
  std::vector<int> copy_count_;
  std::vector<std::uint8_t> born_;
  std::vector<ServerId> last_req_;
  std::vector<std::uint32_t> epoch_count_;
  std::vector<int> free_slots_;
  std::vector<std::deque<std::size_t>> pending_;

  WindowDecision decision_;
  WindowIntervalStats tick_;
  std::vector<std::uint64_t> pair_mark_;
  std::uint64_t tick_id_ = 1;

  obs::LatencyHistogram latency_;
  std::uint64_t counter_ = 0;
  Time xfer_time_ = 0.0;
  Time now_ = 0.0;

  NetworkRunResult out_;
};

void NetworkSimulator::validate() const {
  if (!(cfg_.bandwidth > 0.0)) {
    throw std::invalid_argument("NetworkSimulator: bandwidth must be > 0");
  }
  if (!(cfg_.item_size > 0.0)) {
    throw std::invalid_argument("NetworkSimulator: item_size must be > 0");
  }
  if (cfg_.transfer_slots < 1) {
    throw std::invalid_argument(
        "NetworkSimulator: transfer_slots must be >= 1");
  }
  if (!(cfg_.slo >= 0.0)) {
    throw std::invalid_argument("NetworkSimulator: slo must be >= 0");
  }
  if (!(cfg_.window > 0.0)) {
    throw std::invalid_argument("NetworkSimulator: window must be > 0");
  }
  if (controller_ != nullptr && !(cfg_.interval > 0.0)) {
    throw std::invalid_argument(
        "NetworkSimulator: a controller needs interval > 0");
  }
  for (const MultiItemRequest& r : stream_) {
    if (r.item < 0 || r.item >= cfg_.load.num_items || r.server < 0 ||
        r.server >= cfg_.load.num_servers) {
      throw std::invalid_argument(
          "NetworkSimulator: request outside the (items, servers) grid");
    }
  }
}

void NetworkSimulator::refresh(int item, ServerId s, Time now) {
  CopySlot& c = copies_[idx(item, s)];
  c.expiry = now + window_of(c, s);
  ++c.gen;
  c.ordinal = ++counter_;
  c.doomed = false;
  queue_.push({c.expiry, EventKind::kExpiry, 0, item, s,
               static_cast<std::int64_t>(c.gen)});
}

void NetworkSimulator::place_copy(int item, ServerId s, Time now,
                                  double lam_in) {
  CopySlot& c = copies_[idx(item, s)];
  MCDC_ASSERT(!c.present, "duplicate copy at (item %d, server %d)", item,
              static_cast<int>(s));
  c.present = true;
  c.birth = now;
  c.lam_in = lam_in;
  const int n = ++copy_count_[static_cast<std::size_t>(item)];
  if (static_cast<std::size_t>(n) > out_.max_copies) {
    out_.max_copies = static_cast<std::size_t>(n);
  }
  refresh(item, s, now);
}

void NetworkSimulator::drop_copy(int item, ServerId s, Time now) {
  CopySlot& c = copies_[idx(item, s)];
  MCDC_ASSERT(c.present && c.sourcing == 0, "dropping a live source");
  c.present = false;
  c.doomed = false;
  const Time seg = now - c.birth;
  out_.copy_time += seg;
  // Per-segment accrual (not one mu * copy_time multiply at the end) so
  // each server's own mu prices its copy time on the heterogeneous path.
  out_.caching_cost += mu_of(s) * seg;
  const int n = --copy_count_[static_cast<std::size_t>(item)];
  if (n < 1) {
    out_.feasible = false;
    out_.violations.push_back("item " + std::to_string(item) +
                              " left with no copy at t=" +
                              std::to_string(now));
  }
}

ServerId NetworkSimulator::choose_source(int item, ServerId target) const {
  const ServerId last = last_req_[static_cast<std::size_t>(item)];
  if (het_ != nullptr) {
    // Cheapest-lambda holder; ties prefer the last requesting server,
    // then the most-recently-used copy. With an all-equal matrix every
    // holder ties, so this reduces to the homogeneous rule below.
    ServerId best = kNoServer;
    double best_lam = 0.0;
    std::uint64_t best_ord = 0;
    for (ServerId s = 0; s < cfg_.load.num_servers; ++s) {
      const CopySlot& c = copies_[idx(item, s)];
      if (!c.present || s == target) continue;
      const double lam = het_->lambda(s, target);
      bool better;
      if (best == kNoServer || lam < best_lam) {
        better = true;
      } else if (lam > best_lam) {
        better = false;
      } else if (s == last) {
        better = true;
      } else if (best == last) {
        better = false;
      } else {
        better = c.ordinal >= best_ord;
      }
      if (better) {
        best = s;
        best_lam = lam;
        best_ord = c.ordinal;
      }
    }
    return best;
  }
  // Prefer the last requesting server (the SC discipline); fall back to
  // the most-recently-used holder.
  if (last != kNoServer && last != target && copies_[idx(item, last)].present) {
    return last;
  }
  ServerId best = kNoServer;
  std::uint64_t best_ord = 0;
  for (ServerId s = 0; s < cfg_.load.num_servers; ++s) {
    const CopySlot& c = copies_[idx(item, s)];
    if (!c.present || s == target) continue;
    if (best == kNoServer || c.ordinal >= best_ord) {
      best = s;
      best_ord = c.ordinal;
    }
  }
  return best;
}

void NetworkSimulator::start_or_queue(std::size_t tid, Time now) {
  Transfer& t = transfers_[tid];
  ++copies_[idx(t.item, t.src)].sourcing;
  int& free = free_slots_[static_cast<std::size_t>(t.src)];
  if (free > 0) {
    --free;
    t.started = true;
    queue_.push({now + xfer_dur(t.src, t.dst), EventKind::kTransferComplete, 0,
                 t.item, t.dst, static_cast<std::int64_t>(tid)});
  } else {
    pending_[static_cast<std::size_t>(t.src)].push_back(tid);
    ++out_.queued_transfers;
  }
}

void NetworkSimulator::sweep_lapsed(int item, Time now) {
  // The instantaneous policies' drop_due_copies, in network time: drop
  // every lapsed copy in (expiry, ordinal) order, never the last copy and
  // never a copy that transfers still read from.
  while (copy_count_[static_cast<std::size_t>(item)] > 1) {
    ServerId victim = kNoServer;
    for (ServerId s = 0; s < cfg_.load.num_servers; ++s) {
      const CopySlot& c = copies_[idx(item, s)];
      if (!c.present || c.sourcing > 0) continue;
      if (c.expiry > now + kEps) continue;
      if (victim == kNoServer) {
        victim = s;
        continue;
      }
      const CopySlot& v = copies_[idx(item, victim)];
      if (c.expiry < v.expiry - kEps ||
          (almost_equal(c.expiry, v.expiry) && c.ordinal < v.ordinal)) {
        victim = s;
      }
    }
    if (victim == kNoServer) break;
    drop_copy(item, victim, now);
    ++out_.expirations;
    ++tick_.expirations;
  }
}

void NetworkSimulator::record_latency(Time latency) {
  latency_.record(static_cast<std::uint64_t>(
      std::llround(std::max(0.0, latency) * 1e9)));
  if (latency <= cfg_.slo + kEps) {
    ++out_.slo_met;
  } else {
    ++out_.slo_missed;
    ++tick_.slo_missed;
  }
}

void NetworkSimulator::handle_request(const Event& e) {
  const int item = e.item;
  const ServerId s = e.server;
  ++out_.requests;
  ++tick_.requests;
  if (pair_mark_[idx(item, s)] != tick_id_) {
    pair_mark_[idx(item, s)] = tick_id_;
    ++tick_.active_pairs;
  }

  if (born_[static_cast<std::size_t>(item)] == 0) {
    // The item is born where it is first requested (split_by_item's
    // convention): a free local hit, caching starts accruing here. A born
    // copy's window edge is its cheapest inbound lambda (no transfer
    // brought it, matching the SC core's origin-copy convention).
    born_[static_cast<std::size_t>(item)] = 1;
    place_copy(item, s, e.time,
               het_ == nullptr ? cm_.lambda : het_->cheapest_in(s));
    ++out_.hits;
    ++tick_.hits;
    record_latency(0.0);
  } else if (copies_[idx(item, s)].present) {
    ++out_.hits;
    ++tick_.hits;
    refresh(item, s, e.time);
    record_latency(0.0);
  } else if (inflight_[idx(item, s)] != 0) {
    ++out_.misses;
    ++tick_.misses;
    ++out_.joins;
    transfers_[static_cast<std::size_t>(inflight_[idx(item, s)] - 1)]
        .waiters.emplace_back(static_cast<RequestIndex>(e.aux), e.time);
  } else {
    ++out_.misses;
    ++tick_.misses;
    const ServerId src = choose_source(item, s);
    MCDC_ASSERT(src != kNoServer, "no source for item %d", item);
    const std::size_t tid = transfers_.size();
    Transfer t;
    t.item = item;
    t.src = src;
    t.dst = s;
    t.waiters.emplace_back(static_cast<RequestIndex>(e.aux), e.time);
    transfers_.push_back(std::move(t));
    inflight_[idx(item, s)] = static_cast<std::int64_t>(tid) + 1;
    refresh(item, src, e.time);  // the source is serving: fresh window
    start_or_queue(tid, e.time);
  }
  last_req_[static_cast<std::size_t>(item)] = s;
}

void NetworkSimulator::handle_transfer_complete(const Event& e) {
  Transfer& t = transfers_[static_cast<std::size_t>(e.aux)];
  const int item = t.item;

  const double edge = lambda_of(t.src, t.dst);
  out_.transfer_cost += edge;
  ++out_.transfers;
  inflight_[idx(item, t.dst)] = 0;
  place_copy(item, t.dst, e.time, edge);
  for (const auto& [req, arrival] : t.waiters) {
    (void)req;
    record_latency(e.time - arrival);
  }
  t.waiters.clear();

  // Release the source: slot back, maybe start the next queued fetch.
  CopySlot& src = copies_[idx(item, t.src)];
  MCDC_ASSERT(src.sourcing > 0, "completion without a sourcing mark");
  --src.sourcing;
  int& free = free_slots_[static_cast<std::size_t>(t.src)];
  ++free;
  std::deque<std::size_t>& q = pending_[static_cast<std::size_t>(t.src)];
  if (!q.empty()) {
    const std::size_t next = q.front();
    q.pop_front();
    --free;
    transfers_[next].started = true;
    queue_.push({e.time + xfer_dur(transfers_[next].src, transfers_[next].dst),
                 EventKind::kTransferComplete, 0, transfers_[next].item,
                 transfers_[next].dst, static_cast<std::int64_t>(next)});
  }
  if (src.doomed && src.sourcing == 0 &&
      copy_count_[static_cast<std::size_t>(item)] > 1) {
    drop_copy(item, t.src, e.time);
    ++out_.expirations;
    ++tick_.expirations;
  }
  sweep_lapsed(item, e.time);

  // Epoch discipline: after `epoch_transfers` transfers of this item,
  // collapse to the copy that just landed.
  if (decision_.epoch_transfers > 0 &&
      ++epoch_count_[static_cast<std::size_t>(item)] >=
          decision_.epoch_transfers) {
    epoch_count_[static_cast<std::size_t>(item)] = 0;
    for (ServerId s = 0; s < cfg_.load.num_servers; ++s) {
      if (s == t.dst) continue;
      CopySlot& c = copies_[idx(item, s)];
      if (!c.present) continue;
      if (copy_count_[static_cast<std::size_t>(item)] <= 1) break;
      if (c.sourcing > 0) {
        c.doomed = true;
      } else {
        drop_copy(item, s, e.time);
        ++out_.expirations;
        ++tick_.expirations;
      }
    }
  }
}

void NetworkSimulator::handle_expiry(const Event& e) {
  CopySlot& c = copies_[idx(e.item, e.server)];
  if (!c.present || c.gen != static_cast<std::uint64_t>(e.aux)) {
    return;  // superseded by a refresh (or the copy is already gone)
  }
  if (copy_count_[static_cast<std::size_t>(e.item)] <= 1) {
    return;  // the last copy is pinned; it stays (lapsed) until refreshed
  }
  if (c.sourcing > 0) {
    c.doomed = true;  // still feeding transfers; dies at last completion
    return;
  }
  drop_copy(e.item, e.server, e.time);
  ++out_.expirations;
  ++tick_.expirations;
}

void NetworkSimulator::handle_monitor(const Event& e) {
  tick_.interval = cfg_.interval;
  decision_ = controller_->on_interval(tick_, decision_);
  if (!(decision_.factor > 0.0)) decision_.factor = 1.0;
  tick_ = {};
  ++tick_id_;
  ++out_.monitor_intervals;
  const Time next = e.time + cfg_.interval;
  if (next <= cfg_.load.duration + kEps) {
    queue_.push({next, EventKind::kMonitor, 0, -1, kNoServer, 0});
  }
}

NetworkRunResult NetworkSimulator::run() {
  out_.policy_name = controller_ == nullptr ? "net-static" : "net-adaptive";
  born_.assign(static_cast<std::size_t>(cfg_.load.num_items), 0);
  queue_.reserve(stream_.size() + 64);
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    const MultiItemRequest& r = stream_[i];
    queue_.push({r.time, EventKind::kRequest, 0, r.item, r.server,
                 static_cast<std::int64_t>(i)});
  }
  if (controller_ != nullptr) {
    controller_->reset();
    queue_.push({cfg_.interval, EventKind::kMonitor, 0, -1, kNoServer, 0});
  }

  while (!queue_.empty()) {
    const Event e = queue_.pop();
    if (e.kind == EventKind::kExpiry && e.time > cfg_.load.duration + kEps) {
      continue;  // past run end: survivors accrue to the horizon instead
    }
    MCDC_ASSERT(e.time >= now_ - kEps, "time went backwards");
    now_ = std::max(now_, e.time);
    ++out_.events;
    switch (e.kind) {
      case EventKind::kRequest:
        handle_request(e);
        break;
      case EventKind::kTransferComplete:
        handle_transfer_complete(e);
        break;
      case EventKind::kExpiry:
        handle_expiry(e);
        break;
      case EventKind::kMonitor:
        handle_monitor(e);
        break;
    }
  }

  out_.horizon = std::max(cfg_.load.duration, now_);
  for (int item = 0; item < cfg_.load.num_items; ++item) {
    if (born_[static_cast<std::size_t>(item)] == 0) continue;
    if (copy_count_[static_cast<std::size_t>(item)] < 1) {
      out_.feasible = false;
      out_.violations.push_back("item " + std::to_string(item) +
                                " ends with no copy");
    }
    for (ServerId s = 0; s < cfg_.load.num_servers; ++s) {
      const CopySlot& c = copies_[idx(item, s)];
      if (c.present) {
        const Time seg = out_.horizon - c.birth;
        out_.copy_time += seg;
        out_.caching_cost += mu_of(s) * seg;
      }
    }
  }
  out_.total_cost = out_.caching_cost + out_.transfer_cost;
  MCDC_INVARIANT(
      almost_equal(out_.total_cost, out_.caching_cost + out_.transfer_cost),
      "cost reconciliation");
  MCDC_INVARIANT(out_.hits + out_.misses == out_.requests,
                 "hit/miss accounting");

  const obs::LatencyHistogramSnapshot snap = latency_.snapshot();
  out_.latency_p50 = snap.p50_ns() / 1e9;
  out_.latency_p99 = snap.p99_ns() / 1e9;
  out_.latency_mean = snap.mean_ns() / 1e9;
  out_.latency_max = static_cast<double>(snap.max_ns) / 1e9;
  out_.max_queue = queue_.max_size();
  out_.final_factor = decision_.factor;
  out_.final_epoch = decision_.epoch_transfers;
  return out_;
}

}  // namespace

NetworkRunResult run_network_sim(const ScenarioConfig& cfg,
                                 const ServingCostModel& cm,
                                 const std::vector<MultiItemRequest>& stream,
                                 WindowController* controller) {
  const ServingCostModel effective =
      resolve_cost(cfg.cost, cm, cfg.load.num_servers, "run_network_sim");
  NetworkSimulator sim(cfg, effective, stream, controller);
  return sim.run();
}

}  // namespace mcdc::scenlab
