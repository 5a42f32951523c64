#include "sim/executor.h"

#include <algorithm>
#include <sstream>

#include "obs/observer.h"
#include "obs/scoped_timer.h"
#include "util/contracts.h"

namespace mcdc {

namespace {

enum class EventKind : int {
  // Processing order at equal timestamps matters: interval starts open
  // before transfers fire (a transfer may be sourced from an interval
  // opening at the same instant only via its own arrival — disallowed), and
  // requests are checked before intervals close (closed-interval service).
  kCacheStart = 0,
  kTransfer = 1,
  kRequest = 2,
  kCacheEnd = 3,
};

struct Event {
  Time at = 0.0;
  EventKind kind = EventKind::kRequest;
  int payload = 0;  // index into caches/transfers/request index
};

}  // namespace

std::string ExecutionReport::to_string() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAILED") << " caching=" << measured_caching_cost
     << " transfer=" << measured_transfer_cost << " total=" << measured_total_cost
     << " peak_replicas=" << peak_replicas << " mean_replicas=" << mean_replicas;
  for (const auto& e : errors) os << "\n  error: " << e;
  return os.str();
}

ExecutionReport execute_schedule(const Schedule& schedule,
                                 const RequestSequence& seq, const CostModel& cm,
                                 obs::Observer* observer) {
  obs::ScopedTimer replay_timer(observer != nullptr ? observer->executor_replay_ns()
                                                    : nullptr);
  ExecutionReport rep;
  auto fail = [&rep](const std::string& msg) {
    rep.ok = false;
    rep.errors.push_back(msg);
  };

  Schedule s = schedule;
  s.normalize();

  std::vector<Event> events;
  events.reserve(s.caches().size() * 2 + s.transfers().size() + seq.n());
  for (std::size_t i = 0; i < s.caches().size(); ++i) {
    events.push_back({s.caches()[i].start, EventKind::kCacheStart, static_cast<int>(i)});
    events.push_back({s.caches()[i].end, EventKind::kCacheEnd, static_cast<int>(i)});
  }
  for (std::size_t i = 0; i < s.transfers().size(); ++i) {
    events.push_back({s.transfers()[i].at, EventKind::kTransfer, static_cast<int>(i)});
  }
  for (RequestIndex i = 1; i <= seq.n(); ++i) {
    events.push_back({seq.time(i), EventKind::kRequest, i});
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (!almost_equal(a.at, b.at)) return a.at < b.at;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });

  std::vector<int> replicas(static_cast<std::size_t>(seq.m()), 0);
  std::size_t alive = 0;
  Time clock = seq.time(0);
  const Time horizon = seq.time(seq.n());
  double occupancy_integral = 0.0;

  // A transfer's target may be served and discarded instantly (no interval):
  // remember same-instant arrivals for the request check.
  Time arrivals_at = -1.0;
  std::vector<ServerId> arrivals;

  for (const auto& ev : events) {
    // Event time is monotone after the stable sort, so every cost delta
    // booked below (mu * alive * dt and one lambda per transfer) is
    // non-negative — the executor can only add cost, never retract it.
    MCDC_INVARIANT(less_or_equal(clock, ev.at),
                   "event at t=%g precedes the replay clock %g", ev.at, clock);
    if (ev.at > clock) {
      if (alive == 0 && clock < horizon - kEps) {
        std::ostringstream os;
        os << "no replica alive in (" << clock << ", " << std::min(ev.at, horizon)
           << ")";
        fail(os.str());
      }
      const Time upto = std::min(ev.at, horizon);
      if (upto > clock) {
        occupancy_integral += static_cast<double>(alive) * (upto - clock);
        rep.measured_caching_cost += cm.mu * static_cast<double>(alive) * (ev.at - clock);
      } else {
        rep.measured_caching_cost += cm.mu * static_cast<double>(alive) * (ev.at - clock);
      }
      clock = ev.at;
    }
    if (!almost_equal(arrivals_at, clock)) {
      arrivals.clear();
      arrivals_at = clock;
    }

    switch (ev.kind) {
      case EventKind::kCacheStart: {
        const auto& c = s.caches()[static_cast<std::size_t>(ev.payload)];
        ++replicas[static_cast<std::size_t>(c.server)];
        if (replicas[static_cast<std::size_t>(c.server)] > 1) {
          fail("overlapping cache intervals on one server after normalize");
        }
        ++alive;
        rep.peak_replicas = std::max(rep.peak_replicas, alive);
        if (observer != nullptr) observer->copy_born(-1, c.server, ev.at);
        break;
      }
      case EventKind::kCacheEnd: {
        const auto& c = s.caches()[static_cast<std::size_t>(ev.payload)];
        MCDC_ASSERT(replicas[static_cast<std::size_t>(c.server)] > 0 && alive > 0,
                    "interval end on s%d with no open interval", c.server + 1);
        --replicas[static_cast<std::size_t>(c.server)];
        --alive;
        if (observer != nullptr) {
          observer->copy_expired(-1, c.server, ev.at, /*expired=*/false,
                                 cm.mu * (c.end - c.start));
        }
        break;
      }
      case EventKind::kTransfer: {
        const auto& t = s.transfers()[static_cast<std::size_t>(ev.payload)];
        rep.measured_transfer_cost += cm.lambda;
        if (observer != nullptr) {
          observer->transfer_issued(-1, kNoRequest, t.from, t.to, t.at,
                                    cm.lambda);
        }
        if (replicas[static_cast<std::size_t>(t.from)] <= 0) {
          std::ostringstream os;
          os << "transfer at t=" << t.at << " from s" << t.from + 1
             << " which holds no replica";
          fail(os.str());
        }
        arrivals.push_back(t.to);
        break;
      }
      case EventKind::kRequest: {
        const RequestIndex i = ev.payload;
        const ServerId sv = seq.server(i);
        const bool by_cache = replicas[static_cast<std::size_t>(sv)] > 0;
        if (observer != nullptr) {
          observer->request_served(-1, i, sv, ev.at, by_cache,
                                   by_cache ? 0.0 : cm.lambda, alive);
        }
        if (by_cache) {
          ++rep.requests_served_by_cache;
        } else if (std::find(arrivals.begin(), arrivals.end(), sv) !=
                   arrivals.end()) {
          ++rep.requests_served_by_transfer;
        } else {
          std::ostringstream os;
          os << "request r_" << i << " at t=" << seq.time(i) << " on s" << sv + 1
             << " finds no replica and no arriving transfer";
          fail(os.str());
        }
        break;
      }
    }
  }

  rep.measured_total_cost = rep.measured_caching_cost + rep.measured_transfer_cost;
  rep.mean_replicas = horizon > 0 ? occupancy_integral / horizon : 1.0;
  MCDC_INVARIANT(rep.measured_caching_cost >= -kEps &&
                     rep.measured_transfer_cost >= -kEps,
                 "replay booked negative cost (caching=%g, transfer=%g)",
                 rep.measured_caching_cost, rep.measured_transfer_cost);
  MCDC_INVARIANT(alive == 0, "replay left %zu intervals open past the horizon",
                 alive);
  return rep;
}

}  // namespace mcdc
