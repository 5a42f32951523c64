#include "service/data_service.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/offline_dp.h"
#include "obs/observer.h"
#include "obs/scoped_timer.h"
#include "util/annotate.h"
#include "util/contracts.h"
#include "util/table.h"

namespace mcdc {

std::string ItemOutcome::summary() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "item " << item << ": born s" << origin + 1 << "@" << birth << ", "
     << requests << " requests, " << hits << " hits, " << transfers
     << " transfers, cost " << cost << " (caching " << caching_cost
     << " + transfer " << transfer_cost << ")";
  return os.str();
}

std::string ServiceReport::to_string(std::size_t max_items) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << items << " items, " << requests << " requests: total cost "
     << total_cost << " (caching " << caching_cost << " + transfer "
     << transfer_cost << ")";
  if (per_item.empty()) return os.str();

  std::vector<const ItemOutcome*> by_cost;
  by_cost.reserve(per_item.size());
  for (const auto& it : per_item) by_cost.push_back(&it);
  std::sort(by_cost.begin(), by_cost.end(),
            [](const ItemOutcome* a, const ItemOutcome* b) {
              if (a->cost != b->cost) return a->cost > b->cost;
              return a->item < b->item;
            });
  const std::size_t shown =
      max_items == 0 ? by_cost.size() : std::min(max_items, by_cost.size());

  Table t({"item", "origin", "born", "requests", "hits", "transfers",
           "caching", "transfer", "cost"});
  for (std::size_t i = 0; i < shown; ++i) {
    const ItemOutcome& it = *by_cost[i];
    t.add_row({std::to_string(it.item), "s" + std::to_string(it.origin + 1),
               Table::num(it.birth), Table::integer(static_cast<long long>(it.requests)),
               Table::integer(static_cast<long long>(it.hits)),
               Table::integer(static_cast<long long>(it.transfers)),
               Table::num(it.caching_cost), Table::num(it.transfer_cost),
               Table::num(it.cost)});
  }
  os << "\n" << t.render();
  if (shown < by_cost.size()) {
    os << "(+" << by_cost.size() - shown << " more items by cost)\n";
  }
  return os.str();
}

MCDC_DETERMINISTIC
void finalize_report(ServiceReport& rep) {
  rep.total_cost = 0.0;
  rep.caching_cost = 0.0;
  rep.transfer_cost = 0.0;
  rep.requests = 0;
  rep.items = rep.per_item.size();
  for (const auto& it : rep.per_item) {
    MCDC_INVARIANT(almost_equal(it.caching_cost + it.transfer_cost, it.cost),
                   "item %d: caching %.12g + transfer %.12g != cost %.12g",
                   it.item, it.caching_cost, it.transfer_cost, it.cost);
    rep.total_cost += it.cost;
    rep.caching_cost += it.caching_cost;
    rep.transfer_cost += it.transfer_cost;
    rep.requests += it.requests;
  }
  MCDC_INVARIANT(almost_equal(rep.caching_cost + rep.transfer_cost,
                              rep.total_cost),
                 "aggregate reconciliation: caching %.12g + transfer %.12g != "
                 "total %.12g over %zu items",
                 rep.caching_cost, rep.transfer_cost, rep.total_cost,
                 rep.items);
}

std::vector<ItemInstance> service_instances(const std::vector<MultiItemRequest>& stream,
                                            int num_servers) {
  struct Builder {
    ServerId origin = kNoServer;
    Time birth = 0.0;
    std::vector<Request> requests;
  };
  std::map<int, Builder> builders;
  Time prev = -1.0;
  for (const auto& r : stream) {
    if (r.server < 0 || r.server >= num_servers) {
      throw std::invalid_argument("service_instances: server out of range");
    }
    if (!(r.time > prev)) {
      throw std::invalid_argument("service_instances: times must strictly increase");
    }
    prev = r.time;
    auto [it, inserted] = builders.try_emplace(r.item);
    if (inserted) {
      it->second.origin = r.server;
      it->second.birth = r.time;
    } else {
      it->second.requests.push_back({r.server, r.time - it->second.birth});
    }
  }
  std::vector<ItemInstance> out;
  out.reserve(builders.size());
  for (auto& [item, b] : builders) {
    out.push_back(ItemInstance{item, b.origin, b.birth,
                               RequestSequence(num_servers, std::move(b.requests),
                                               b.origin)});
  }
  return out;
}

ServiceReport plan_offline_service(const std::vector<MultiItemRequest>& stream,
                                   int num_servers, const CostModel& cm,
                                   obs::Observer* observer) {
  ServiceReport rep;
  OfflineDpOptions dp_options;
  dp_options.observer = observer;
  for (auto& inst : service_instances(stream, num_servers)) {
    auto res = solve_offline(inst.sequence, cm, dp_options);
    ItemOutcome item;
    item.item = inst.item;
    item.origin = inst.origin;
    item.birth = inst.birth;
    item.requests = static_cast<std::size_t>(inst.sequence.n());
    item.cost = res.optimal_cost;
    item.transfer_cost =
        cm.lambda * static_cast<double>(res.schedule.transfers().size());
    item.caching_cost = item.cost - item.transfer_cost;
    item.transfers = res.schedule.transfers().size();
    item.schedule = std::move(res.schedule);
    rep.per_item.push_back(std::move(item));
  }
  finalize_report(rep);
  return rep;
}

OnlineDataService::OnlineDataService(int num_servers,
                                     const ServingCostModel& cm,
                                     const SpeculativeCachingOptions& options)
    : num_servers_(num_servers), cm_(cm), options_(options) {
  if (num_servers <= 0) {
    throw std::invalid_argument("OnlineDataService: need at least one server");
  }
  if (cm_.het() != nullptr && cm_.het()->m() != num_servers) {
    throw std::invalid_argument(
        "OnlineDataService: heterogeneous model is sized for " +
        std::to_string(cm_.het()->m()) + " servers, service for " +
        std::to_string(num_servers));
  }
}

MCDC_NO_ALLOC MCDC_HOT_PATH
bool OnlineDataService::request(int item, ServerId server, Time time) {
  obs::Observer* ob = options_.observer;
  obs::ScopedTimer latency_timer(ob != nullptr ? ob->request_latency_ns()
                                               : nullptr);
  if (finished_) throw std::logic_error("OnlineDataService: already finished");
  if (server < 0 || server >= num_servers_) {
    throw std::invalid_argument("OnlineDataService: server out of range");
  }
  // Negated so NaN fails too. Nothing below writes service or item state
  // until the request is accepted: a rejected request changes nothing.
  if (!(time >= last_time_)) {
    throw std::invalid_argument("OnlineDataService: times must be non-decreasing");
  }

  const int slot = index_.find(item);
  if (slot < 0) {
    // Birth: the item materializes on the requesting server (client
    // upload); the request is served locally. The per-item cache inherits
    // the service options with its trace context (item id, absolute birth
    // time) filled in, so every item's events land in one coherent stream.
    // The state is constructed in place inside the service-owned slab —
    // no per-item unique_ptr, one chunk allocation per kChunk births.
    SpeculativeCachingOptions per_item = options_;
    per_item.trace_item = item;
    per_item.trace_time_offset = time;
    const std::size_t idx =
        items_.emplace(item, server, time, num_servers_, cm_, per_item);
    index_.insert(item, static_cast<int>(idx));
    last_time_ = time;
    if (ob != nullptr) {
      ob->set_items_live(items_.size());
      ob->request_served(item, 0, server, time, /*hit=*/true, 0.0, 1);
    }
    return true;
  }
  ItemState& state = items_[static_cast<std::size_t>(slot)];
  const bool local = state.cache.observe(server, time - state.birth);
  last_time_ = time;
  state.last_time = time;
  ++state.requests;
  return local;
}

MCDC_NO_ALLOC MCDC_HOT_PATH
std::size_t OnlineDataService::request_span(
    std::span<const MultiItemRequest> batch) {
  // Two-stage software pipeline over the span. Consecutive records almost
  // never share an item, so each request's index bucket and ItemState sit
  // in cold cache lines; the span gives us the lookahead to start those
  // loads early. Stage A touches the index bucket kBucketAhead records
  // out (prefetch only — no dependent load, so it cannot stall); stage B,
  // kStateAhead out, resolves the slot against the now-warm bucket and
  // prefetches the head of the ItemState; stage C runs the request with
  // both lines in flight or resident. The find in stage B is repeated by
  // stage C's request() — that re-probe is a handful of cycles against a
  // warm line, far cheaper than the miss it hides. A stage-B miss (slot
  // -1: the record is a birth) prefetches nothing; request() handles the
  // birth exactly as the unbatched path does.
  constexpr std::size_t kBucketAhead = 12;
  constexpr std::size_t kStateAhead = 4;
  std::size_t local = 0;
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kBucketAhead < n) index_.prefetch(batch[i + kBucketAhead].item);
    if (i + kStateAhead < n) {
      const int slot = index_.find(batch[i + kStateAhead].item);
      if (slot >= 0) {
#if defined(__GNUC__) || defined(__clang__)
        const char* p = reinterpret_cast<const char*>(
            &items_[static_cast<std::size_t>(slot)]);
        __builtin_prefetch(p);
        __builtin_prefetch(p + 64);
#endif
      }
    }
    const MultiItemRequest& r = batch[i];
    if (request(r.item, r.server, r.time)) ++local;
  }
  return local;
}

ServiceReport OnlineDataService::finish() {
  if (finished_) throw std::logic_error("OnlineDataService: already finished");
  finished_ = true;
  obs::Observer* ob = options_.observer;
  if (ob != nullptr) {
    // Peak footprint, sampled before teardown releases the recording
    // vectors into the report.
    ob->set_service_resident_bytes(resident_bytes());
    ob->set_items_live(items_.size());
  }
  ServiceReport rep;
  rep.per_item.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    ItemState& state = items_[i];
    state.cache.finish(state.last_time - state.birth);
    OnlineScResult res = state.cache.take_result();
    ItemOutcome out;
    out.item = state.item;
    out.origin = state.origin;
    out.birth = state.birth;
    out.requests = state.requests;
    out.cost = res.total_cost;
    out.caching_cost = res.caching_cost;
    out.transfer_cost = res.transfer_cost;
    out.transfers = res.misses;
    out.hits = res.hits;
    out.schedule = std::move(res.schedule);
    rep.per_item.push_back(std::move(out));
  }
  // The slab holds items in birth order; restore ascending item id — the
  // summation order the pre-slab std::map produced and the engine merge
  // reproduces for bit-identical totals.
  std::sort(rep.per_item.begin(), rep.per_item.end(),
            [](const ItemOutcome& a, const ItemOutcome& b) {
              return a.item < b.item;
            });
  finalize_report(rep);
  return rep;
}

std::size_t OnlineDataService::resident_bytes() const {
  std::size_t bytes =
      sizeof(*this) + index_.heap_bytes() + items_.heap_bytes();
  for (std::size_t i = 0; i < items_.size(); ++i) {
    bytes += items_[i].cache.heap_bytes();
  }
  return bytes;
}

}  // namespace mcdc
