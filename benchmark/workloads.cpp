#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "util/rng.h"
#include "workload/generators.h"

namespace mcdc::bench {

namespace {

/// The simulator keeps a dense item x server grid; this caps its cells.
constexpr std::size_t kSimGridCap = 1u << 20;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"hot_replay",
       "0.5 MB of state that stays in L2 and ~60% local hits: ring transport "
       "and the 2-producer deterministic merge carry the cost",
       400, 16, 1'000'000, 0.9, 0.6, 2000.0,
       /*shards=*/2, /*producers=*/2, /*paced_mreq_s=*/1.0,
       /*plan_requests=*/250'000, /*sim_requests=*/100'000},
      {"cold_replay",
       "50 MB of state over 64 servers, 25x the L2, ~3% hits: index misses and "
       "the SC miss path dominate; one producer bypasses the merge",
       60'000, 64, 1'000'000, 0.6, 0.6, 5.0,
       /*shards=*/3, /*producers=*/1, /*paced_mreq_s=*/0.5,
       /*plan_requests=*/50'000, /*sim_requests=*/100'000},
      {"paced_light",
       "13 MB of state in L3 and an open loop at 0.5 Mreq/s on mostly idle "
       "shards: latency is how fast an idle worker notices work",
       20'000, 16, 1'000'000, 0.9, 0.6, 200.0,
       /*shards=*/2, /*producers=*/1, /*paced_mreq_s=*/0.5,
       /*plan_requests=*/250'000, /*sim_requests=*/100'000},
      {"offline_plan",
       "one item over 64 servers, n = 262144: the O(mn) DP and the per-server "
       "index on one long sequence, all of it on a single shard",
       1, 64, 262'145, 0.0, 0.6, 1.0,
       /*shards=*/1, /*producers=*/1, /*paced_mreq_s=*/1.0,
       /*plan_requests=*/262'145, /*sim_requests=*/100'000},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadSpec quick_version(const WorkloadSpec& w) {
  constexpr int kShrink = 16;
  WorkloadSpec q = w;
  q.items = std::max(1, w.items / kShrink);
  q.requests = w.requests / kShrink;
  q.plan_requests = w.plan_requests / kShrink;
  q.sim_requests = w.sim_requests / kShrink;
  return q;
}

std::vector<MultiItemRequest> make_stream(const WorkloadSpec& w,
                                          std::uint64_t seed) {
  Rng rng(seed);
  MultiItemConfig cfg;
  cfg.num_servers = w.servers;
  cfg.num_items = w.items;
  cfg.num_requests = w.requests;
  cfg.arrival_rate = w.arrival_rate;
  cfg.item_zipf_alpha = w.item_zipf;
  cfg.server_zipf_alpha = w.server_zipf;
  return gen_multi_item(rng, cfg);
}

CycledStream::CycledStream(const std::vector<MultiItemRequest>& base)
    : base_(base), period_(base.back().time + 1.0) {}

void CycledStream::fill(std::uint64_t first, std::uint64_t stride,
                        std::span<MultiItemRequest> out) const {
  const std::uint64_t n = base_.size();
  std::uint64_t i = first;
  for (MultiItemRequest& r : out) {
    r = base_[static_cast<std::size_t>(i % n)];
    r.time += static_cast<double>(i / n) * period_;
    i += stride;
  }
}

std::vector<MultiItemRequest> producer_slice(
    const std::vector<MultiItemRequest>& stream, int p, int producers) {
  std::vector<MultiItemRequest> slice;
  const auto step = static_cast<std::size_t>(producers);
  slice.reserve(stream.size() / step + 1);
  for (std::size_t k = static_cast<std::size_t>(p); k < stream.size();
       k += step) {
    slice.push_back(stream[k]);
  }
  return slice;
}

SimWindow sim_window(const std::vector<MultiItemRequest>& stream,
                     int max_requests, int servers) {
  SimWindow w;
  std::unordered_map<int, int> dense;
  const std::size_t max_items = kSimGridCap / static_cast<std::size_t>(servers);
  for (const MultiItemRequest& r : stream) {
    if (w.requests.size() >= static_cast<std::size_t>(max_requests)) break;
    auto [it, fresh] = dense.try_emplace(r.item, w.items);
    if (fresh) {
      if (static_cast<std::size_t>(w.items) == max_items) break;
      ++w.items;
    }
    w.requests.push_back({it->second, r.server, r.time});
  }
  return w;
}

std::string report_diff(const ServiceReport& want, const ServiceReport& got) {
  char buf[256];
  if (want.total_cost != got.total_cost ||
      want.caching_cost != got.caching_cost ||
      want.transfer_cost != got.transfer_cost || want.items != got.items ||
      want.requests != got.requests ||
      want.per_item.size() != got.per_item.size()) {
    std::snprintf(buf, sizeof(buf),
                  "totals differ: cost %.17g vs %.17g, items %zu vs %zu, "
                  "requests %zu vs %zu",
                  want.total_cost, got.total_cost, want.items, got.items,
                  want.requests, got.requests);
    return buf;
  }
  for (std::size_t i = 0; i < want.per_item.size(); ++i) {
    const ItemOutcome& a = want.per_item[i];
    const ItemOutcome& b = got.per_item[i];
    if (a.item != b.item || a.origin != b.origin || a.birth != b.birth ||
        a.requests != b.requests || a.cost != b.cost ||
        a.caching_cost != b.caching_cost ||
        a.transfer_cost != b.transfer_cost || a.transfers != b.transfers ||
        a.hits != b.hits) {
      std::snprintf(buf, sizeof(buf),
                    "item %d differs: cost %.17g vs %.17g, hits %zu vs %zu",
                    a.item, a.cost, b.cost, a.hits, b.hits);
      return buf;
    }
  }
  return {};
}

}  // namespace mcdc::bench
