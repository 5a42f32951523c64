// Worker-side batch scratch and batch-shape statistics.
//
// Each worker iteration drains every lane it owns in one pass; the records
// that pass retires form one batch. Under heavy ingest a batch grows toward
// the lanes' combined capacity, under light load it degrades to single
// records — a latency/throughput trade the stats make visible.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace mcdc {

/// Structure-of-arrays scratch for the shard's ring drain: hot request
/// fields land in parallel columns so (a) the ring slots retire in one
/// head store — the producer gets its capacity back before the service
/// work even starts — and (b) the apply loop walks three dense arrays
/// instead of striding over 40-byte records. Reserved once to ring
/// capacity; clear() keeps the storage (no steady-state allocation).
struct RequestSoA {
  std::vector<int> items;
  std::vector<ServerId> servers;
  std::vector<Time> times;

  void reserve(std::size_t n) {
    items.reserve(n);
    servers.reserve(n);
    times.reserve(n);
  }
  void clear() {
    items.clear();
    servers.clear();
    times.clear();
  }
  std::size_t size() const { return items.size(); }
  void push(int item, ServerId server, Time time) {
    items.push_back(item);
    servers.push_back(server);
    times.push_back(time);
  }
};

struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::size_t max_batch = 0;
  double mean_batch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(requests) / static_cast<double>(batches);
  }
};

}  // namespace mcdc
