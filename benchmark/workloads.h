// The five mcdc-bench workloads and the inputs they generate.
//
// Every workload runs the same pipeline of user-visible operations (see
// phases.h) on its own request stream; what differs is the stream's shape
// (working set against the CPU caches, item skew, sequence length), the
// engine's shard and producer counts, and the offered load of the
// open-loop phase. benchmark/README.md records why each one exists.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/request.h"
#include "service/data_service.h"

namespace mcdc::bench {

struct WorkloadSpec {
  const char* name = "";
  const char* why = "";

  // Base stream (workload/generators.h gen_multi_item).
  int items = 0;
  int servers = 0;
  int requests = 0;
  double item_zipf = 0.0;
  double server_zipf = 0.0;
  double arrival_rate = 0.0;

  // Engine shape; shards + producers never exceeds four threads.
  int shards = 1;
  int producers = 1;

  /// Offered load of the open-loop phase across all producers, Mreq/s.
  double paced_mreq_s = 0.0;

  /// Prefix of the base stream the offline planner solves.
  int plan_requests = 0;
  /// Prefix of the base stream the network simulator replays, further cut
  /// where its dense item x server grid would pass 2^20 cells.
  int sim_requests = 0;
};

const std::vector<WorkloadSpec>& workloads();

/// nullptr when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

/// The --quick smoke version: the same shape on a stream a few times
/// smaller, so a whole workload finishes in about a second.
WorkloadSpec quick_version(const WorkloadSpec& w);

/// Generate the workload's base stream from `seed`.
std::vector<MultiItemRequest> make_stream(const WorkloadSpec& w,
                                          std::uint64_t seed);

/// The base stream repeated without end: record i is base[i mod n] moved
/// forward by floor(i / n) periods of (horizon + 1) time units, so times
/// keep strictly increasing and every item keeps its own access pattern.
/// The open-loop phase reads its (unbounded) input from here.
class CycledStream {
 public:
  explicit CycledStream(const std::vector<MultiItemRequest>& base);

  /// out[j] = record first + j * stride.
  void fill(std::uint64_t first, std::uint64_t stride,
            std::span<MultiItemRequest> out) const;

 private:
  const std::vector<MultiItemRequest>& base_;
  Time period_ = 0.0;
};

/// Round-robin slice p of `producers`: the records one producer submits.
std::vector<MultiItemRequest> producer_slice(
    const std::vector<MultiItemRequest>& stream, int p, int producers);

/// The network simulator's input: a prefix of `stream` of at most
/// `max_requests` records whose distinct items times `servers` stays within
/// 2^20 cells, with item ids renumbered densely in order of first use.
struct SimWindow {
  std::vector<MultiItemRequest> requests;
  int items = 0;
};
SimWindow sim_window(const std::vector<MultiItemRequest>& stream,
                     int max_requests, int servers);

/// Empty when the two reports are bit-identical (totals and every
/// per-item outcome); otherwise the first difference found.
std::string report_diff(const ServiceReport& want, const ServiceReport& got);

}  // namespace mcdc::bench
