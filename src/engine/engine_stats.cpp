#include "engine/engine_stats.h"

#include <sstream>

#include "util/table.h"

namespace mcdc {

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << shards.size() << " shards: " << submitted << " submitted";
  if (dropped > 0) os << ", " << dropped << " dropped";
  os << ", " << stalls << " enqueue stalls";

  Table t({"shard", "items", "requests", "max depth", "stalls", "drops",
           "batches", "mean batch", "max batch", "merge peak", "merge stalls",
           "ties", "arena KiB", "cost"});
  for (const auto& s : shards) {
    t.add_row({std::to_string(s.shard),
               Table::integer(static_cast<long long>(s.items)),
               Table::integer(static_cast<long long>(s.requests)),
               Table::integer(static_cast<long long>(s.queue.max_depth)),
               Table::integer(static_cast<long long>(s.queue.stalls)),
               Table::integer(static_cast<long long>(s.queue.dropped)),
               Table::integer(static_cast<long long>(s.batches.batches)),
               Table::num(s.batches.mean_batch(), 2),
               Table::integer(static_cast<long long>(s.batches.max_batch)),
               Table::integer(static_cast<long long>(s.merge_depth_max)),
               Table::integer(static_cast<long long>(s.merge_stalls)),
               Table::integer(static_cast<long long>(s.ties_broken)),
               Table::num(static_cast<double>(s.resident_bytes) / 1024.0, 1),
               Table::num(s.cost)});
  }
  os << "\n" << t.render();
  if (producers.size() > 1) {
    Table p({"producer", "submitted", "dropped", "retired", "max in-flight"});
    for (const auto& pr : producers) {
      p.add_row({std::to_string(pr.producer),
                 Table::integer(static_cast<long long>(pr.submitted)),
                 Table::integer(static_cast<long long>(pr.dropped)),
                 Table::integer(static_cast<long long>(pr.retired)),
                 Table::integer(static_cast<long long>(pr.max_in_flight))});
    }
    os << "\n" << p.render();
  }
  return os.str();
}

}  // namespace mcdc
