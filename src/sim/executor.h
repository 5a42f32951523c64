// Operational replay of a Schedule against a RequestSequence.
//
// Where model/schedule_validator.h checks feasibility declaratively, this
// executor *runs* the schedule through a discrete event sweep: cache
// interval starts/ends, transfers and requests become timestamped events;
// replica occupancy is tracked instant by instant; costs are metered
// independently of Schedule::cost(). Tests require the two cost paths to
// agree, and benches use the occupancy statistics (peak/mean replicas) the
// declarative view cannot provide.
#pragma once

#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/request.h"
#include "model/schedule.h"

namespace mcdc {

namespace obs {
class Observer;
}  // namespace obs

struct ExecutionReport {
  bool ok = true;
  std::vector<std::string> errors;

  Cost measured_caching_cost = 0.0;
  Cost measured_transfer_cost = 0.0;
  Cost measured_total_cost = 0.0;

  std::size_t requests_served_by_cache = 0;
  std::size_t requests_served_by_transfer = 0;

  std::size_t peak_replicas = 0;
  double mean_replicas = 0.0;  ///< time-averaged over [t_0, t_n]

  std::string to_string() const;
};

/// Replay `schedule` for `seq` under `cm`. The schedule should be
/// normalized (the executor normalizes a copy if needed). When `observer`
/// is set, the sweep emits one event per request/transfer/interval and
/// feeds the `executor_replay_ns` histogram.
ExecutionReport execute_schedule(const Schedule& schedule,
                                 const RequestSequence& seq, const CostModel& cm,
                                 obs::Observer* observer = nullptr);

}  // namespace mcdc
