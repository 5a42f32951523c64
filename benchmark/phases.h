// One mcdc-bench run: the pipeline every workload goes through.
//
// A run generates the workload's stream from the seed, serves it once
// serially for the reference report, warms an open-loop engine with one pass
// of the stream, then spends its time budget in rounds. Each round takes one
// sample of:
//
//   setup   the serial service, the engine and its sessions, and the
//           planner's per-item sequences;
//   serial  a pass through OnlineDataService::request_span;
//   engine  a closed-loop pass through StreamingEngine from the workload's
//           producer threads;
//   plan    solve_offline over the plan window;
//   sim     scenlab::run_network_sim over the simulation window;
//   open    half a second of the warm engine fed open-loop at the
//           workload's offered load, each span timed from its scheduled
//           send time to its completion.
//
// The host's speed drifts and stalls for seconds at a time, so interleaving
// gives every median samples from the whole run.
//
// The untraced run reports the end-to-end metrics. The traced run
// (RunOptions::trace) turns engine telemetry on, wraps every call into a
// library layer in a span, adds the per-layer probes (the SC kernel alone,
// the DP without reconstruction, the SPSC ring alone), and reports the
// per-layer metrics. Every engine, service and simulator output is checked;
// a failed check lands in RunResult::failures and counts its records as
// failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace mcdc::bench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time budget, split across phases
  bool trace = false;
  std::string trace_dir = ".";
};

struct RunResult {
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer
  std::vector<Metric> also;     ///< untraced: the per-layer numbers it measured
  std::vector<LayerTime> layers;  ///< traced run: time per span name
  std::uint64_t attempted = 0;  ///< records served across every phase
  std::uint64_t failed = 0;     ///< records whose check failed
  std::vector<std::string> checks;    ///< passed checks, one line each
  std::vector<std::string> failures;  ///< failed checks, one line each
  std::vector<std::string> warnings;  ///< run-validity notes
  std::string trace_file;             ///< written by the traced run

  bool correct() const { return failures.empty(); }
};

RunResult run_workload(const WorkloadSpec& w, const RunOptions& opt);

}  // namespace mcdc::bench
