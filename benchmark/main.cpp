// mcdc-bench: one command for serving throughput, open-loop latency, memory,
// set-up time and cost quality on four workloads, layer by layer.
//
//   mcdc_bench                          every workload, seed 1, untraced
//   mcdc_bench --workload=cold_replay --seed=2 --seconds=20
//   mcdc_bench --trace                  traced run: per-layer metrics and
//                                       trace_<workload>.json
//   mcdc_bench --quick                  about a second per workload (ctest)
//
// Each workload prints its metrics by name with their units and the checks
// it ran. With one --workload the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace the per-layer ones. --log=FILE appends that
// object, tagged with workload, seed and host thread count, as one line
// (the input of benchmark/compare.py). The exit code is 0 only when every
// check passed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "phases.h"
#include "util/cli.h"
#include "util/concurrency.h"
#include "util/table.h"
#include "workloads.h"

using namespace mcdc;
using namespace mcdc::bench;

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // the run is already failed
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The result object of the output contract.
std::string result_json(const RunResult& r) {
  std::string s = std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

void print_run(const WorkloadSpec& w, const RunOptions& opt, const RunResult& r) {
  for (const auto* list : {&r.metrics, &r.also}) {
    if (list->empty()) continue;
    Table t({list == &r.metrics ? "metric" : "also measured (per layer)", "value", "unit"});
    for (const Metric& m : *list) t.add_row({m.name, Table::num(m.value, 4), m.unit});
    std::fputs(t.render().c_str(), stdout);
  }
  if (!r.layers.empty()) {
    Table lt({"span", "calls", "records", "wall ms", "self ms"});
    for (const LayerTime& l : r.layers) {
      lt.add_row({l.name, Table::integer(static_cast<long long>(l.calls)),
                  Table::integer(static_cast<long long>(l.records)),
                  Table::num(l.total_ms, 3), Table::num(l.self_ms, 3)});
    }
    std::fputs(lt.render().c_str(), stdout);
    std::printf("wrote %s\n", r.trace_file.c_str());
  }
  for (const std::string& c : r.checks) std::printf("CHECK %s — PASS\n", c.c_str());
  for (const std::string& c : r.failures) std::printf("CHECK %s — FAIL\n", c.c_str());
  for (const std::string& c : r.warnings) std::printf("WARN %s\n", c.c_str());
  std::printf("%s (seed %llu, %s): %s, %llu records checked, %llu failed\n\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "untraced",
              r.correct() ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("workload", "workload name, or all", "all");
  args.add_flag("seed", "input seed (1 for development, 2 held out)", "1");
  args.add_flag("seconds", "measured seconds per workload", "20");
  args.add_bool_flag("trace", "traced run: per-layer metrics and trace files");
  args.add_bool_flag("quick", "smoke mode: small streams, about 1 s per workload");
  args.add_flag("trace-dir", "directory for trace_<workload>.json", ".");
  args.add_flag("log", "append one JSON line per workload run to this file", "");
  std::vector<const WorkloadSpec*> chosen;
  RunOptions opt;
  bool quick = false;
  try {
    args.parse(argc, argv);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    opt.seconds = args.get_double("seconds");
    opt.trace = args.get_bool("trace");
    opt.trace_dir = args.get("trace-dir");
    quick = args.get_bool("quick");
    if (quick) opt.seconds = 1.0;
    if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    const std::string name = args.get("workload");
    if (name == "all") {
      for (const WorkloadSpec& w : workloads()) chosen.push_back(&w);
    } else if (const WorkloadSpec* w = find_workload(name)) {
      chosen.push_back(w);
    } else {
      throw std::invalid_argument("unknown workload: " + name);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage("mcdc_bench").c_str());
    return 2;
  }

  const unsigned nproc = hardware_thread_count();
  bool all_correct = true;
  RunResult last;
  for (const WorkloadSpec* chosen_spec : chosen) {
    const WorkloadSpec w = quick ? quick_version(*chosen_spec) : *chosen_spec;
    std::printf("== %s: %s ==\n", w.name, w.why);
    std::printf(
        "stream %d requests, %d items x %d servers; engine %d shards x %d "
        "producers; open loop %.2f Mreq/s; %.0f s budget; nproc %u\n",
        w.requests, w.items, w.servers, w.shards, w.producers, w.paced_mreq_s,
        opt.seconds, nproc);
    const unsigned threads = static_cast<unsigned>(w.shards + w.producers);
    if (nproc < threads) {
      std::printf("WARN host has %u hardware threads, the workload runs %u\n", nproc,
                  threads);
    }
    std::fflush(stdout);
    RunResult r;
    try {
      r = run_workload(w, opt);
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("run aborted: ") + e.what());
    }
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) r.failures.push_back("metric " + m.name + " is not finite");
    }
    print_run(w, opt, r);
    if (!args.get("log").empty()) {
      std::ofstream log(args.get("log"), std::ios::app);
      log << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
          << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"seconds\": "
          << json_number(opt.seconds) << ", \"nproc\": " << nproc
          << ", \"result\": " << result_json(r) << "}\n";
    }
    all_correct = all_correct && r.correct();
    last = std::move(r);
  }
  if (chosen.size() == 1) std::printf("%s\n", result_json(last).c_str());
  return all_correct ? 0 : 1;
}
