// trace_tool: command-line utility around the trace format.
//
//   trace_tool gen   --out=trace.csv [--kind=zipf|mobility|commuter|bursty|multi]
//                    [--servers=4] [--requests=100] [--seed=1] [--items=50]
//   trace_tool solve --in=trace.csv [--mu=1] [--lambda=1] [--dot=graph.dot]
//                    [--algo=dp|quadratic|exact]
//   trace_tool online --in=trace.csv [--mu=1] [--lambda=1] [--epoch=0]
//   trace_tool serve --in=multi.csv [--engine
//                    --engine-config=shards=4,cap=1024,policy=block,...
//                    --producers=4] [--verify]
//                    [--telemetry-out=trace.json --prom-out=metrics.prom]
//   trace_tool scenario [--scenario-config=family=flash,servers=8,...]
//                    [--mu=1] [--lambda=1] [--json-out=report.json]
//                    [--max-rows=0]
//
// `gen` writes a synthetic trace (`--kind=multi` emits a multi-item trace
// for `serve`); `solve` runs the off-line optimum on a single-item trace
// through the mcdc::solve_offline facade (`--algo` picks the backend;
// `--dot` exports the space-time graph with the optimal schedule overlaid
// as Graphviz DOT); `online` replays it through SC; `serve` replays a
// multi-item trace through the streaming data service — by default the
// serial OnlineDataService, with `--engine` through the sharded
// concurrent StreamingEngine (see docs/ENGINE.md). `--producers=N` feeds
// the engine from N concurrent ingestion sessions (round-robin split of
// the trace, barrier-started threads); `--verify` runs the serial service
// too and checks the engine report is bit-identical regardless of N.
// `scenario` generates a synthetic load from a ScenarioConfig string and
// benchmarks the network-time policies (static and adaptive Δt) against
// instantaneous SC and the offline optimum (see docs/SCENLAB.md);
// `--json-out` dumps the full report, `--max-rows` truncates the table.
//
// Observability: `solve`, `online`, and `serve` accept
// `--metrics-out=metrics.json` (registry snapshot) and
// `--trace-out=trace.jsonl` (structured event stream); see
// docs/OBSERVABILITY.md for both schemas. `serve --engine` additionally
// accepts `--telemetry-out=trace.json` (Chrome-trace/Perfetto JSON of the
// pipeline-stage spans, sampler counter tracks, and — unless --trace-out
// claimed the event stream — service events as a model-time instant
// track) and `--prom-out=metrics.prom` (Prometheus text exposition of
// the engine's telemetry registry); either flag forces
// EngineConfig::telemetry on.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cost_breakdown.h"
#include "analysis/diagram.h"
#include "analysis/request_report.h"
#include "analysis/space_time_graph.h"
#include "baselines/solve.h"
#include "engine/ingress.h"
#include "engine/streaming_engine.h"
#include "model/cost_model.h"
#include "model/pricing.h"
#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "model/schedule_validator.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "scenlab/scenario_config.h"
#include "scenlab/scenario_run.h"
#include "service/data_service.h"
#include "util/cli.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

using namespace mcdc;

namespace {

/// Telemetry bundle built from --metrics-out / --trace-out; attached()
/// is false (and the observer unused) when neither flag is present.
struct CliTelemetry {
  explicit CliTelemetry(const ArgParser& args) {
    if (args.has("trace-out")) {
      sink = std::make_unique<obs::JsonlSink>(args.get("trace-out"));
      if (!sink->ok()) {
        throw std::runtime_error("cannot open " + args.get("trace-out"));
      }
      trace_path = args.get("trace-out");
    }
    if (args.has("metrics-out")) metrics_path = args.get("metrics-out");
    observer = obs::Observer(&registry, sink.get());
  }

  bool attached() const { return sink != nullptr || !metrics_path.empty(); }
  obs::Observer* get() { return attached() ? &observer : nullptr; }

  /// Write metrics.json (if requested) and report both outputs.
  void flush() {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) throw std::runtime_error("cannot open " + metrics_path);
      out << registry.to_json() << '\n';
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    }
    if (sink != nullptr) {
      std::printf("%zu events written to %s\n", sink->written(),
                  trace_path.c_str());
    }
  }

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::JsonlSink> sink;
  obs::Observer observer;
  std::string metrics_path;
  std::string trace_path;
};

int cmd_gen(const ArgParser& args) {
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  const int m = static_cast<int>(args.get_int("servers"));
  const int n = static_cast<int>(args.get_int("requests"));
  const std::string kind = args.get("kind");
  RequestSequence seq(1, {});
  if (kind == "zipf") {
    PoissonZipfConfig cfg;
    cfg.num_servers = m;
    cfg.num_requests = n;
    seq = gen_poisson_zipf(rng, cfg);
  } else if (kind == "mobility") {
    MobilityConfig cfg;
    cfg.num_servers = m;
    cfg.num_requests = n;
    seq = gen_markov_mobility(rng, cfg);
  } else if (kind == "commuter") {
    CommuterConfig cfg;
    cfg.num_servers = m;
    cfg.num_requests = n;
    seq = gen_commuter(rng, cfg);
  } else if (kind == "bursty") {
    BurstyConfig cfg;
    cfg.num_servers = m;
    cfg.num_requests = n;
    seq = gen_bursty_pareto(rng, cfg);
  } else if (kind == "multi") {
    MultiItemConfig cfg;
    cfg.num_servers = m;
    cfg.num_requests = n;
    cfg.num_items = static_cast<int>(args.get_int("items"));
    const auto stream = gen_multi_item(rng, cfg);
    std::ofstream out(args.get("out"));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.get("out").c_str());
      return 2;
    }
    write_multi_item_trace(out, stream, m, cfg.num_items);
    std::printf("wrote %s: m=%d items=%d n=%zu\n", args.get("out").c_str(), m,
                cfg.num_items, stream.size());
    return 0;
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  write_trace_file(args.get("out"), seq);
  std::printf("wrote %s: m=%d n=%d horizon=%.3f\n", args.get("out").c_str(),
              seq.m(), seq.n(), seq.horizon());
  return 0;
}

CostModel cost_model_from_args(const ArgParser& args) {
  if (args.has("profile")) {
    const auto cm = calibrate(price_profile(args.get("profile")),
                              args.get_double("size-gb"));
    std::printf("profile %s, %.2f GB item: mu=%.5f $/h, lambda=%.5f $, "
                "break-even window %.2f h\n",
                args.get("profile").c_str(), args.get_double("size-gb"), cm.mu,
                cm.lambda, cm.speculation_window());
    return cm;
  }
  return CostModel(args.get_double("mu"), args.get_double("lambda"));
}

int cmd_solve(const ArgParser& args) {
  const auto seq = read_trace_file(args.get("in"));
  const CostModel cm = cost_model_from_args(args);
  CliTelemetry telemetry(args);
  const auto algo = parse_offline_algorithm(args.get("algo").c_str());
  std::printf("instance: m=%d n=%d horizon=%.3f\n", seq.m(), seq.n(), seq.horizon());

  if (algo != OfflineAlgorithm::kDp && algo != OfflineAlgorithm::kAuto) {
    // Alternate backends through the unified facade: same optimum, but no
    // DP-specific extras (bounds, serve profile, per-request report).
    SolveOptions so;
    so.algorithm = algo;
    so.observer = telemetry.get();
    const auto res = solve_offline(seq, cm, so);
    std::printf("algorithm: %s\n", to_string(res.algorithm));
    std::printf("optimal cost C(n) = %.6f\n", res.optimal_cost);
    if (res.has_schedule) {
      const auto b = breakdown(res.schedule, cm, seq.m());
      std::printf("caching %.3f + transfers %.3f (%zu transfers)\n", b.caching,
                  b.transfer, b.num_transfers);
      const auto v = validate_schedule(res.schedule, seq);
      std::printf("feasible: %s\n", v.ok ? "yes" : v.to_string().c_str());
    }
    telemetry.flush();
    return 0;
  }

  OfflineDpOptions dp_options;
  dp_options.observer = telemetry.get();
  const auto opt = solve_offline(seq, cm, dp_options);
  std::printf("algorithm: dp\n");
  std::printf("optimal cost C(n) = %.6f (lower bound B_n = %.6f)\n",
              opt.optimal_cost, opt.bounds.B.back());
  const auto b = breakdown(opt.schedule, cm, seq.m());
  std::printf("caching %.3f + transfers %.3f (%zu transfers)\n", b.caching,
              b.transfer, b.num_transfers);
  std::printf("serves: %s\n", serve_profile(opt).to_string().c_str());
  const auto v = validate_schedule(opt.schedule, seq);
  std::printf("feasible: %s\n", v.ok ? "yes" : v.to_string().c_str());
  if (seq.n() <= 60 && seq.m() <= 12) {
    std::fputs(render_schedule_diagram(seq, opt.schedule, {.width = 80}).c_str(),
               stdout);
  }
  if (args.get_bool("report")) {
    std::fputs(build_request_report(seq, opt).to_table().c_str(), stdout);
  }
  if (args.has("dot")) {
    const SpaceTimeGraph g(seq, cm);
    std::ofstream out(args.get("dot"));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.get("dot").c_str());
      return 2;
    }
    out << g.to_dot(&opt.schedule);
    std::printf("space-time graph with overlay written to %s\n",
                args.get("dot").c_str());
  }
  telemetry.flush();
  return 0;
}

int cmd_online(const ArgParser& args) {
  const auto seq = read_trace_file(args.get("in"));
  const CostModel cm = cost_model_from_args(args);
  CliTelemetry telemetry(args);
  SpeculativeCachingOptions opt;
  const auto epoch = args.get_int("epoch");
  if (epoch > 0) opt.epoch_transfers = static_cast<std::size_t>(epoch);
  opt.observer = telemetry.get();
  const auto sc = run_speculative_caching(seq, cm, opt);
  const auto best = solve_offline(seq, cm, {.reconstruct_schedule = false});
  std::printf("instance: m=%d n=%d\n", seq.m(), seq.n());
  std::printf("SC: hits=%zu misses=%zu expirations=%zu epochs=%zu\n", sc.hits,
              sc.misses, sc.expirations, sc.epochs_completed);
  std::printf("SC cost %.6f vs OPT %.6f -> ratio %.3f (bound 3)\n", sc.total_cost,
              best.optimal_cost, sc.total_cost / best.optimal_cost);
  telemetry.flush();
  return 0;
}

int cmd_serve(const ArgParser& args) {
  std::ifstream in(args.get("in"));
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.get("in").c_str());
    return 2;
  }
  const auto trace = read_multi_item_trace(in);
  const CostModel cm = cost_model_from_args(args);
  CliTelemetry telemetry(args);
  std::printf("stream: m=%d items=%d n=%zu\n", trace.num_servers,
              trace.num_items, trace.stream.size());

  auto run_serial = [&](const ServingCostModel& serving, obs::Observer* ob) {
    SpeculativeCachingOptions opt;
    opt.observer = ob;
    OnlineDataService service(trace.num_servers, serving, opt);
    for (const auto& r : trace.stream) service.request(r.item, r.server, r.time);
    return service.finish();
  };

  const bool want_pipeline_tele =
      args.has("telemetry-out") || args.has("prom-out");
  if (want_pipeline_tele && !args.get_bool("engine")) {
    throw std::invalid_argument(
        "--telemetry-out/--prom-out require --engine (pipeline telemetry "
        "instruments the streaming engine)");
  }

  ServiceReport rep;
  if (args.get_bool("engine")) {
    EngineConfig cfg = EngineConfig::parse(args.get("engine-config"));
    cfg.service_options.observer = telemetry.get();
    // --telemetry-out/--prom-out force pipeline telemetry on; default the
    // sampler to 5 ms so short replays still land a few counter samples.
    obs::RingBufferSink tele_ring(65536);
    obs::Observer tele_observer(&telemetry.registry, &tele_ring);
    bool ring_attached = false;
    if (want_pipeline_tele) {
      cfg.telemetry = true;
      if (cfg.sample_ms == 0) cfg.sample_ms = 5;
      if (cfg.service_options.observer == nullptr) {
        // No --metrics-out/--trace-out observer: attach one over an
        // in-memory ring so the Chrome trace gets its instant track.
        cfg.service_options.observer = &tele_observer;
        ring_attached = true;
      }
    }
    const int producers = static_cast<int>(args.get_int("producers"));
    if (producers < 1) {
      throw std::invalid_argument("--producers must be >= 1");
    }

    StreamingEngine engine(trace.num_servers, cm, cfg);
    if (producers == 1) {
      IngressSession session = engine.open_producer();
      session.submit_span(std::span<const MultiItemRequest>(trace.stream));
      session.close();
    } else {
      // Round-robin slices keep each producer's times strictly increasing
      // (the trace is globally increasing); a barrier start maximizes
      // cross-producer interleaving so --verify exercises the merge.
      std::vector<IngressSession> sessions;
      sessions.reserve(static_cast<std::size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        sessions.push_back(engine.open_producer());
      }
      std::vector<std::exception_ptr> errors(
          static_cast<std::size_t>(producers));
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          // Gather this producer's strided slice into a contiguous buffer,
          // then submit it in small spans: the batched API needs contiguous
          // records, and the short spans keep producers interleaving at the
          // shards so --verify still exercises the cross-producer merge.
          std::vector<MultiItemRequest> slice;
          slice.reserve(trace.stream.size() /
                            static_cast<std::size_t>(producers) +
                        1);
          for (std::size_t k = static_cast<std::size_t>(p);
               k < trace.stream.size();
               k += static_cast<std::size_t>(producers)) {
            slice.push_back(trace.stream[k]);
          }
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          auto& session = sessions[static_cast<std::size_t>(p)];
          try {
            constexpr std::size_t kSpan = 32;
            for (std::size_t k = 0; k < slice.size(); k += kSpan) {
              session.submit_span(std::span<const MultiItemRequest>(
                  slice.data() + k, std::min(kSpan, slice.size() - k)));
            }
          } catch (...) {
            errors[static_cast<std::size_t>(p)] = std::current_exception();
          }
          session.close();
        });
      }
      go.store(true, std::memory_order_release);
      for (auto& t : threads) t.join();
      for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    rep = engine.finish();
    std::printf("engine: %s (%d shards resolved), %d producer(s)\n",
                cfg.to_string().c_str(), engine.num_shards(), producers);
    std::printf("%s\n", engine.stats().to_string().c_str());
    if (args.has("telemetry-out")) {
      const std::string path = args.get("telemetry-out");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot open " + path);
      std::vector<obs::Event> instants;
      if (ring_attached) instants = tele_ring.events();
      out << engine.chrome_trace_json(ring_attached ? &instants : nullptr)
          << '\n';
      const auto e2e = engine.e2e_snapshot();
      std::printf(
          "chrome trace written to %s (%zu instant events; e2e p50 %llu ns, "
          "p99 %llu ns over %llu requests)\n",
          path.c_str(), instants.size(),
          static_cast<unsigned long long>(e2e.p50_ns()),
          static_cast<unsigned long long>(e2e.p99_ns()),
          static_cast<unsigned long long>(e2e.count));
    }
    if (args.has("prom-out")) {
      const std::string path = args.get("prom-out");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot open " + path);
      out << obs::to_prometheus(engine.telemetry_registry()->snapshot());
      std::printf("prometheus exposition written to %s\n", path.c_str());
    }
    if (args.get_bool("verify")) {
      // The serial reference must serve the same costs the engine resolved
      // from its config (cost=het:<spec> included), or the comparison is
      // het-vs-hom by construction.
      ServingCostModel serving(cm);
      if (cfg.cost.rfind("het:", 0) == 0) {
        serving = ServingCostModel(
            HeterogeneousCostModel::parse(cfg.cost.substr(4)));
      }
      const auto serial = run_serial(serving, nullptr);
      const bool identical = serial.total_cost == rep.total_cost &&
                             serial.caching_cost == rep.caching_cost &&
                             serial.transfer_cost == rep.transfer_cost &&
                             serial.items == rep.items &&
                             serial.requests == rep.requests;
      std::printf("verify vs serial: %s (serial %.9f, engine %.9f)\n",
                  identical ? "bit-identical" : "MISMATCH", serial.total_cost,
                  rep.total_cost);
      if (!identical) return 1;
    }
  } else {
    rep = run_serial(ServingCostModel(cm), telemetry.get());
  }
  std::printf("%s\n", rep.to_string(static_cast<std::size_t>(
                          args.get_int("items-top"))).c_str());
  telemetry.flush();
  return 0;
}

int cmd_scenario(const ArgParser& args) {
  const scenlab::ScenarioConfig cfg =
      scenlab::ScenarioConfig::parse(args.get("scenario-config"));
  const CostModel cm = cost_model_from_args(args);
  const scenlab::ScenarioReport rep = scenlab::run_scenario(cfg, cm);
  std::fputs(
      rep.to_string(static_cast<std::size_t>(args.get_int("max-rows"))).c_str(),
      stdout);
  if (args.has("json-out")) {
    const std::string path = args.get("json-out");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    out << rep.to_json() << '\n';
    std::printf("scenario report written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("out", "output trace path", "trace.csv");
  args.add_flag("in", "input trace path", "trace.csv");
  args.add_flag("kind", "generator: zipf|mobility|commuter|bursty", "zipf");
  args.add_flag("servers", "servers", "4");
  args.add_flag("requests", "requests", "100");
  args.add_flag("seed", "rng seed", "1");
  args.add_flag("mu", "caching cost rate", "1.0");
  args.add_flag("lambda", "transfer cost", "1.0");
  args.add_flag("profile", "price profile (intra-region|cross-continent|edge-cdn); overrides mu/lambda");
  args.add_flag("size-gb", "item size in GB when using --profile", "1.0");
  args.add_flag("epoch", "SC epoch transfers (0 = none)", "0");
  args.add_flag("algo", "solve: offline backend auto|dp|quadratic|exact", "dp");
  args.add_flag("dot", "write DOT of the space-time graph here");
  args.add_bool_flag("report", "print the per-request cost attribution table");
  args.add_flag("metrics-out", "write an obs metrics snapshot (JSON) here");
  args.add_flag("trace-out", "write the obs event stream (JSONL) here");
  args.add_flag("items", "items for --kind=multi", "50");
  args.add_bool_flag("engine", "serve: use the sharded streaming engine");
  args.add_flag("engine-config", "serve --engine: EngineConfig string, e.g. shards=4,cap=1024,policy=block (omitted keys keep their defaults)");
  args.add_flag("producers", "serve --engine: concurrent ingestion sessions", "1");
  args.add_bool_flag("verify", "serve --engine: check bit-identity vs serial");
  args.add_flag("items-top", "serve: items shown in the report table", "10");
  args.add_flag("telemetry-out",
                "serve --engine: write a Chrome-trace JSON of pipeline "
                "telemetry here (forces telemetry on)");
  args.add_flag("prom-out",
                "serve --engine: write a Prometheus text exposition of the "
                "telemetry registry here (forces telemetry on)");
  args.add_flag("scenario-config",
                "scenario: ScenarioConfig string (family=...,servers=...; "
                "see docs/SCENLAB.md)",
                "family=mixed,servers=8,items=64,users=100000,rate=0.0001,"
                "duration=96");
  args.add_flag("json-out", "scenario: write the report JSON here");
  args.add_flag("max-rows", "scenario: rows shown in the table (0 = all)", "0");

  try {
    const auto pos = args.parse(argc, argv);
    if (pos.size() != 1) {
      std::fprintf(stderr,
                   "usage: trace_tool <gen|solve|online|serve|scenario> "
                   "[flags]\n%s",
                   args.usage("trace_tool").c_str());
      return 2;
    }
    if (pos[0] == "gen") return cmd_gen(args);
    if (pos[0] == "solve") return cmd_solve(args);
    if (pos[0] == "online") return cmd_online(args);
    if (pos[0] == "serve") return cmd_serve(args);
    if (pos[0] == "scenario") return cmd_scenario(args);
    std::fprintf(stderr, "unknown command: %s\n", pos[0].c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
