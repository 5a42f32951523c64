// Experiment OBS: instrumentation overhead on the service hot path.
//
// The obs invariant (see ROADMAP.md): attaching no sink must leave the
// streaming OnlineDataService within 2% of the bare, uninstrumented path.
// Every instrumentation site guards on `options.observer != nullptr`, so
// the bare run pays one predicted branch per site; "hooks" attaches an
// empty Observer (no registry, no sink) to also exercise the inner null
// tests; "metrics" adds the counter/gauge updates and the lock-free
// request-latency histogram; "ring" adds a buffering TraceSink receiving
// the full event stream.
//
// Methodology: each rep replays the same multi-item stream once per
// configuration, back-to-back, and records the per-rep runtime ratio
// against the bare pass of the *same* rep; the reported overhead is the
// median of those paired ratios. Pairing cancels slow drift (thermal,
// frequency, noisy neighbours) and the median rejects preemption spikes —
// a plain min- or mean-of-passes flaps by ±10% in shared containers. The
// 2% line is reported as the headline CHECK; the exit code fails only on
// a changed cost or a best-pass overhead of 15% or more (see below).
//
// A second section applies the same discipline to the streaming engine's
// pipeline telemetry (EngineConfig::telemetry): with telemetry off the
// engine pays one predicted branch per submit and per worker iteration,
// so the engine null path — a hooks-only observer, no registry, no sink,
// telemetry off — must stay within the same 2% of the bare engine;
// "telemetry on" (stamping, four stage histograms, span ring, per-shard
// registry metrics) is reported as INFO — it is an opt-in diagnostic
// mode, not a default.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "engine/ingress.h"
#include "engine/streaming_engine.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "service/data_service.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/generators.h"

using namespace mcdc;

namespace {

double replay_once(const std::vector<MultiItemRequest>& stream, int servers,
                   const CostModel& cm, const SpeculativeCachingOptions& opt,
                   Cost* cost_out) {
  Timer t;
  OnlineDataService service(servers, cm, opt);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto rep = service.finish();
  const double secs = t.seconds();
  *cost_out = rep.total_cost;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_bool_flag("quick", "fewer reps (ctest smoke mode)");
  args.add_flag("requests", "stream length", "200000");
  args.add_flag("items", "distinct items", "200");
  args.add_flag("servers", "servers", "16");
  args.add_flag("reps", "paired passes per configuration", "15");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage("bench_obs_overhead").c_str());
    return 2;
  }
  const bool quick = args.get_bool("quick");
  // Quick mode keeps the full-size stream and trims only reps: the
  // best-pass gates below compare single passes, and passes much shorter
  // than these (~8 ms at 40k requests) measure scheduler noise under a
  // parallel ctest.
  const int requests = quick ? 200000 : static_cast<int>(args.get_int("requests"));
  const int reps = quick ? 11 : static_cast<int>(args.get_int("reps"));

  const CostModel cm(1.0, 1.0);
  Rng rng(4242);
  MultiItemConfig cfg;
  cfg.num_servers = static_cast<int>(args.get_int("servers"));
  cfg.num_items = static_cast<int>(args.get_int("items"));
  cfg.num_requests = requests;
  const auto stream = gen_multi_item(rng, cfg);

  std::puts("== OBS: instrumentation overhead of the online service ==");
  std::printf("stream: %zu requests, %d items, %d servers; %d paired reps\n\n",
              stream.size(), cfg.num_items, cfg.num_servers, reps);

  // Configurations share one stream; observers live for the whole run.
  obs::Observer hooks_only;  // no registry, no sink
  obs::MetricsRegistry metrics_reg;
  obs::Observer with_metrics(&metrics_reg);
  obs::MetricsRegistry ring_reg;
  obs::RingBufferSink ring(1 << 16);
  obs::Observer with_ring(&ring_reg, &ring);

  struct Config {
    const char* name;
    obs::Observer* observer;
    std::vector<double> ratios{};  // per-rep runtime vs same-rep bare pass
    double best = 1e100;
    Cost cost = 0.0;
  };
  std::vector<Config> configs = {
      {"bare (observer = null)", nullptr},
      {"hooks (observer, no sink/registry)", &hooks_only},
      {"metrics (registry, no sink)", &with_metrics},
      {"metrics + ring sink", &with_ring},
  };

  auto timed_pass = [&](Config& c) {
    SpeculativeCachingOptions opt;
    opt.observer = c.observer;
    const double secs = replay_once(stream, cfg.num_servers, cm, opt, &c.cost);
    c.best = std::min(c.best, secs);
    return secs;
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  // Warm-up pass per configuration, then paired timed reps.
  for (auto& c : configs) timed_pass(c);
  for (auto& c : configs) c.best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const double bare_secs = timed_pass(configs[0]);
    configs[0].ratios.push_back(1.0);
    for (std::size_t i = 1; i < configs.size(); ++i) {
      configs[i].ratios.push_back(timed_pass(configs[i]) / bare_secs);
    }
  }

  Table t({"configuration", "best pass (ms)", "Mreq/s", "median overhead"});
  std::vector<double> overhead(configs.size(), 0.0);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    overhead[i] = 100.0 * (median(c.ratios) - 1.0);
    t.add_row({c.name, Table::num(c.best * 1e3, 2),
               Table::num(static_cast<double>(stream.size()) / c.best / 1e6, 2),
               Table::num(overhead[i], 2) + " %"});
  }
  std::fputs(t.render().c_str(), stdout);

  bool ok = true;
  // All configurations must compute the identical result.
  for (const auto& c : configs) {
    if (c.cost != configs[0].cost) {
      std::printf("FAIL: config '%s' changed the service cost (%.9f vs %.9f)\n",
                  c.name, c.cost, configs[0].cost);
      ok = false;
    }
  }

  std::printf("\nCHECK no-sink observer overhead %.2f%% (invariant: < 2%%) — %s\n",
              overhead[1], overhead[1] < 2.0 ? "PASS" : "MARGINAL");
  std::printf("INFO  metrics-registry overhead %.2f%%, ring-sink overhead %.2f%%\n",
              overhead[2], overhead[3]);
  // The hard gate compares best-of-pass times (the median-of-ratios figure
  // above is the honest expectation but is contention-sensitive under a
  // parallel ctest run on few cores). Budget: the serial fast path runs at
  // ~90-140ns/request, so 15% is a few ns of hook cost — a real hot-path
  // regression blows well past it.
  const double hooks_best_over =
      100.0 * (configs[1].best / configs[0].best - 1.0);
  if (hooks_best_over >= 15.0) {
    std::printf("FAIL: no-sink observer best-pass overhead %.2f%% exceeds "
                "15%% — instrumentation regressed the hot path\n",
                hooks_best_over);
    ok = false;
  }

  // ---- engine path: pipeline telemetry off must be free ------------------
  std::puts("\n== OBS: pipeline-telemetry overhead of the streaming engine ==");
  {
    obs::Observer engine_hooks;  // no registry, no sink: the null path
    struct EngineRow {
      const char* name;
      bool observer;
      bool telemetry;
      std::vector<double> ratios{};
      double best = 1e100;
      Cost cost = 0.0;
    };
    std::vector<EngineRow> erows = {
        {"engine bare (no observer, telemetry=off)", false, false},
        {"engine hooks-only observer (telemetry=off)", true, false},
        {"engine telemetry=on (engine-owned registry)", false, true},
    };
    auto engine_pass = [&](EngineRow& row) {
      EngineConfig ec;
      ec.num_shards = 2;
      ec.telemetry = row.telemetry;
      ec.service_options.observer = row.observer ? &engine_hooks : nullptr;
      Timer timer;
      StreamingEngine engine(cfg.num_servers, cm, ec);
      IngressSession session = engine.open_producer();
      session.submit_span(std::span<const MultiItemRequest>(stream));
      session.close();
      const auto rep = engine.finish();
      const double secs = timer.seconds();
      row.best = std::min(row.best, secs);
      row.cost = rep.total_cost;
      return secs;
    };
    for (auto& row : erows) engine_pass(row);  // warm-up
    for (auto& row : erows) row.best = 1e100;
    for (int r = 0; r < reps; ++r) {
      const double bare_secs = engine_pass(erows[0]);
      erows[0].ratios.push_back(1.0);
      for (std::size_t i = 1; i < erows.size(); ++i) {
        erows[i].ratios.push_back(engine_pass(erows[i]) / bare_secs);
      }
    }
    Table et({"configuration", "best pass (ms)", "Mreq/s", "median overhead"});
    std::vector<double> eover(erows.size(), 0.0);
    for (std::size_t i = 0; i < erows.size(); ++i) {
      const EngineRow& row = erows[i];
      eover[i] = 100.0 * (median(row.ratios) - 1.0);
      et.add_row(
          {row.name, Table::num(row.best * 1e3, 2),
           Table::num(static_cast<double>(stream.size()) / row.best / 1e6, 2),
           Table::num(eover[i], 2) + " %"});
      if (row.cost != erows[0].cost) {
        std::printf(
            "FAIL: config '%s' changed the engine cost (%.9f vs %.9f)\n",
            row.name, row.cost, erows[0].cost);
        ok = false;
      }
    }
    std::fputs(et.render().c_str(), stdout);
    std::printf(
        "\nCHECK engine telemetry-off overhead %.2f%% (invariant: < 2%%) — "
        "%s\n",
        eover[1], eover[1] < 2.0 ? "PASS" : "MARGINAL");
    std::printf("INFO  engine telemetry-on overhead %.2f%%\n", eover[2]);
    // Best-of-pass gate for the same contention-robustness reason as the
    // serial hooks gate above.
    const double tele_best_over = 100.0 * (erows[1].best / erows[0].best - 1.0);
    if (tele_best_over >= 15.0) {
      std::printf(
          "FAIL: engine telemetry-off best-pass overhead %.2f%% exceeds 15%% "
          "— the telemetry null path regressed the engine\n",
          tele_best_over);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
