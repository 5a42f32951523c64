#include "scenlab/scenario_run.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "baselines/solve.h"
#include "core/online_sc.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/table.h"

#include "scenlab/adaptive.h"

namespace mcdc::scenlab {

namespace {

/// Shortest round-trip decimal form for JSON numbers.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  MCDC_ASSERT(res.ec == std::errc{}, "double to_chars cannot fail here");
  return std::string(buf, res.ptr);
}

ScenarioRow row_from_network(const NetworkRunResult& net) {
  ScenarioRow row;
  row.policy = net.policy_name;
  row.total = net.total_cost;
  row.caching = net.caching_cost;
  row.transfer = net.transfer_cost;
  row.transfers = net.transfers;
  row.hits = net.hits;
  row.misses = net.misses;
  row.slo_attainment =
      net.requests == 0
          ? 1.0
          : static_cast<double>(net.slo_met) / static_cast<double>(net.requests);
  row.latency_p50 = net.latency_p50;
  row.latency_p99 = net.latency_p99;
  row.final_factor = net.final_factor;
  return row;
}

}  // namespace

const ScenarioRow* ScenarioReport::find(const std::string& policy) const {
  for (const ScenarioRow& row : rows) {
    if (row.policy == policy) return &row;
  }
  return nullptr;
}

std::string ScenarioReport::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "scenario " << mcdc::to_string(config.load.shape) << " seed "
     << config.seed << ": " << requests << " requests, " << items_touched
     << " items, " << flashes.size() << " flashes";
  if (rows.empty()) return os.str();

  std::vector<const ScenarioRow*> by_cost;
  by_cost.reserve(rows.size());
  for (const ScenarioRow& row : rows) by_cost.push_back(&row);
  std::sort(by_cost.begin(), by_cost.end(),
            [](const ScenarioRow* a, const ScenarioRow* b) {
              if (a->total != b->total) return a->total < b->total;
              return a->policy < b->policy;
            });
  const std::size_t shown =
      max_rows == 0 ? by_cost.size() : std::min(max_rows, by_cost.size());

  Table t({"policy", "total", "caching", "transfer", "transfers", "hits",
           "misses", "slo", "p99", "ratio"});
  for (std::size_t i = 0; i < shown; ++i) {
    const ScenarioRow& row = *by_cost[i];
    t.add_row({row.policy, Table::num(row.total), Table::num(row.caching),
               Table::num(row.transfer),
               Table::integer(static_cast<long long>(row.transfers)),
               Table::integer(static_cast<long long>(row.hits)),
               Table::integer(static_cast<long long>(row.misses)),
               Table::num(row.slo_attainment), Table::num(row.latency_p99),
               Table::num(row.ratio)});
  }
  os << "\n" << t.render();
  if (shown < by_cost.size()) {
    os << "(+" << by_cost.size() - shown << " more rows by cost)\n";
  }
  return os.str();
}

std::string ScenarioReport::to_json() const {
  std::ostringstream os;
  os << "{\"config\":\"" << config.to_string() << "\",";
  os << "\"requests\":" << requests << ",";
  os << "\"items_touched\":" << items_touched << ",";
  os << "\"flashes\":[";
  for (std::size_t i = 0; i < flashes.size(); ++i) {
    const FlashWindow& f = flashes[i];
    if (i > 0) os << ",";
    os << "{\"start\":" << json_num(f.start) << ",\"end\":" << json_num(f.end)
       << ",\"hot_item\":" << f.hot_item
       << ",\"hot_server\":" << f.hot_server << "}";
  }
  os << "],\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioRow& row = rows[i];
    if (i > 0) os << ",";
    os << "{\"policy\":\"" << row.policy << "\","
       << "\"total\":" << json_num(row.total) << ","
       << "\"caching\":" << json_num(row.caching) << ","
       << "\"transfer\":" << json_num(row.transfer) << ","
       << "\"transfers\":" << row.transfers << ","
       << "\"hits\":" << row.hits << ","
       << "\"misses\":" << row.misses << ","
       << "\"slo_attainment\":" << json_num(row.slo_attainment) << ","
       << "\"latency_p50\":" << json_num(row.latency_p50) << ","
       << "\"latency_p99\":" << json_num(row.latency_p99) << ","
       << "\"ratio\":" << json_num(row.ratio) << ","
       << "\"final_factor\":" << json_num(row.final_factor) << "}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// The homogeneous four-row run, kept verbatim: exactly-homogeneous het
/// configs are dispatched here (their scalar projection reproduces every
/// row bit-for-bit).
ScenarioReport run_scenario_hom(const ScenarioConfig& cfg, const CostModel& cm,
                                ScenarioReport rep,
                                const std::vector<MultiItemRequest>& stream) {
  // Network-time rows.
  rep.rows.push_back(row_from_network(run_network_sim(cfg, cm, stream)));
  {
    AdaptiveOptions opts;
    opts.delta_base = cm.lambda / cm.mu;
    opts.base_epoch = static_cast<std::size_t>(cfg.epoch);
    AdaptiveController controller(opts);
    rep.rows.push_back(
        row_from_network(run_network_sim(cfg, cm, stream, &controller)));
  }

  // Instantaneous world: per-item SC and the offline optimum.
  const std::vector<RequestSequence> per_item = split_by_item(
      stream, cfg.load.num_servers, cfg.load.num_items);
  ScenarioRow sc;
  sc.policy = "sc-instant";
  sc.latency_p50 = 0.0;
  sc.latency_p99 = 0.0;
  sc.slo_attainment = 1.0;
  sc.final_factor = cfg.window;
  ScenarioRow opt;
  opt.policy = "opt";
  opt.slo_attainment = 1.0;
  opt.final_factor = 0.0;
  for (const RequestSequence& seq : per_item) {
    if (seq.n() == 0) continue;
    ScSimPolicy policy(cm, seq.origin(),
                       cfg.epoch == 0 ? static_cast<std::size_t>(-1)
                                      : static_cast<std::size_t>(cfg.epoch),
                       cfg.window);
    const PolicyRunResult res = run_policy(seq, cm, policy);
    sc.total += res.total_cost;
    sc.caching += res.caching_cost;
    sc.transfer += res.transfer_cost;
    sc.transfers += res.transfers;
    sc.hits += res.hits;
    sc.misses += res.misses;

    SolveOptions solve_opts;
    solve_opts.algorithm = OfflineAlgorithm::kDp;
    solve_opts.schedule = false;
    opt.total += solve_offline(seq, cm, solve_opts).optimal_cost;
  }

  const double opt_total = opt.total;
  for (ScenarioRow& row : rep.rows) {
    row.ratio = opt_total > 0.0 ? row.total / opt_total : 1.0;
  }
  sc.ratio = opt_total > 0.0 ? sc.total / opt_total : 1.0;
  opt.ratio = 1.0;
  rep.rows.push_back(sc);
  rep.rows.push_back(opt);
  return rep;
}

/// The heterogeneous four-row run: per-link network rows, core SC-het for
/// sc-instant, and the het solve_offline facade for opt.
ScenarioReport run_scenario_het(const ScenarioConfig& cfg,
                                const ServingCostModel& scm,
                                ScenarioReport rep,
                                const std::vector<MultiItemRequest>& stream) {
  const HeterogeneousCostModel& het = *scm.het();

  rep.rows.push_back(row_from_network(run_network_sim(cfg, scm, stream)));
  {
    AdaptiveOptions opts;
    // The controller's base window: the worst speculation window any edge
    // can induce (max over u != v of lambda(u,v)/mu(v)).
    double base = 0.0;
    for (ServerId u = 0; u < het.m(); ++u) {
      for (ServerId v = 0; v < het.m(); ++v) {
        if (u == v) continue;
        base = std::max(base, het.speculation_window(u, v));
      }
    }
    opts.delta_base = base;
    opts.base_epoch = static_cast<std::size_t>(cfg.epoch);
    AdaptiveController controller(opts);
    rep.rows.push_back(
        row_from_network(run_network_sim(cfg, scm, stream, &controller)));
  }

  const std::vector<RequestSequence> per_item = split_by_item(
      stream, cfg.load.num_servers, cfg.load.num_items);
  ScenarioRow sc;
  sc.policy = "sc-instant";
  sc.slo_attainment = 1.0;
  sc.final_factor = cfg.window;
  ScenarioRow opt;
  opt.policy = "opt";
  opt.slo_attainment = 1.0;
  opt.final_factor = 0.0;
  SpeculativeCachingOptions sc_opts;
  sc_opts.speculation_factor = cfg.window;
  if (cfg.epoch > 0) {
    sc_opts.epoch_transfers = static_cast<std::size_t>(cfg.epoch);
  }
  sc_opts.recording = RecordingMode::kCostsOnly;
  for (const RequestSequence& seq : per_item) {
    if (seq.n() == 0) continue;
    const OnlineScResult res = run_speculative_caching(seq, scm, sc_opts);
    sc.total += res.total_cost;
    sc.caching += res.caching_cost;
    sc.transfer += res.transfer_cost;
    sc.transfers += res.misses;
    sc.hits += res.hits;
    sc.misses += res.misses;

    SolveOptions solve_opts;
    solve_opts.schedule = false;
    opt.total += solve_offline(seq, het, solve_opts).optimal_cost;
  }

  const double opt_total = opt.total;
  for (ScenarioRow& row : rep.rows) {
    row.ratio = opt_total > 0.0 ? row.total / opt_total : 1.0;
  }
  sc.ratio = opt_total > 0.0 ? sc.total / opt_total : 1.0;
  opt.ratio = 1.0;
  rep.rows.push_back(sc);
  rep.rows.push_back(opt);
  return rep;
}

}  // namespace

ScenarioReport run_scenario(const ScenarioConfig& cfg,
                            const ServingCostModel& cm) {
  const ServingCostModel effective =
      resolve_cost(cfg.cost, cm, cfg.load.num_servers, "run_scenario");

  ScenarioReport rep;
  rep.config = cfg;

  Rng rng(cfg.seed);
  const std::vector<MultiItemRequest> stream =
      gen_scenario_stream(rng, cfg.load, &rep.flashes);
  rep.requests = stream.size();

  std::vector<std::uint8_t> touched(
      static_cast<std::size_t>(cfg.load.num_items), 0);
  for (const MultiItemRequest& r : stream) {
    touched[static_cast<std::size_t>(r.item)] = 1;
  }
  for (const std::uint8_t t : touched) rep.items_touched += t;

  // The row runners receive the resolved model explicitly, so neutralize
  // the string selector (run_network_sim would otherwise see two
  // heterogeneous sources and flag the conflict).
  ScenarioConfig run_cfg = cfg;
  run_cfg.cost = "hom";

  if (effective.het() == nullptr) {
    return run_scenario_hom(run_cfg, effective.hom(), std::move(rep), stream);
  }
  if (effective.het()->is_exactly_homogeneous()) {
    // Scalar projection: every row implementation reproduces its
    // homogeneous output bit-for-bit on this matrix.
    return run_scenario_hom(run_cfg, effective.het()->as_homogeneous(),
                            std::move(rep), stream);
  }
  return run_scenario_het(run_cfg, effective, std::move(rep), stream);
}

}  // namespace mcdc::scenlab
