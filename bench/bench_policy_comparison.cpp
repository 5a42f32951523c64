// Experiment POLICY: SC against the online baseline policies, normalized
// by the off-line optimum, across workload families. Regenerates the
// comparison the paper's Table I row "Comp. Online" implies: the
// cost-driven SC policy should dominate capacity-driven and naive
// strategies and sit within its factor-3 envelope of OPT.
#include <cstdio>
#include <functional>
#include <memory>

#include "core/offline_dp.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generators.h"

using namespace mcdc;

namespace {

constexpr int kInstances = 25;

using Gen = std::function<RequestSequence(Rng&)>;

struct PolicyFactory {
  std::string label;
  std::function<std::unique_ptr<OnlinePolicy>(const RequestSequence&,
                                              const CostModel&, Rng&)>
      make;
};

}  // namespace

int main() {
  std::puts("== POLICY: online policies vs off-line OPT (mean cost ratio) ==");
  const CostModel cm(1.0, 1.0);

  const std::vector<std::pair<std::string, Gen>> workloads = {
      {"uniform", [](Rng& rng) { return gen_uniform(rng, 6, 150); }},
      {"zipf(1.0)",
       [](Rng& rng) {
         PoissonZipfConfig cfg;
         cfg.num_servers = 6;
         cfg.num_requests = 150;
         cfg.zipf_alpha = 1.0;
         return gen_poisson_zipf(rng, cfg);
       }},
      {"mobility",
       [](Rng& rng) {
         MobilityConfig cfg;
         cfg.num_servers = 6;
         cfg.num_requests = 150;
         cfg.dwell_rate = 0.15;
         return gen_markov_mobility(rng, cfg);
       }},
      {"commuter",
       [](Rng& rng) {
         CommuterConfig cfg;
         cfg.num_servers = 6;
         cfg.num_requests = 150;
         return gen_commuter(rng, cfg);
       }},
      {"bursty",
       [](Rng& rng) {
         BurstyConfig cfg;
         cfg.num_servers = 6;
         cfg.num_requests = 150;
         return gen_bursty_pareto(rng, cfg);
       }},
  };

  const std::vector<PolicyFactory> policies = {
      {"SC",
       [](const RequestSequence& seq, const CostModel& model, Rng&) {
         return std::make_unique<ScSimPolicy>(model, seq.origin());
       }},
      {"SC epoch=10",
       [](const RequestSequence& seq, const CostModel& model, Rng&) {
         return std::make_unique<ScSimPolicy>(model, seq.origin(), 10);
       }},
      {"rand-ski",
       [](const RequestSequence& seq, const CostModel& model, Rng& rng) {
         return std::make_unique<ScSimPolicy>(
             ScSimPolicy::ski_rental(model, seq.origin(), rng));
       }},
      {"always-migrate",
       [](const RequestSequence& seq, const CostModel&, Rng&) {
         return std::make_unique<AlwaysMigratePolicy>(seq.origin());
       }},
      {"static-home",
       [](const RequestSequence& seq, const CostModel&, Rng&) {
         return std::make_unique<StaticHomePolicy>(seq.origin());
       }},
      {"full-replication",
       [](const RequestSequence& seq, const CostModel&, Rng&) {
         return std::make_unique<FullReplicationPolicy>(seq.origin());
       }},
      {"lru-2",
       [](const RequestSequence& seq, const CostModel&, Rng&) {
         return std::make_unique<LruKPolicy>(seq.m(), seq.origin(), 2);
       }},
      {"lru-4",
       [](const RequestSequence& seq, const CostModel&, Rng&) {
         return std::make_unique<LruKPolicy>(seq.m(), seq.origin(), 4);
       }},
  };

  std::vector<std::string> header{"policy"};
  for (const auto& [wname, gen] : workloads) header.push_back(wname);
  Table t(header);

  // ratio[policy][workload]
  std::vector<std::vector<double>> ratios(policies.size(),
                                          std::vector<double>(workloads.size(), 0.0));
  std::size_t infeasible = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    Rng rng(9000 + w);
    Rng policy_rng(100 + w);
    std::vector<RunningStats> stats(policies.size());
    for (int inst = 0; inst < kInstances; ++inst) {
      const auto seq = workloads[w].second(rng);
      const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
      for (std::size_t p = 0; p < policies.size(); ++p) {
        auto policy = policies[p].make(seq, cm, policy_rng);
        const auto res = run_policy(seq, cm, *policy);
        if (!res.feasible) {
          ++infeasible;
          continue;
        }
        stats[p].add(res.total_cost / opt.optimal_cost);
      }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      ratios[p][w] = stats[p].mean();
    }
  }

  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<std::string> row{policies[p].label};
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      row.push_back(Table::num(ratios[p][w], 3));
    }
    t.add_row(std::move(row));
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\ninfeasible runs: %zu (must be 0)\n", infeasible);

  // Shape checks for EXPERIMENTS.md. SC's guarantee is worst-case: naive
  // policies can win on workloads matching their assumption (static-home
  // when the origin is the hot server, always-migrate under high locality)
  // but blow up off it; the capacity-driven policies (full replication,
  // large LRU-k) pay for replicas the cost model punishes.
  bool sc_within_3 = true, sc_beats_capacity = true;
  double sc_worst = 0.0, home_worst = 0.0, mig_worst = 0.0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    sc_within_3 &= ratios[0][w] <= 3.0 + 1e-6;
    sc_beats_capacity &= ratios[0][w] <= ratios[5][w] + 1e-6;  // full-replication
    sc_beats_capacity &= ratios[0][w] <= ratios[7][w] + 1e-6;  // lru-4
    sc_worst = std::max(sc_worst, ratios[0][w]);
    home_worst = std::max(home_worst, ratios[4][w]);
    mig_worst = std::max(mig_worst, ratios[3][w]);
  }
  std::printf("SC mean ratio <= 3 on every workload:          %s\n",
              sc_within_3 ? "PASS" : "FAIL");
  std::printf("SC dominates capacity-driven policies:         %s\n",
              sc_beats_capacity ? "PASS" : "FAIL");
  std::printf("worst-case across workloads: SC %.3f vs static-home %.3f, "
              "always-migrate %.3f\n",
              sc_worst, home_worst, mig_worst);
  return infeasible == 0 && sc_within_3 ? 0 : 1;
}
