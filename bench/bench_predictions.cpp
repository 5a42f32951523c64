// Experiment PRED: prediction-augmented SC (extension).
//
// The paper's premise — mobile trajectories are ~93% predictable —
// suggests feeding the online algorithm next-use predictions. This bench
// traces the consistency/robustness curve: mean cost ratio to OPT as the
// prediction noise grows from perfect (0) through garbage to adversarial,
// with plain SC as the prediction-free reference.
#include <cstdio>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"
#include "sim/predictive_policy.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generators.h"

using namespace mcdc;

namespace {
constexpr int kInstances = 30;

RequestSequence draw(Rng& rng) {
  MobilityConfig cfg;
  cfg.num_servers = 6;
  cfg.num_requests = 150;
  cfg.dwell_rate = 0.15;
  return gen_markov_mobility(rng, cfg);
}
}  // namespace

int main() {
  std::puts("== PRED: prediction-augmented SC vs prediction noise ==");
  const CostModel cm(1.0, 1.0);

  Table t({"oracle", "mean ratio to OPT", "max ratio", "mean transfers"});
  bool ok = true;
  double perfect_mean = 0.0, sc_mean = 0.0;

  for (const double noise : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    Rng rng(314);
    Rng noise_rng(2718);
    RunningStats ratio, transfers;
    for (int inst = 0; inst < kInstances; ++inst) {
      const auto seq = draw(rng);
      auto policy = ScSimPolicy::predicted(
          cm, seq.origin(), make_sequence_oracle(seq, noise, noise_rng));
      const auto res = run_policy(seq, cm, policy);
      if (!res.feasible) {
        ok = false;
        continue;
      }
      const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
      ratio.add(res.total_cost / opt.optimal_cost);
      transfers.add(static_cast<double>(res.transfers));
    }
    if (noise == 0.0) perfect_mean = ratio.mean();
    t.add_row({"noise " + Table::num(noise, 2), Table::num(ratio.mean(), 3),
               Table::num(ratio.max(), 3), Table::num(transfers.mean(), 1)});
  }

  // Adversarial oracle: lies exactly across the keep/drop threshold.
  {
    Rng rng(314);
    RunningStats ratio;
    for (int inst = 0; inst < kInstances; ++inst) {
      const auto seq = draw(rng);
      auto policy = ScSimPolicy::predicted(
          cm, seq.origin(),
          make_adversarial_oracle(seq, cm.speculation_window()));
      const auto res = run_policy(seq, cm, policy);
      if (!res.feasible) ok = false;
      const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
      ratio.add(res.total_cost / opt.optimal_cost);
    }
    t.add_row({"adversarial", Table::num(ratio.mean(), 3),
               Table::num(ratio.max(), 3), "-"});
  }

  // Plain SC reference.
  {
    Rng rng(314);
    RunningStats ratio;
    for (int inst = 0; inst < kInstances; ++inst) {
      const auto seq = draw(rng);
      const auto sc = run_speculative_caching(seq, cm);
      const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
      ratio.add(sc.total_cost / opt.optimal_cost);
    }
    sc_mean = ratio.mean();
    t.add_row({"plain SC (no oracle)", Table::num(ratio.mean(), 3),
               Table::num(ratio.max(), 3), "-"});
  }

  std::fputs(t.render().c_str(), stdout);
  std::printf("\nconsistency: perfect predictions beat plain SC: %s (%.3f vs %.3f)\n",
              perfect_mean < sc_mean ? "PASS" : "FAIL", perfect_mean, sc_mean);
  std::printf("all runs feasible: %s\n", ok ? "PASS" : "FAIL");
  return ok && perfect_mean < sc_mean ? 0 : 1;
}
