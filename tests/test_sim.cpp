// Tests for the discrete-event simulator: the policy runner, the baseline
// policies, and the schedule executor. The central property is
// implementation triangulation: the SC policy driven through the generic
// simulator must reproduce core/online_sc.cpp's costs exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "model/schedule_validator.h"
#include "sim/executor.h"
#include "sim/policies.h"
#include "sim/predictive_policy.h"
#include "sim/policy_runner.h"
#include "util/rng.h"

namespace mcdc {
namespace {

RequestSequence random_sequence(Rng& rng, int m, int n, double rate = 1.0) {
  std::vector<Request> reqs;
  Time t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(rate) + 1e-3;
    reqs.push_back({static_cast<ServerId>(rng.uniform_int(std::uint64_t(m))), t});
  }
  return RequestSequence(m, std::move(reqs));
}

// ---------------- Cross-implementation triangulation ----------------

TEST(PolicyRunner, ScPolicyMatchesCoreImplementation) {
  Rng rng(1234);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    const auto core = run_speculative_caching(seq, cm);
    ScSimPolicy policy(cm, seq.origin());
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible) << sim.violations.front();
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7)
        << "instance " << inst << "\n"
        << seq.to_string() << "\ncore: " << core.schedule.to_string()
        << "\nsim:  " << sim.schedule.to_string();
    EXPECT_EQ(sim.transfers, core.misses);
    EXPECT_EQ(sim.hits, core.hits);
  }
}

TEST(PolicyRunner, ScPolicyMatchesCoreWithEpochs) {
  Rng rng(4321);
  const CostModel cm(1.0, 2.0);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 50, 0.6);
    SpeculativeCachingOptions opt;
    opt.epoch_transfers = 7;
    const auto core = run_speculative_caching(seq, cm, opt);
    ScSimPolicy policy(cm, seq.origin(), 7);
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible) << sim.violations.front();
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7) << seq.to_string();
  }
}

TEST(PolicyRunner, ScPolicyMatchesCoreWithWiderWindow) {
  Rng rng(777);
  const CostModel cm(2.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 3, 30, 2.0);
    SpeculativeCachingOptions opt;
    opt.speculation_factor = 4.0;
    const auto core = run_speculative_caching(seq, cm, opt);
    ScSimPolicy policy(cm, seq.origin(), static_cast<std::size_t>(-1), 4.0);
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible);
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7) << seq.to_string();
  }
}

// ---------------- Baseline policies ----------------

TEST(Policies, AlwaysMigrateCostFormula) {
  const CostModel cm(1.0, 2.0);
  const RequestSequence seq(3, {{1, 1.0}, {1, 2.0}, {2, 3.5}, {0, 4.0}});
  AlwaysMigratePolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  // One copy alive at all times: mu * horizon; 3 server changes.
  EXPECT_NEAR(res.caching_cost, 4.0, 1e-9);
  EXPECT_NEAR(res.transfer_cost, 3 * 2.0, 1e-9);
  EXPECT_EQ(res.max_copies, 2u);  // transient during migration
}

TEST(Policies, StaticHomeCostFormula) {
  const CostModel cm(1.0, 2.0);
  const RequestSequence seq(3, {{1, 1.0}, {0, 2.0}, {2, 3.0}, {1, 4.0}});
  StaticHomePolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.caching_cost, 4.0, 1e-9);   // home copy only
  EXPECT_NEAR(res.transfer_cost, 3 * 2.0, 1e-9);  // 3 off-home requests
}

TEST(Policies, FullReplicationNeverRefetches) {
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(3, {{1, 1.0}, {2, 2.0}, {1, 3.0}, {2, 4.0}, {0, 5.0}});
  FullReplicationPolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.transfers, 2u);  // first touches of s2 and s3 only
  // Copies: s1 lives [0,5], s2 [1,5], s3 [2,5] -> 5 + 4 + 3 = 12.
  EXPECT_NEAR(res.caching_cost, 12.0, 1e-9);
  EXPECT_EQ(res.max_copies, 3u);
}

TEST(Policies, LruKRespectsCapacity) {
  Rng rng(5);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 6, 80);
  LruKPolicy policy(seq.m(), seq.origin(), 2);
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible) << res.violations.front();
  EXPECT_LE(res.max_copies, 3u);  // k plus the in-flight arrival
  EXPECT_EQ(res.policy_name, "lru-2");
}

TEST(Policies, LruOneIsMigration) {
  Rng rng(6);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 4, 60);
  LruKPolicy lru1(seq.m(), seq.origin(), 1);
  AlwaysMigratePolicy mig(seq.origin());
  const auto a = run_policy(seq, cm, lru1);
  const auto b = run_policy(seq, cm, mig);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_NEAR(a.total_cost, b.total_cost, 1e-9);
}

TEST(Policies, RandomizedSkiRentalFeasibleAndBounded) {
  Rng rng(7);
  Rng policy_rng(99);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 50);
    auto policy = ScSimPolicy::ski_rental(cm, seq.origin(), policy_rng);
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
    OfflineDpOptions o;
    o.reconstruct_schedule = false;
    const auto opt = solve_offline(seq, cm, o);
    EXPECT_GE(res.total_cost, opt.optimal_cost - 1e-7);
  }
}

TEST(Policies, AllPoliciesProduceValidSchedules) {
  Rng rng(8);
  Rng prng(17);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 5, 60);
  std::vector<std::unique_ptr<OnlinePolicy>> policies;
  policies.push_back(std::make_unique<ScSimPolicy>(cm, seq.origin()));
  policies.push_back(std::make_unique<ScSimPolicy>(cm, seq.origin(), 10));
  policies.push_back(std::make_unique<AlwaysMigratePolicy>(seq.origin()));
  policies.push_back(std::make_unique<StaticHomePolicy>(seq.origin()));
  policies.push_back(std::make_unique<FullReplicationPolicy>(seq.origin()));
  policies.push_back(std::make_unique<LruKPolicy>(seq.m(), seq.origin(), 3));
  policies.push_back(std::make_unique<ScSimPolicy>(
      ScSimPolicy::ski_rental(cm, seq.origin(), prng)));
  policies.push_back(std::make_unique<ScSimPolicy>(ScSimPolicy::predicted(
      cm, seq.origin(), make_sequence_oracle(seq, 0.0, prng))));
  for (auto& p : policies) {
    const auto res = run_policy(seq, cm, *p);
    ASSERT_TRUE(res.feasible) << p->name() << ": " << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << p->name() << ": " << v.to_string();
    EXPECT_NEAR(res.schedule.cost(cm), res.total_cost, 1e-7) << p->name();
  }
}

TEST(Policies, ScVariantsReproducePinnedResults) {
  // The three SC window rules on one fixed stream, pinned bit for bit
  // (values printed with %.17g, compared with ==). Restructuring the
  // policy may change how a rule is constructed, never what it produces.
  struct Pinned {
    const char* label;
    const char* name;
    Cost total_cost, caching_cost, transfer_cost;
    std::size_t transfers, hits, max_copies;
    double mean_copies;
  };
  Rng rng(2017);
  const CostModel cm(1.0, 2.0);
  const auto seq = random_sequence(rng, 5, 120, 0.8);
  const auto expect_pinned = [&](OnlinePolicy& policy, const Pinned& want) {
    SCOPED_TRACE(want.label);
    const auto got = run_policy(seq, cm, policy);
    ASSERT_TRUE(got.feasible) << got.violations.front();
    EXPECT_EQ(got.policy_name, want.name);
    EXPECT_EQ(got.total_cost, want.total_cost);
    EXPECT_EQ(got.caching_cost, want.caching_cost);
    EXPECT_EQ(got.transfer_cost, want.transfer_cost);
    EXPECT_EQ(got.transfers, want.transfers);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.max_copies, want.max_copies);
    EXPECT_EQ(got.mean_copies, want.mean_copies);
  };

  ScSimPolicy sc(cm, seq.origin());
  expect_pinned(sc, {"factor 1", "sc", 478.01955248804461, 320.01955248804461,
                     158.0, 79, 41, 5, 1.9930646980471278});
  ScSimPolicy sc_epoch(cm, seq.origin(), 7, 0.5);
  expect_pinned(sc_epoch,
                {"factor 0.5, epoch 7", "sc", 406.08652585004575,
                 232.08652585004572, 174.0, 87, 33, 4, 1.4454224998686882});
  ScSimPolicy sc_wide(cm, seq.origin(), static_cast<std::size_t>(-1), 4.0);
  expect_pinned(sc_wide, {"factor 4", "sc", 633.61325234727371,
                          563.61325234727371, 70.0, 35, 85, 5,
                          3.5101532636723625});

  Rng ski_rng_a(11);
  auto ski_a = ScSimPolicy::ski_rental(cm, seq.origin(), ski_rng_a);
  expect_pinned(ski_a, {"ski-rental, seed 11", "rand-ski", 422.76406884933783,
                        256.76406884933783, 166.0, 83, 37, 5, 1.59911292098215});
  Rng ski_rng_b(12);
  auto ski_b = ScSimPolicy::ski_rental(cm, seq.origin(), ski_rng_b);
  expect_pinned(ski_b, {"ski-rental, seed 12", "rand-ski", 418.00923285063283,
                        258.00923285063283, 160.0, 80, 40, 4,
                        1.6068677359456915});

  Rng unused_rng(1);  // a noise-free oracle never draws
  auto perfect = ScSimPolicy::predicted(
      cm, seq.origin(), make_sequence_oracle(seq, 0.0, unused_rng));
  expect_pinned(perfect, {"perfect oracle", "predictive-sc", 320.56405894630859,
                          162.56405894630859, 158.0, 79, 41, 2,
                          1.0124402854080117});
  Rng noise_rng(3);
  auto noisy = ScSimPolicy::predicted(
      cm, seq.origin(), make_sequence_oracle(seq, 0.5, noise_rng));
  expect_pinned(noisy, {"noise 0.5 oracle", "predictive-sc", 311.19066690882164,
                        173.19066690882164, 138.0, 69, 51, 4,
                        1.0786222328090613});
  auto adversarial = ScSimPolicy::predicted(
      cm, seq.origin(), make_adversarial_oracle(seq, cm.speculation_window()));
  expect_pinned(adversarial,
                {"adversarial oracle", "predictive-sc", 534.53617422277273,
                 310.53617422277273, 224.0, 112, 8, 4, 1.9340027242027424});
}

TEST(PolicyRunner, DetectsNonServingPolicy) {
  struct DoNothing final : OnlinePolicy {
    std::string name() const override { return "do-nothing"; }
    void on_request(ReplicaContext&, ServerId, RequestIndex) override {}
  };
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  DoNothing p;
  const auto res = run_policy(seq, cm, p);
  EXPECT_FALSE(res.feasible);
}

TEST(PolicyRunner, DetectsDropOfLastCopy) {
  struct DropAll final : OnlinePolicy {
    std::string name() const override { return "drop-all"; }
    void on_request(ReplicaContext& ctx, ServerId s, RequestIndex) override {
      if (!ctx.has_copy(s)) ctx.transfer(ctx.holders().front(), s);
      for (const ServerId h : ctx.holders()) ctx.drop(h);
    }
  };
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  DropAll p;
  const auto res = run_policy(seq, cm, p);
  EXPECT_FALSE(res.feasible);
}

TEST(PolicyRunner, PolicyObjectRunsOnce) {
  // The stream ends away from the origin, so a reused policy would start
  // its second run from server 2 while the runner puts the copy on 0.
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(3, {{1, 1.0}, {2, 2.5}, {1, 3.0}, {2, 6.0}});
  ScSimPolicy policy(cm, seq.origin());
  const auto first = run_policy(seq, cm, policy);
  ASSERT_TRUE(first.feasible);
  try {
    run_policy(seq, cm, policy);
    ADD_FAILURE() << "a second run of one policy object did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(policy.name()), std::string::npos)
        << e.what();
  }
  ScSimPolicy fresh(cm, seq.origin());
  const auto again = run_policy(seq, cm, fresh);
  EXPECT_TRUE(again.feasible);
  EXPECT_EQ(again.total_cost, first.total_cost);
}

// ---------------- Failure injection ----------------

TEST(FailureInjection, ZeroProbabilityIsIdentity) {
  Rng rng(71);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 4, 40);
  ScSimPolicy a(cm, seq.origin());
  ScSimPolicy b(cm, seq.origin());
  const auto plain = run_policy(seq, cm, a);
  Rng frng(1);
  const auto injected = run_policy(seq, cm, b, {.transfer_failure_prob = 0.0,
                                                .rng = &frng});
  EXPECT_DOUBLE_EQ(plain.total_cost, injected.total_cost);
  EXPECT_EQ(injected.failed_transfer_attempts, 0u);
}

TEST(FailureInjection, RetriesBilledGeometrically) {
  // With failure probability p, expected attempts = 1/(1-p): the mean
  // transfer cost multiplier over many transfers approaches that.
  Rng rng(73);
  Rng frng(99);
  const CostModel cm(1.0, 1.0);
  const double p = 0.4;
  std::size_t transfers = 0, failures = 0;
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 6, 60);
    ScSimPolicy policy(cm, seq.origin());
    const auto res =
        run_policy(seq, cm, policy, {.transfer_failure_prob = p, .rng = &frng});
    ASSERT_TRUE(res.feasible);
    transfers += res.transfers;
    failures += res.failed_transfer_attempts;
    // Cost identity: lambda * (transfers + failed attempts) is the
    // transfer bill.
    EXPECT_NEAR(res.transfer_cost,
                cm.lambda * static_cast<double>(res.transfers +
                                                res.failed_transfer_attempts),
                1e-9);
  }
  const double multiplier =
      static_cast<double>(transfers + failures) / static_cast<double>(transfers);
  EXPECT_NEAR(multiplier, 1.0 / (1.0 - p), 0.12);
}

TEST(FailureInjection, RejectsBadConfig) {
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  ScSimPolicy policy(cm, seq.origin());
  EXPECT_THROW(run_policy(seq, cm, policy, {.transfer_failure_prob = 0.5}),
               std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW(
      run_policy(seq, cm, policy, {.transfer_failure_prob = 1.0, .rng = &rng}),
      std::invalid_argument);
}

// ---------------- Prediction-augmented SC ----------------

TEST(PredictiveSc, PerfectOracleFeasibleAndNoWorseThanSc) {
  Rng rng(55);
  Rng dummy(1);
  const CostModel cm(1.0, 1.0);
  double pred_total = 0.0, sc_total = 0.0;
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 60);
    auto policy = ScSimPolicy::predicted(
        cm, seq.origin(), make_sequence_oracle(seq, 0.0, dummy));
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
    pred_total += res.total_cost;
    sc_total += run_speculative_caching(seq, cm).total_cost;
    const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
    EXPECT_GE(res.total_cost, opt.optimal_cost - 1e-7);
  }
  EXPECT_LT(pred_total, sc_total);  // consistency: predictions help
}

TEST(PredictiveSc, AdversarialOracleStillFeasible) {
  Rng rng(57);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 10; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    auto policy = ScSimPolicy::predicted(
        cm, seq.origin(), make_adversarial_oracle(seq, cm.speculation_window()));
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
  }
}

TEST(PredictiveSc, OracleGapsAreCorrect) {
  const RequestSequence seq(2, {{1, 1.0}, {0, 2.0}, {1, 5.0}});
  Rng dummy(1);
  const auto oracle = make_sequence_oracle(seq, 0.0, dummy);
  EXPECT_NEAR(oracle(1, 0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(oracle(1, 1, 1.0), 4.0, 1e-12);   // next use of s2 after t=1
  EXPECT_NEAR(oracle(0, 0, 0.5), 1.5, 1e-12);
  EXPECT_TRUE(std::isinf(oracle(0, 3, 3.0)));   // no more requests on s1
}

// ---------------- Schedule executor ----------------

TEST(Executor, AgreesWithDeclaredCostOnOptimalSchedules) {
  Rng rng(9);
  const CostModel cm(1.0, 1.5);
  for (int inst = 0; inst < 25; ++inst) {
    const auto seq = random_sequence(rng, 5, 30);
    const auto opt = solve_offline(seq, cm);
    const auto rep = execute_schedule(opt.schedule, seq, cm);
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_NEAR(rep.measured_total_cost, opt.optimal_cost, 1e-7);
    EXPECT_GE(rep.peak_replicas, 1u);
  }
}

TEST(Executor, AgreesWithScCost) {
  Rng rng(10);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    const auto sc = run_speculative_caching(seq, cm);
    const auto rep = execute_schedule(sc.schedule, seq, cm);
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_NEAR(rep.measured_total_cost, sc.total_cost, 1e-7);
  }
}

TEST(Executor, DetectsCoverageHole) {
  const RequestSequence seq(2, {{0, 1.0}, {0, 4.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_cache(0, 3.0, 4.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, DetectsSourcelessTransfer) {
  const RequestSequence seq(3, {{1, 1.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_transfer(2, 1, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, DetectsUnservedRequest) {
  const RequestSequence seq(2, {{1, 1.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, OccupancyStats) {
  const RequestSequence seq(2, {{1, 1.0}, {1, 2.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 2.0);
  s.add_cache(1, 1.0, 2.0);
  s.add_transfer(0, 1, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.peak_replicas, 2u);
  EXPECT_NEAR(rep.mean_replicas, 1.5, 1e-9);
  EXPECT_EQ(rep.requests_served_by_cache + rep.requests_served_by_transfer, 2u);
}

}  // namespace
}  // namespace mcdc
