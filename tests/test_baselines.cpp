// Tests for the extension solvers: the exact window solver (arbitrary
// start state), heterogeneous cost models, the upload-cost extension, and
// the windowed lookahead algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/lookahead.h"
#include "baselines/offline_het_heuristic.h"
#include "baselines/offline_exact.h"
#include "baselines/offline_quadratic.h"
#include "baselines/solve.h"
#include "core/offline_dp.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "core/online_sc.h"
#include "model/schedule_validator.h"
#include "util/rng.h"
#include "util/stats.h"

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

// ---------------- Window solver ----------------

TEST(ExactWindow, MatchesFullSolverFromOrigin) {
  Rng rng(1);
  const CostModel cm(1.0, 1.0);
  const HeterogeneousCostModel hcm(4, cm);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 4, 12);
    std::vector<Request> reqs;
    for (RequestIndex i = 1; i <= seq.n(); ++i) reqs.push_back(seq.request(i));
    const auto win = solve_exact_window(reqs, 0.0, {seq.origin()}, 4, hcm);
    const auto full = solve_offline_exact(seq, cm);
    EXPECT_TRUE(almost_equal(win.optimal_cost, full.optimal_cost, 1e-7));
  }
}

TEST(ExactWindow, InitialHoldersReduceCost) {
  // With copies pre-placed on every server, only inter-request caching of
  // one copy is needed per gap... actually the solver may drop extras
  // immediately, so cost <= the single-origin cost.
  const CostModel cm(1.0, 1.0);
  const HeterogeneousCostModel hcm(3, cm);
  const std::vector<Request> reqs{{1, 1.0}, {2, 2.0}, {0, 3.0}};
  const auto single = solve_exact_window(reqs, 0.0, {0}, 3, hcm);
  const auto all = solve_exact_window(reqs, 0.0, {0, 1, 2}, 3, hcm);
  EXPECT_LE(all.optimal_cost, single.optimal_cost + 1e-9);
  // With all copies in place and requests 1 apart, each request can be a
  // cache hit: cost = caching of the kept copies only.
  EXPECT_LT(all.optimal_cost, 3.0 + 1e-9 + 3.0);  // strictly under 2 transfers' worth
}

TEST(ExactWindow, FinalHoldersAreConsistent) {
  const CostModel cm(1.0, 1.0);
  const HeterogeneousCostModel hcm(3, cm);
  const std::vector<Request> reqs{{1, 1.0}};
  const auto res = solve_exact_window(reqs, 0.0, {0}, 3, hcm);
  ASSERT_FALSE(res.final_holders.empty());
  // The final replica set must contain a copy able to have served r_1:
  // either s2 itself or the transfer source.
  for (const ServerId s : res.final_holders) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 3);
  }
}

TEST(ExactWindow, RejectsBadInput) {
  const CostModel cm(1.0, 1.0);
  const HeterogeneousCostModel hcm(3, cm);
  EXPECT_THROW(solve_exact_window({{1, 1.0}}, 0.0, {}, 3, hcm),
               std::invalid_argument);
  EXPECT_THROW(solve_exact_window({{1, 1.0}}, 2.0, {0}, 3, hcm),
               std::invalid_argument);
  EXPECT_THROW(solve_exact_window({{7, 1.0}}, 0.0, {0}, 3, hcm),
               std::invalid_argument);
  EXPECT_THROW(solve_exact_window({{1, 1.0}}, 0.0, {9}, 3, hcm),
               std::invalid_argument);
}

TEST(ExactWindow, ReconstructionIsFeasibleAndCostsMatch) {
  Rng rng(99);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 5, 14);
    ExactSolverOptions opt;
    opt.reconstruct_schedule = true;
    const auto res = solve_offline_exact(seq, cm, opt);
    ASSERT_TRUE(res.has_schedule);
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string() << "\n" << res.schedule.to_string();
    EXPECT_TRUE(almost_equal(res.schedule.cost(cm), res.optimal_cost, 1e-7))
        << res.schedule.cost(cm) << " vs " << res.optimal_cost;
  }
}

// ---------------- Heterogeneous extension ----------------

TEST(Heterogeneous, CheapServerAttractsCaching) {
  // Server 3 caches for free-ish; the optimum should park the copy there
  // between far-apart requests.
  const HeterogeneousCostModel hcm({1.0, 1.0, 0.01},
                                   {{0.0, 1.0, 1.0},
                                    {1.0, 0.0, 1.0},
                                    {1.0, 1.0, 0.0}});
  // Requests on s3 bracket a long idle span: cheap caching there wins.
  const RequestSequence seq(3, {{2, 1.0}, {0, 2.0}, {2, 30.0}, {1, 31.0}});
  const auto res = solve_offline_exact(seq, hcm, {.reconstruct_schedule = true});
  ASSERT_TRUE(res.has_schedule);
  // The long gap [2, 30] must be covered by s3 (mu = 0.01), not s1/s2.
  bool s3_covers = false;
  for (const auto& c : res.schedule.caches()) {
    if (c.server == 2 && c.start <= 2.0 + 1e-9 && c.end >= 30.0 - 1e-9) {
      s3_covers = true;
    }
  }
  EXPECT_TRUE(s3_covers) << res.schedule.to_string();
}

TEST(Heterogeneous, AsymmetricTransferCostsRespected) {
  // Transfers out of s1 are dear; out of s2 cheap. Serving s3 should
  // source from s2. Deliberately non-metric (50 > 1 + 1), so the
  // constructor's triangle check is opted out.
  const HeterogeneousCostModel hcm({1.0, 1.0, 1.0},
                                   {{0.0, 1.0, 50.0},
                                    {1.0, 0.0, 1.0},
                                    {50.0, 1.0, 0.0}},
                                   {.require_metric = false});
  const RequestSequence seq(3, {{1, 1.0}, {2, 2.0}});
  const auto res = solve_offline_exact(seq, hcm, {.reconstruct_schedule = true});
  ASSERT_TRUE(res.has_schedule);
  for (const auto& t : res.schedule.transfers()) {
    if (t.to == 2) { EXPECT_EQ(t.from, 1); }
  }
  // s1->s2 (1) + s2->s3 (1) + caching ~2 over [0,2]... cost well under 50.
  EXPECT_LT(res.optimal_cost, 10.0);
}

TEST(Heterogeneous, HomogeneousParamsMatchFastDp) {
  Rng rng(3);
  const CostModel cm(1.3, 0.7);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 14);
    const auto fast = solve_offline(seq, cm, {.reconstruct_schedule = false});
    const auto het =
        solve_offline_exact(seq, HeterogeneousCostModel(seq.m(), cm));
    EXPECT_TRUE(almost_equal(fast.optimal_cost, het.optimal_cost, 1e-7));
  }
}

TEST(HetHeuristic, ExactOnHomogeneousParams) {
  Rng rng(71);
  const CostModel cm(1.4, 0.9);
  for (int inst = 0; inst < 25; ++inst) {
    const auto seq = random_sequence(rng, 5, 16);
    const auto heur =
        solve_offline_het_heuristic(seq, HeterogeneousCostModel(seq.m(), cm));
    const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
    EXPECT_TRUE(almost_equal(heur.cost, opt.optimal_cost, 1e-7))
        << heur.cost << " vs " << opt.optimal_cost << "\n" << seq.to_string();
    const auto v = validate_schedule(heur.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
  }
}

TEST(HetHeuristic, UpperBoundsExactAndStaysClose) {
  Rng rng(73);
  RunningStats gap;
  for (int inst = 0; inst < 25; ++inst) {
    const int m = 3 + static_cast<int>(rng.uniform_int(std::uint64_t(3)));
    // Random heterogeneous parameters within a factor ~4 spread.
    std::vector<double> mu(static_cast<std::size_t>(m));
    std::vector<std::vector<double>> lambda(
        static_cast<std::size_t>(m),
        std::vector<double>(static_cast<std::size_t>(m), 0.0));
    for (auto& v : mu) v = rng.uniform(0.5, 2.0);
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < m; ++b) {
        if (a != b) {
          lambda[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
              rng.uniform(0.5, 2.0);
        }
      }
    }
    // Independently drawn entries can violate the triangle inequality;
    // the heuristic bound is being measured, not the metric assumption.
    const HeterogeneousCostModel hcm(mu, lambda, {.require_metric = false});
    const auto seq = random_sequence(rng, m, 12);
    const auto heur = solve_offline_het_heuristic(seq, hcm);
    const auto exact = solve_offline_exact(seq, hcm);
    EXPECT_GE(heur.cost, exact.optimal_cost - 1e-7);
    const auto v = validate_schedule(heur.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
    EXPECT_TRUE(almost_equal(heur.schedule.cost(hcm), heur.cost, 1e-9));
    gap.add(heur.cost / exact.optimal_cost);
  }
  // The heuristic should track the optimum closely on mild heterogeneity
  // (mean within ~15%; individual instances may reach ~1.5x).
  EXPECT_LT(gap.mean(), 1.15);
  EXPECT_LT(gap.max(), 1.75);
}

// ---------------- Upload cost extension (beta) ----------------

TEST(Upload, CheapUploadReplacesTransfers) {
  const CostModel cm(1.0, 10.0);  // transfers dear
  const RequestSequence seq(3, {{1, 1.0}, {2, 2.0}});
  ExactSolverOptions with_upload;
  with_upload.upload_cost = 0.5;  // beta << lambda
  const auto base = solve_offline_exact(seq, cm);
  const auto up = solve_offline_exact(seq, cm, with_upload);
  EXPECT_LT(up.optimal_cost, base.optimal_cost);
  // Every remote request served by upload: ~2 * 0.5 + caching of one copy.
  EXPECT_NEAR(up.optimal_cost, 2.0 + 2 * 0.5, 1e-9);
}

TEST(Upload, ExpensiveUploadIsIgnored) {
  Rng rng(5);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 10; ++inst) {
    const auto seq = random_sequence(rng, 4, 10);
    ExactSolverOptions with_upload;
    with_upload.upload_cost = 100.0;
    const auto base = solve_offline_exact(seq, cm);
    const auto up = solve_offline_exact(seq, cm, with_upload);
    EXPECT_TRUE(almost_equal(base.optimal_cost, up.optimal_cost, 1e-7));
  }
}

// ---------------- Windowed lookahead ----------------

TEST(Lookahead, FullWindowEqualsOptimum) {
  Rng rng(7);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 12);
    LookaheadOptions opt;
    opt.window = seq.n();
    const auto la = solve_lookahead(seq, cm, opt);
    const auto best = solve_offline(seq, cm, {.reconstruct_schedule = false});
    EXPECT_TRUE(almost_equal(la.total_cost, best.optimal_cost, 1e-7))
        << seq.to_string();
    EXPECT_EQ(la.windows, 1u);
  }
}

TEST(Lookahead, MonotoneImprovementOnAverage) {
  // Individual instances can be non-monotone, but the mean cost over many
  // instances should not get worse with a longer window.
  Rng rng(9);
  const CostModel cm(1.0, 1.0);
  double total_w1 = 0.0, total_w4 = 0.0, total_w16 = 0.0, total_opt = 0.0;
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 4, 32);
    total_w1 += solve_lookahead(seq, cm, {.window = 1}).total_cost;
    total_w4 += solve_lookahead(seq, cm, {.window = 4}).total_cost;
    total_w16 += solve_lookahead(seq, cm, {.window = 16}).total_cost;
    total_opt += solve_offline(seq, cm, {.reconstruct_schedule = false}).optimal_cost;
  }
  EXPECT_GE(total_w1, total_w4 - 1e-6);
  EXPECT_GE(total_w4, total_w16 - 1e-6);
  EXPECT_GE(total_w16, total_opt - 1e-6);
}

TEST(Lookahead, NeverBelowOptimum) {
  Rng rng(11);
  const CostModel cm(1.0, 2.0);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 25);
    for (const int w : {1, 3, 7}) {
      const auto la = solve_lookahead(seq, cm, {.window = w});
      const auto best = solve_offline(seq, cm, {.reconstruct_schedule = false});
      EXPECT_GE(la.total_cost, best.optimal_cost - 1e-7);
    }
  }
}

TEST(Lookahead, SchedulesAreFeasible) {
  Rng rng(13);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 20);
    const auto la = solve_lookahead(seq, cm, {.window = 5});
    const auto v = validate_schedule(la.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string() << "\n" << la.schedule.to_string();
    EXPECT_NEAR(la.schedule.cost(cm), la.total_cost, 1e-7);
  }
}

TEST(Lookahead, TypicallyBeatsPureOnline) {
  // With even modest lookahead the planner should usually beat SC (which
  // knows nothing); compare means over instances.
  Rng rng(15);
  const CostModel cm(1.0, 1.0);
  double la_total = 0.0, sc_total = 0.0;
  for (int inst = 0; inst < 25; ++inst) {
    const auto seq = random_sequence(rng, 4, 30);
    la_total += solve_lookahead(seq, cm, {.window = 8}).total_cost;
    sc_total += run_speculative_caching(seq, cm).total_cost;
  }
  EXPECT_LT(la_total, sc_total);
}

TEST(Lookahead, RejectsBadWindow) {
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  EXPECT_THROW(solve_lookahead(seq, cm, {.window = 0}), std::invalid_argument);
}

// ---------------- Unified solve_offline facade ----------------

TEST(SolveFacade, AllBackendsAgreeOnOptimalCost) {
  Rng rng(33);
  const CostModel cm(1.0, 1.2);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 4, 14);
    const auto dp =
        solve_offline(seq, cm, {.algorithm = OfflineAlgorithm::kDp});
    const auto quad =
        solve_offline(seq, cm, {.algorithm = OfflineAlgorithm::kQuadratic});
    const auto exact =
        solve_offline(seq, cm, {.algorithm = OfflineAlgorithm::kExact});
    EXPECT_EQ(dp.algorithm, OfflineAlgorithm::kDp);
    EXPECT_EQ(quad.algorithm, OfflineAlgorithm::kQuadratic);
    EXPECT_EQ(exact.algorithm, OfflineAlgorithm::kExact);
    EXPECT_TRUE(almost_equal(dp.optimal_cost, quad.optimal_cost, 1e-7));
    EXPECT_TRUE(almost_equal(dp.optimal_cost, exact.optimal_cost, 1e-7));
    // DP and the quadratic reference must agree on the whole cost tables.
    ASSERT_EQ(dp.C.size(), quad.C.size());
    for (std::size_t i = 0; i < dp.C.size(); ++i) {
      EXPECT_TRUE(almost_equal(dp.C[i], quad.C[i], 1e-7)) << "C[" << i << "]";
    }
    // Schedules come from the backends that can produce them.
    EXPECT_TRUE(dp.has_schedule);
    EXPECT_TRUE(validate_schedule(dp.schedule, seq).ok);
    EXPECT_FALSE(quad.has_schedule);
    EXPECT_TRUE(exact.has_schedule);
    EXPECT_FALSE(exact.final_holders.empty());
  }
}

TEST(SolveFacade, AutoPicksDpUnlessUploadCostForcesExact) {
  Rng rng(34);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 3, 10);
  const auto plain = solve_offline(seq, cm, {.schedule = false});
  EXPECT_EQ(plain.algorithm, OfflineAlgorithm::kDp);
  const auto uploaded = solve_offline(seq, cm, {.upload_cost = 0.4});
  EXPECT_EQ(uploaded.algorithm, OfflineAlgorithm::kExact);
  EXPECT_LE(uploaded.optimal_cost, plain.optimal_cost + 1e-9);
  // Explicitly asking a backend that cannot model the upload cost is an
  // error, not a silent ignore.
  EXPECT_THROW(solve_offline(seq, cm,
                             {.algorithm = OfflineAlgorithm::kDp,
                              .upload_cost = 0.4}),
               std::invalid_argument);
}

TEST(SolveFacade, LegacyEntryPointsForwardThroughFacade) {
  Rng rng(35);
  const CostModel cm(0.8, 1.5);
  const auto seq = random_sequence(rng, 4, 12);
  const auto facade_quad =
      solve_offline(seq, cm, {.algorithm = OfflineAlgorithm::kQuadratic});
  const auto legacy_quad = solve_offline_quadratic(seq, cm);
  EXPECT_EQ(legacy_quad.optimal_cost, facade_quad.optimal_cost);
  ASSERT_EQ(legacy_quad.C.size(), facade_quad.C.size());
  for (std::size_t i = 0; i < legacy_quad.C.size(); ++i) {
    EXPECT_EQ(legacy_quad.C[i], facade_quad.C[i]);
    EXPECT_EQ(legacy_quad.D[i], facade_quad.D[i]);
  }
  const auto facade_exact =
      solve_offline(seq, cm, {.algorithm = OfflineAlgorithm::kExact});
  const auto legacy_exact =
      solve_offline_exact(seq, cm, {.reconstruct_schedule = true});
  EXPECT_EQ(legacy_exact.optimal_cost, facade_exact.optimal_cost);
  EXPECT_TRUE(legacy_exact.has_schedule);
  EXPECT_EQ(legacy_exact.final_holders, facade_exact.final_holders);
}

TEST(SolveFacade, ObserverPassesThroughToDp) {
  Rng rng(36);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 3, 20);
  obs::MetricsRegistry reg;
  obs::Observer observer(&reg, nullptr);
  const auto res = solve_offline(
      seq, cm, {.algorithm = OfflineAlgorithm::kDp, .observer = &observer});
  EXPECT_GT(res.optimal_cost, 0.0);
  // One dp_stage_ns sample per stage: bounds, forward, reconstruct.
  const auto snap = reg.snapshot();
  const auto stage = std::find_if(
      snap.latency.begin(), snap.latency.end(),
      [](const auto& named) { return named.first == "dp_stage_ns"; });
  ASSERT_NE(stage, snap.latency.end());
  EXPECT_EQ(stage->second.count, 3u);
}

TEST(SolveFacade, HetLiftDispatchesToDpBitIdentical) {
  // kAuto on an exactly-homogeneous matrix must run the very same DP the
  // scalar overload runs: identical backend, bit-identical cost tables.
  Rng rng(37);
  const CostModel cm(0.8, 1.5);
  for (int inst = 0; inst < 10; ++inst) {
    const auto seq = random_sequence(rng, 4, 16);
    const auto hom = solve_offline(seq, cm, {.schedule = false});
    const auto lift = solve_offline(seq, HeterogeneousCostModel(seq.m(), cm),
                                    {.schedule = false});
    EXPECT_EQ(lift.algorithm, OfflineAlgorithm::kDp);
    EXPECT_EQ(lift.optimal_cost, hom.optimal_cost);
    ASSERT_EQ(lift.C.size(), hom.C.size());
    for (std::size_t i = 0; i < hom.C.size(); ++i) {
      EXPECT_EQ(lift.C[i], hom.C[i]) << "C[" << i << "]";
      EXPECT_EQ(lift.D[i], hom.D[i]) << "D[" << i << "]";
    }
  }
  // A truly heterogeneous matrix refuses the homogeneity-only backends
  // with a message naming the requirement.
  const auto seq = random_sequence(rng, 3, 8);
  const HeterogeneousCostModel het({1.0, 2.0, 0.5},
                                   {{0, 1, 2}, {1, 0, 1.5}, {2, 1.5, 0}});
  try {
    solve_offline(seq, het, {.algorithm = OfflineAlgorithm::kDp});
    FAIL() << "kDp accepted a heterogeneous model";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("homogeneous"), std::string::npos)
        << e.what();
  }
}

TEST(SolveFacade, AlgorithmNamesRoundTrip) {
  for (const auto a :
       {OfflineAlgorithm::kAuto, OfflineAlgorithm::kDp,
        OfflineAlgorithm::kQuadratic, OfflineAlgorithm::kExact,
        OfflineAlgorithm::kHetHeuristic}) {
    EXPECT_EQ(parse_offline_algorithm(to_string(a)), a);
  }
  EXPECT_THROW(parse_offline_algorithm("newton"), std::invalid_argument);
}

}  // namespace
}  // namespace mcdc
