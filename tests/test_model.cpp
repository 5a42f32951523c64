// Unit tests for the model substrate: sequences, cost models, schedules,
// and the feasibility validator.
#include <gtest/gtest.h>

#include <cmath>

#include "model/cost_model.h"
#include "model/pricing.h"
#include "model/request.h"
#include "model/schedule.h"
#include "model/schedule_validator.h"

namespace mcdc {
namespace {

RequestSequence fig6_sequence() {
  // The worked example of paper Figs. 5-6 (reverse engineered, see
  // DESIGN.md): m = 4, lambda = mu = 1.
  return RequestSequence(4, {{1, 0.5},
                             {2, 0.8},
                             {3, 1.1},
                             {0, 1.4},
                             {1, 2.6},
                             {1, 3.2},
                             {2, 4.0}});
}

TEST(RequestSequence, BasicAccessors) {
  const auto seq = fig6_sequence();
  EXPECT_EQ(seq.n(), 7);
  EXPECT_EQ(seq.m(), 4);
  EXPECT_EQ(seq.origin(), 0);
  EXPECT_EQ(seq.server(0), 0);
  EXPECT_DOUBLE_EQ(seq.time(0), 0.0);
  EXPECT_EQ(seq.server(4), 0);
  EXPECT_DOUBLE_EQ(seq.time(7), 4.0);
  EXPECT_DOUBLE_EQ(seq.horizon(), 4.0);
  EXPECT_EQ(seq.active_servers(), 4);
}

TEST(RequestSequence, PrevNextSameServer) {
  const auto seq = fig6_sequence();
  EXPECT_EQ(seq.prev_same_server(4), 0);   // r4 on s1, after r0
  EXPECT_EQ(seq.prev_same_server(5), 1);   // r5 on s2, after r1
  EXPECT_EQ(seq.prev_same_server(6), 5);   // r6 on s2, after r5
  EXPECT_EQ(seq.prev_same_server(7), 2);   // r7 on s3, after r2
  EXPECT_EQ(seq.prev_same_server(1), kNoRequest);
  EXPECT_EQ(seq.prev_same_server(3), kNoRequest);
  EXPECT_EQ(seq.next_same_server(0), 4);
  EXPECT_EQ(seq.next_same_server(1), 5);
  EXPECT_EQ(seq.next_same_server(7), kNoRequest);
  EXPECT_THROW(seq.prev_same_server(0), std::out_of_range);
}

TEST(RequestSequence, Sigma) {
  const auto seq = fig6_sequence();
  EXPECT_DOUBLE_EQ(seq.sigma(4), 1.4);
  EXPECT_DOUBLE_EQ(seq.sigma(5), 2.1);
  EXPECT_DOUBLE_EQ(seq.sigma(6), 0.6);
  EXPECT_DOUBLE_EQ(seq.sigma(7), 3.2);
  EXPECT_TRUE(std::isinf(seq.sigma(1)));
}

TEST(RequestSequence, OnServerAndSearch) {
  const auto seq = fig6_sequence();
  const auto& s2 = seq.on_server(1);
  ASSERT_EQ(s2.size(), 3u);
  EXPECT_EQ(s2[0], 1);
  EXPECT_EQ(s2[1], 5);
  EXPECT_EQ(s2[2], 6);
  EXPECT_EQ(seq.last_on_server_before(1, 6), 5);
  EXPECT_EQ(seq.last_on_server_before(1, 1), kNoRequest);
  EXPECT_EQ(seq.last_on_server_before(0, 3), 0);
}

TEST(RequestSequence, ValidationErrors) {
  EXPECT_THROW(RequestSequence(0, {}), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {}, 5), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {{0, 1.0}, {1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {{0, 2.0}, {1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {{7, 1.0}}), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {{0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(RequestSequence(2, {{0, -1.0}}), std::invalid_argument);
}

TEST(RequestSequence, EmptySequenceIsLegal) {
  const RequestSequence seq(3, {});
  EXPECT_EQ(seq.n(), 0);
  EXPECT_DOUBLE_EQ(seq.horizon(), 0.0);
}

TEST(CostModel, Basics) {
  const CostModel cm(2.0, 3.0);
  EXPECT_DOUBLE_EQ(cm.speculation_window(), 1.5);
  EXPECT_DOUBLE_EQ(cm.caching(2.0), 4.0);
  EXPECT_DOUBLE_EQ(cm.transfer(), 3.0);
  EXPECT_THROW(CostModel(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(CostModel(1.0, -1.0), std::invalid_argument);
}

TEST(HeterogeneousCostModel, FromHomogeneous) {
  const HeterogeneousCostModel h(3, CostModel(2.0, 5.0));
  EXPECT_EQ(h.m(), 3);
  EXPECT_DOUBLE_EQ(h.mu(1), 2.0);
  EXPECT_DOUBLE_EQ(h.lambda(0, 2), 5.0);
  EXPECT_TRUE(h.is_homogeneous());
  EXPECT_THROW(h.lambda(1, 1), std::invalid_argument);
}

TEST(HeterogeneousCostModel, General) {
  const HeterogeneousCostModel h({1.0, 2.0},
                                 {{0.0, 3.0}, {4.0, 0.0}});
  EXPECT_FALSE(h.is_homogeneous());
  EXPECT_DOUBLE_EQ(h.lambda(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(h.lambda(1, 0), 4.0);
  EXPECT_THROW(HeterogeneousCostModel({1.0}, {{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(HeterogeneousCostModel({1.0, -1.0}, {{0.0, 1.0}, {1.0, 0.0}}),
               std::invalid_argument);
}

TEST(HeterogeneousCostModel, ConstructionValidation) {
  // Homogeneous lift: m must be >= 1.
  EXPECT_THROW(HeterogeneousCostModel(0, CostModel(1.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(HeterogeneousCostModel(-3, CostModel(1.0, 1.0)),
               std::invalid_argument);
  // General form: empty mu.
  EXPECT_THROW(HeterogeneousCostModel(std::vector<double>{},
                                      std::vector<std::vector<double>>{}),
               std::invalid_argument);
  // lambda must be square and match mu's size: wrong row count, ragged row.
  EXPECT_THROW(HeterogeneousCostModel({1.0, 1.0}, {{0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(HeterogeneousCostModel({1.0, 1.0}, {{0.0, 1.0}, {1.0}}),
               std::invalid_argument);
  // mu strictly positive (zero is as invalid as negative).
  EXPECT_THROW(HeterogeneousCostModel({1.0, 0.0}, {{0.0, 1.0}, {1.0, 0.0}}),
               std::invalid_argument);
  // Off-diagonal lambda strictly positive; zero and negative both rejected.
  EXPECT_THROW(HeterogeneousCostModel({1.0, 1.0}, {{0.0, 0.0}, {1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(HeterogeneousCostModel({1.0, 1.0}, {{0.0, -2.0}, {1.0, 0.0}}),
               std::invalid_argument);
  // A valid model still rejects self-transfer queries.
  const HeterogeneousCostModel ok({1.0, 1.0}, {{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_THROW(ok.lambda(0, 0), std::invalid_argument);
}

TEST(HeterogeneousCostModel, ValidationNamesOffendingEntry) {
  try {
    HeterogeneousCostModel({1.0, -2.0}, {{0.0, 1.0}, {1.0, 0.0}});
    FAIL() << "no exception for negative mu";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mu[1]"), std::string::npos)
        << e.what();
  }
  try {
    HeterogeneousCostModel({1.0, 1.0}, {{0.0, 1.0}, {-3.0, 0.0}});
    FAIL() << "no exception for negative lambda";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lambda(1,0)"), std::string::npos)
        << e.what();
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    HeterogeneousCostModel({1.0, 1.0}, {{0.0, nan}, {1.0, 0.0}});
    FAIL() << "no exception for NaN lambda";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lambda(0,1)"), std::string::npos)
        << e.what();
  }
}

TEST(HeterogeneousCostModel, TriangleCheckNamesPairAndOptsOut) {
  // lambda(0,1) = 9 > lambda(0,2) + lambda(2,1) = 2: non-metric.
  const std::vector<double> mu{1.0, 1.0, 1.0};
  const std::vector<std::vector<double>> lam{
      {0.0, 9.0, 1.0}, {9.0, 0.0, 1.0}, {1.0, 1.0, 0.0}};
  try {
    HeterogeneousCostModel m(mu, lam);
    FAIL() << "no exception for a triangle violation";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("triangle"), std::string::npos) << what;
    EXPECT_NE(what.find("lambda(0,1)"), std::string::npos) << what;
    EXPECT_NE(what.find("require_metric"), std::string::npos) << what;
  }
  const HeterogeneousCostModel ok(mu, lam, {.require_metric = false});
  EXPECT_FALSE(ok.metric_checked());
  EXPECT_DOUBLE_EQ(ok.lambda(0, 1), 9.0);
}

TEST(HeterogeneousCostModel, HotPathAccessorsAndDerivedQuantities) {
  const HeterogeneousCostModel h({2.0, 1.0, 4.0},
                                 {{0.0, 1.0, 2.0},
                                  {1.0, 0.0, 1.5},
                                  {2.0, 1.5, 0.0}});
  EXPECT_DOUBLE_EQ(h.min_lambda(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_lambda(), 2.0);
  EXPECT_DOUBLE_EQ(h.cheapest_in(0), 1.0);
  EXPECT_DOUBLE_EQ(h.cheapest_in(2), 1.5);
  EXPECT_DOUBLE_EQ(h.speculation_window(0, 1), 1.0 / 1.0);
  EXPECT_DOUBLE_EQ(h.speculation_window(0, 2), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(h.caching(2, 3.0), 12.0);
}

TEST(HeterogeneousCostModel, EdgeCloudTiers) {
  const auto h =
      HeterogeneousCostModel::edge_cloud(2, 2, 3.0, 1.0, 1.0, 2.0, 1.0);
  EXPECT_EQ(h.m(), 4);
  EXPECT_DOUBLE_EQ(h.mu(0), 3.0);   // edge tier caches dear
  EXPECT_DOUBLE_EQ(h.mu(3), 1.0);   // cloud tier caches cheap
  EXPECT_DOUBLE_EQ(h.lambda(0, 1), 1.0);  // within the edge tier
  EXPECT_DOUBLE_EQ(h.lambda(0, 2), 2.0);  // cross-tier
  EXPECT_DOUBLE_EQ(h.lambda(2, 3), 1.0);  // within the cloud tier
  EXPECT_FALSE(h.is_homogeneous());
  EXPECT_THROW(HeterogeneousCostModel::edge_cloud(0, 0, 1.0, 1.0, 1.0, 1.0,
                                                  1.0),
               std::invalid_argument);
}

TEST(HeterogeneousCostModel, ToStringParseRoundTrip) {
  const HeterogeneousCostModel h({1.5, 2.0}, {{0.0, 0.75}, {1.25, 0.0}});
  const auto back = HeterogeneousCostModel::parse(h.to_string());
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.to_string(), h.to_string());

  // Tier shorthand builds the same model as the factory.
  const auto t = HeterogeneousCostModel::parse("tier=2x2;mu=3|1;lam=1|2|1");
  EXPECT_EQ(t,
            HeterogeneousCostModel::edge_cloud(2, 2, 3.0, 1.0, 1.0, 2.0, 1.0));

  // metric=off survives the round-trip (it is part of the model identity).
  const HeterogeneousCostModel nm(
      {1.0, 1.0, 1.0}, {{0.0, 9.0, 1.0}, {9.0, 0.0, 1.0}, {1.0, 1.0, 0.0}},
      {.require_metric = false});
  EXPECT_NE(nm.to_string().find("metric=off"), std::string::npos);
  EXPECT_EQ(HeterogeneousCostModel::parse(nm.to_string()), nm);
}

void expect_spec_error(const std::string& spec, const std::string& needle_a,
                       const std::string& needle_b) {
  try {
    HeterogeneousCostModel::parse(spec);
    FAIL() << "no exception for \"" << spec << "\"";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle_a), std::string::npos) << what;
    EXPECT_NE(what.find(needle_b), std::string::npos) << what;
  }
}

TEST(HeterogeneousCostModel, ParseErrorsNameKeyTokenAndChoices) {
  expect_spec_error("mu=1|1", "missing key", "lam");
  expect_spec_error("lam=0|1|1|0", "missing key", "mu");
  expect_spec_error("mu=1|x;lam=0|1|1|0", "x", "mu");
  expect_spec_error("mu=1|1;lam=0|1|1|0;bogus=3", "bogus", "mu|lam|tier|metric");
  expect_spec_error("mu=1|1;lam=0|1|1", "lam", "m*m=4");
  expect_spec_error("tier=2z2;mu=1|1;lam=1|1|1", "2z2", "tier");
  // Each count fits an int, their sum does not.
  expect_spec_error("tier=2147483647x1;mu=1|1;lam=1|1|1", "2147483647x1",
                    "tier");
  expect_spec_error("tier=2x2;mu=1;lam=1|1|1", "mu", "2 values");
  expect_spec_error("tier=2x2;mu=1|1;lam=1|1", "lam", "3 values");
  expect_spec_error("mu=1|1;lam=0|1|1|0;metric=maybe", "maybe", "on|off");
  expect_spec_error("mu", "malformed token", "mu|lam|tier|metric");
}

TEST(HeterogeneousCostModel, ExactHomogeneityAndProjection) {
  const HeterogeneousCostModel lift(4, CostModel(0.3, 0.7));
  EXPECT_TRUE(lift.is_exactly_homogeneous());
  const CostModel back = lift.as_homogeneous();
  EXPECT_EQ(back.mu, 0.3);
  EXPECT_EQ(back.lambda, 0.7);
  // Near-homogeneous (within almost_equal, not bitwise): the solver
  // dispatch may treat it as homogeneous, the serving path must not.
  const HeterogeneousCostModel near({1.0, 1.0 + 1e-12},
                                    {{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_TRUE(near.is_homogeneous());
  EXPECT_FALSE(near.is_exactly_homogeneous());
}

TEST(ServingCostModel, HomFastPathAndHetCarrier) {
  const ServingCostModel hom = CostModel(2.0, 3.0);
  EXPECT_FALSE(hom.heterogeneous());
  EXPECT_EQ(hom.het(), nullptr);
  EXPECT_DOUBLE_EQ(hom.hom().mu, 2.0);
  EXPECT_DOUBLE_EQ(hom.hom().lambda, 3.0);

  const HeterogeneousCostModel h(3, CostModel(2.0, 3.0));
  const ServingCostModel het = h;
  ASSERT_TRUE(het.heterogeneous());
  EXPECT_EQ(het.het()->m(), 3);
  // The scalar view is the exact projection of an exactly-homogeneous
  // matrix; copies share the immutable matrix (no deep copy per copy).
  EXPECT_EQ(het.hom().mu, 2.0);
  EXPECT_EQ(het.hom().lambda, 3.0);
  const ServingCostModel copy = het;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.het(), het.het());
}

TEST(Schedule, CostAccounting) {
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.4);
  s.add_cache(1, 0.5, 0.7);
  s.add_cache(2, 2.4, 4.0);
  s.add_transfer(0, 1, 0.5);
  s.add_transfer(0, 2, 0.8);
  s.add_transfer(0, 3, 1.1);
  s.add_transfer(1, 2, 2.4);
  // The Fig. 2 cost split: caching 1.4 + 0.2 + 1.6 = 3.2, transfers 4.
  EXPECT_NEAR(s.caching_cost(cm), 3.2, 1e-12);
  EXPECT_NEAR(s.transfer_cost(cm), 4.0, 1e-12);
  EXPECT_NEAR(s.cost(cm), 7.2, 1e-12);
}

TEST(Schedule, NormalizeMergesOverlaps) {
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_cache(0, 0.5, 2.0);
  s.add_cache(0, 2.0, 3.0);  // adjacent: also merged
  s.add_cache(1, 0.0, 1.0);
  s.normalize();
  ASSERT_EQ(s.caches().size(), 2u);
  EXPECT_DOUBLE_EQ(s.caches()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.caches()[0].end, 3.0);
  EXPECT_DOUBLE_EQ(s.total_cache_time(), 4.0);
}

TEST(Schedule, ZeroLengthCacheDropped) {
  Schedule s;
  s.add_cache(0, 1.0, 1.0);
  EXPECT_TRUE(s.caches().empty());
  EXPECT_THROW(s.add_cache(0, 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(s.add_transfer(1, 1, 0.0), std::invalid_argument);
}

TEST(Schedule, Covered) {
  Schedule s;
  s.add_cache(0, 1.0, 2.0);
  EXPECT_TRUE(s.covered(0, 1.0));
  EXPECT_TRUE(s.covered(0, 2.0));
  EXPECT_TRUE(s.covered(0, 1.5));
  EXPECT_FALSE(s.covered(0, 2.5));
  EXPECT_FALSE(s.covered(1, 1.5));
}

TEST(Schedule, HeterogeneousCost) {
  const HeterogeneousCostModel h({1.0, 10.0}, {{0.0, 2.0}, {5.0, 0.0}});
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_cache(1, 0.0, 1.0);
  s.add_transfer(0, 1, 1.0);
  s.add_transfer(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(s.cost(h), 1.0 + 10.0 + 2.0 + 5.0);
}

TEST(RequestSequence, FromUnsortedSortsAndDeTies) {
  const auto seq = RequestSequence::from_unsorted(
      3, {{1, 2.0}, {0, 1.0}, {2, 2.0}, {1, 0.0}}, 0, 0.5);
  ASSERT_EQ(seq.n(), 4);
  // Sorted: (1, 0.0 -> bumped to 0.5), (0, 1.0), (1, 2.0), (2, 2.0 -> 2.5).
  EXPECT_EQ(seq.server(1), 1);
  EXPECT_DOUBLE_EQ(seq.time(1), 0.5);
  EXPECT_DOUBLE_EQ(seq.time(2), 1.0);
  EXPECT_DOUBLE_EQ(seq.time(3), 2.0);
  EXPECT_DOUBLE_EQ(seq.time(4), 2.5);
  for (RequestIndex i = 1; i <= seq.n(); ++i) {
    EXPECT_GT(seq.time(i), seq.time(i - 1));
  }
  EXPECT_THROW(RequestSequence::from_unsorted(2, {{0, 1.0}}, 0, 0.0),
               std::invalid_argument);
}

TEST(Pricing, BuiltinProfilesCalibrate) {
  ASSERT_GE(builtin_price_profiles().size(), 3u);
  for (const auto& p : builtin_price_profiles()) {
    const auto cm = calibrate(p, 2.0);  // a 2 GB item
    EXPECT_GT(cm.mu, 0.0) << p.name;
    EXPECT_GT(cm.lambda, 0.0) << p.name;
    EXPECT_GT(cm.speculation_window(), 0.0) << p.name;
  }
  // Egress-dominated paths justify longer speculation windows.
  const auto cheap = calibrate(price_profile("intra-region"), 1.0);
  const auto dear = calibrate(price_profile("cross-continent"), 1.0);
  EXPECT_GT(dear.speculation_window(), cheap.speculation_window());
}

TEST(Pricing, WindowIndependentOfItemSizeWithoutFees) {
  // With no flat request fee, both mu and lambda scale with size, so the
  // break-even window is size independent.
  const auto small = calibrate(price_profile("cross-continent"), 0.1);
  const auto big = calibrate(price_profile("cross-continent"), 50.0);
  EXPECT_NEAR(small.speculation_window(), big.speculation_window(), 1e-12);
  // A flat fee makes shipping small items relatively dearer.
  const auto edge_small = calibrate(price_profile("edge-cdn"), 0.01);
  const auto edge_big = calibrate(price_profile("edge-cdn"), 10.0);
  EXPECT_GT(edge_small.speculation_window(), edge_big.speculation_window());
}

TEST(Pricing, Errors) {
  EXPECT_THROW(price_profile("no-such-cloud"), std::invalid_argument);
  EXPECT_THROW(calibrate(price_profile("edge-cdn"), 0.0), std::invalid_argument);
}

// ---- Validator ----

TEST(Validator, AcceptsFeasibleSchedule) {
  const RequestSequence seq(2, {{1, 1.0}, {0, 2.0}});
  Schedule s;
  s.add_cache(0, 0.0, 2.0);      // origin holds throughout
  s.add_transfer(0, 1, 1.0);     // serve r1 remotely, copy dropped
  const auto res = validate_schedule(s, seq);
  EXPECT_TRUE(res.ok) << res.to_string();
}

TEST(Validator, DetectsCoverageGap) {
  const RequestSequence seq(2, {{0, 1.0}, {0, 3.0}});
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_cache(0, 2.0, 3.0);  // unjustified AND a gap (1, 2)
  const auto res = validate_schedule(s, seq);
  EXPECT_FALSE(res.ok);
}

TEST(Validator, DetectsUnservedRequest) {
  const RequestSequence seq(2, {{1, 1.0}, {0, 2.0}});
  Schedule s;
  s.add_cache(0, 0.0, 2.0);
  const auto res = validate_schedule(s, seq);
  EXPECT_FALSE(res.ok);
}

TEST(Validator, DetectsMissingInitialCopy) {
  const RequestSequence seq(2, {{1, 1.0}});
  Schedule s;
  s.add_cache(1, 0.0, 1.0);  // copy appears on the wrong server at t0
  const auto res = validate_schedule(s, seq);
  EXPECT_FALSE(res.ok);
}

TEST(Validator, DetectsSourcelessTransfer) {
  const RequestSequence seq(3, {{1, 1.0}});
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_transfer(2, 1, 1.0);  // s3 never had a copy
  const auto res = validate_schedule(s, seq);
  EXPECT_FALSE(res.ok);
}

TEST(Validator, DetectsUnjustifiedCache) {
  const RequestSequence seq(2, {{1, 2.0}});
  Schedule s;
  s.add_cache(0, 0.0, 2.0);
  s.add_cache(1, 1.0, 2.0);  // no transfer feeds this interval
  const auto res = validate_schedule(s, seq);
  EXPECT_FALSE(res.ok);
}

TEST(Validator, WarnsOnDeadEndCache) {
  const RequestSequence seq(2, {{0, 1.0}, {1, 2.0}});
  Schedule s;
  s.add_cache(0, 0.0, 1.8);  // kept past its last use (r0/r1 at t=1... t=2 send)
  s.add_transfer(0, 1, 2.0);
  // The transfer at t=2.0 has no source copy: make the interval reach it.
  Schedule ok;
  ok.add_cache(0, 0.0, 2.0);
  ok.add_transfer(0, 1, 2.0);
  EXPECT_FALSE(validate_schedule(s, seq).ok);
  const auto res = validate_schedule(ok, seq);
  EXPECT_TRUE(res.ok) << res.to_string();
}

TEST(Validator, DeadEndWarningEmitted) {
  const RequestSequence seq(1, {{0, 1.0}});
  Schedule s;
  // Last request at t=1 but the (single-server) cache runs to t=1; add an
  // extra interval elsewhere in time to trigger the warning on the same
  // server: cache to t=1 is exact, so extend it artificially via a second
  // sequence where horizon is later.
  const RequestSequence seq2(1, {{0, 1.0}, {0, 3.0}});
  s.add_cache(0, 0.0, 2.5);  // dead time (1.0, 2.5)? no: r at 3.0 needs more
  s.add_cache(0, 2.5, 3.0);
  auto res = validate_schedule(s, seq2);
  EXPECT_TRUE(res.ok) << res.to_string();  // merged into one interval

  Schedule tail;
  tail.add_cache(0, 0.0, 1.0);
  auto res1 = validate_schedule(tail, seq);
  EXPECT_TRUE(res1.ok);
  EXPECT_TRUE(res1.warnings.empty());
}

}  // namespace
}  // namespace mcdc
