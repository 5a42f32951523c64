// Differential fuzz harness for the solvers (ctest label: fuzz).
//
// A seeded sweep over (m, n, lambda/mu, workload family) instances; for
// each instance every solver output is cross-checked against independent
// implementations and replayed through the executor:
//
//   * offline_dp (both pivot-lookup strategies, alternating) vs the O(n^2)
//     reference recurrence: C and D tables must agree element-wise.
//   * offline_dp vs the exponential exact solver on small instances: the
//     optimal cost must agree (independent ground truth, different
//     state space).
//   * every reconstructed schedule passes validate_schedule (V1-V5), its
//     arithmetic cost equals the reported optimum, and an event-level
//     replay through sim/executor reconciles the cost exactly.
//   * the simulator's ScSimPolicy vs the core SpeculativeCache at epoch
//     limits none/2/7 and window factors 1/0.5/3: equal cost, one transfer
//     per core miss, equal hits.
//   * B_n <= OPT (the marginal bound is a certified lower bound), and the
//     3-competitive certificate for SC. Note the raw inequality
//     "SC <= 3 * B_n" is false in general — B_n clips every long gap at
//     lambda while both SC and OPT must pay mu * gap to bridge it — so we
//     check the paper's actual reduction-normalized chain (Lemmas 5-8):
//         Pi(SC) - v - h <= 3 * B'   with   B' = n' * lambda,
//     plus the end-to-end consequence Pi(SC) <= 3 * OPT.
//   * the sharded streaming engine (policy=block, random shard count /
//     queue capacity / span size / telemetry) vs the serial
//     OnlineDataService on random multi-item streams: per-item costs,
//     transfers, hits, and aggregate ServiceReport totals must be
//     BIT-identical (item independence makes the equivalence exact; the
//     merge reproduces the serial summation order).
//   * the config-string parsers (EngineConfig, ScenarioConfig, the het
//     cost spec) on mutated canonical strings: a named rejection, or a
//     value whose to_string() parses back unchanged.
//
// Iteration count is bounded by default and overridable for long runs:
//   MCDC_FUZZ_ITERS  number of random instances (default 1000)
//   MCDC_FUZZ_SEED   base seed of the sweep (default 20170814)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/offline_exact.h"
#include "baselines/offline_quadratic.h"
#include "baselines/solve.h"
#include "config_generators.h"
#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "core/reductions.h"
#include "engine/ingress.h"
#include "engine/streaming_engine.h"
#include "model/schedule_validator.h"
#include "scenlab/network_sim.h"
#include "scenlab/scenario_config.h"
#include "scenlab/scenario_run.h"
#include "service/data_service.h"
#include "sim/executor.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mcdc {
namespace {

constexpr double kTol = 1e-7;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

RequestSequence random_instance(Rng& rng, int m, int n, const CostModel& cm) {
  switch (rng.uniform_int(std::uint64_t{7})) {
    case 0: {
      PoissonZipfConfig cfg;
      cfg.num_servers = m;
      cfg.num_requests = n;
      cfg.arrival_rate = rng.uniform(0.2, 4.0);
      cfg.zipf_alpha = rng.uniform(0.0, 1.5);
      return gen_poisson_zipf(rng, cfg);
    }
    case 1: {
      MobilityConfig cfg;
      cfg.num_servers = m;
      cfg.num_requests = n;
      cfg.num_users = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
      return gen_markov_mobility(rng, cfg);
    }
    case 2: {
      CommuterConfig cfg;
      cfg.num_servers = m;
      cfg.num_requests = n;
      return gen_commuter(rng, cfg);
    }
    case 3: {
      BurstyConfig cfg;
      cfg.num_servers = m;
      cfg.num_requests = n;
      cfg.pareto_alpha = rng.uniform(1.1, 2.5);
      return gen_bursty_pareto(rng, cfg);
    }
    case 4: {
      if (m >= 2) {
        return gen_adversarial_alternation(cm, n, rng.uniform(0.6, 1.8), m);
      }
      return gen_uniform(rng, m, n, rng.uniform(0.2, 4.0));
    }
    case 5: {
      DiurnalConfig cfg;
      cfg.num_servers = std::max(m, 2);
      cfg.num_requests = n;
      return gen_diurnal(rng, cfg);
    }
    default:
      return gen_uniform(rng, m, n, rng.uniform(0.2, 4.0));
  }
}

// Feed a producer's records through submit_span in randomly sized chunks
// (including the occasional empty span): span boundaries must be invisible
// to the determinism contract, so fuzzing them IS the point.
void submit_in_random_spans(Rng& rng, IngressSession& session,
                            const std::vector<MultiItemRequest>& recs) {
  std::size_t k = 0;
  while (k < recs.size()) {
    const std::size_t len =
        rng.uniform_int(std::uint64_t{17});  // 0..17: empty spans too
    const std::size_t take = std::min(len, recs.size() - k);
    session.submit_span(
        std::span<const MultiItemRequest>(recs.data() + k, take));
    k += take;
  }
}

// One full differential pass over an instance. `tag` prefixes every failure
// message so a red run identifies the offending seed immediately.
void check_instance(const RequestSequence& seq, const CostModel& cm,
                    PivotLookup lookup, const std::string& tag) {
  SCOPED_TRACE(tag + " mu=" + std::to_string(cm.mu) +
               " lambda=" + std::to_string(cm.lambda) + " " + seq.to_string());

  // ---- offline DP vs the quadratic reference recurrence. ----
  const auto dp = solve_offline(seq, cm, {.lookup = lookup});
  const auto quad = solve_offline_quadratic(seq, cm);
  ASSERT_EQ(dp.C.size(), quad.C.size());
  for (std::size_t i = 0; i < dp.C.size(); ++i) {
    ASSERT_TRUE(almost_equal(dp.C[i], quad.C[i], kTol))
        << "C mismatch at i=" << i << ": dp=" << dp.C[i]
        << " quad=" << quad.C[i];
    ASSERT_TRUE(almost_equal(dp.D[i], quad.D[i], kTol))
        << "D mismatch at i=" << i << ": dp=" << dp.D[i]
        << " quad=" << quad.D[i];
  }
  ASSERT_TRUE(almost_equal(dp.optimal_cost, quad.optimal_cost, kTol));

  // ---- the marginal bound certifies OPT from below. ----
  ASSERT_TRUE(less_or_equal(dp.bounds.B.back(), dp.optimal_cost, kTol))
      << "B_n=" << dp.bounds.B.back() << " > OPT=" << dp.optimal_cost;

  // ---- reconstructed optimal schedule: feasible, priced, replayable. ----
  ASSERT_TRUE(dp.has_schedule);
  const auto val = validate_schedule(dp.schedule, seq);
  ASSERT_TRUE(val.ok) << "DP schedule infeasible: " << val.to_string();
  ASSERT_TRUE(almost_equal(dp.schedule.cost(cm), dp.optimal_cost, kTol))
      << "schedule cost " << dp.schedule.cost(cm) << " != C(n) "
      << dp.optimal_cost;
  const auto replay = execute_schedule(dp.schedule, seq, cm);
  ASSERT_TRUE(replay.ok) << "DP replay failed: " << replay.to_string();
  ASSERT_TRUE(almost_equal(replay.measured_total_cost, dp.optimal_cost, kTol))
      << "replay reconciliation: measured " << replay.measured_total_cost
      << " != C(n) " << dp.optimal_cost;

  // ---- exponential exact solver as independent ground truth (small n). ----
  if (seq.n() <= 16 && seq.active_servers() <= 6) {
    const auto exact = solve_offline_exact(seq, cm);
    ASSERT_TRUE(almost_equal(exact.optimal_cost, dp.optimal_cost, kTol))
        << "exact=" << exact.optimal_cost << " dp=" << dp.optimal_cost;
  }

  // ---- online SC: feasibility, booking reconciliation, 3-competitive. ----
  const auto sc = run_speculative_caching(seq, cm);
  ASSERT_EQ(sc.hits + sc.misses, static_cast<std::size_t>(seq.n()));
  const auto sc_val = validate_schedule(sc.schedule, seq);
  ASSERT_TRUE(sc_val.ok) << "SC schedule infeasible: " << sc_val.to_string();
  const auto sc_replay = execute_schedule(sc.schedule, seq, cm);
  ASSERT_TRUE(sc_replay.ok) << "SC replay failed: " << sc_replay.to_string();
  ASSERT_TRUE(
      almost_equal(sc_replay.measured_total_cost, sc.total_cost, kTol))
      << "SC replay reconciliation: measured " << sc_replay.measured_total_cost
      << " != booked " << sc.total_cost;
  ASSERT_TRUE(less_or_equal(dp.optimal_cost, sc.total_cost, kTol))
      << "online beat the optimum: SC=" << sc.total_cost
      << " OPT=" << dp.optimal_cost;
  ASSERT_TRUE(less_or_equal(sc.total_cost, 3.0 * dp.optimal_cost, kTol))
      << "competitive ratio " << sc.total_cost / dp.optimal_cost << " > 3";

  // Theorem 3's actual chain, anchored at the marginal bound: after the
  // V- and H-reductions both sides provably pay, SC is within 3 * B'.
  const auto red = compute_reductions(seq, cm);
  ASSERT_TRUE(
      less_or_equal(red.reduced(sc.total_cost), 3.0 * red.b_prime, kTol))
      << "reduced SC cost " << red.reduced(sc.total_cost) << " > 3*B' = "
      << 3.0 * red.b_prime << " (n'=" << red.n_prime << ")";

  // ---- SC with epoch resets: still feasible, reconciled, >= OPT. --------
  // Fixed-count epoch resets are this repo's extension knob, not the
  // paper's intrinsic epochs (which end when the replica set collapses on
  // its own): a forced reset every k transfers discards copies OPT would
  // keep, so the global 3-competitive bound provably does NOT survive —
  // e.g. epoch=2 with lambda/mu >> 1 reaches ratios near 5. We therefore
  // hold epoch variants to every structural guarantee except Theorem 3.
  for (const std::size_t epoch : {std::size_t{2}, std::size_t{7}}) {
    SpeculativeCachingOptions opt;
    opt.epoch_transfers = epoch;
    const auto esc = run_speculative_caching(seq, cm, opt);
    const auto eval = validate_schedule(esc.schedule, seq);
    ASSERT_TRUE(eval.ok) << "epoch=" << epoch
                         << " SC schedule infeasible: " << eval.to_string();
    const auto ereplay = execute_schedule(esc.schedule, seq, cm);
    ASSERT_TRUE(ereplay.ok && almost_equal(ereplay.measured_total_cost,
                                           esc.total_cost, kTol))
        << "epoch=" << epoch << " replay reconciliation failed: "
        << ereplay.to_string();
    ASSERT_TRUE(less_or_equal(dp.optimal_cost, esc.total_cost, kTol))
        << "epoch=" << epoch << " beat the optimum: SC=" << esc.total_cost
        << " OPT=" << dp.optimal_cost;
  }

  // ---- the simulator's SC reference vs the core SC. ----------------------
  // ScSimPolicy re-implements the state machine on the generic policy API
  // (its own clock, copy set and cost meter), so agreement here is
  // triangulation, not a tautology.
  for (const std::size_t epoch :
       {std::numeric_limits<std::size_t>::max(), std::size_t{2},
        std::size_t{7}}) {
    for (const double factor : {1.0, 0.5, 3.0}) {
      SpeculativeCachingOptions opt;
      opt.epoch_transfers = epoch;
      opt.speculation_factor = factor;
      const auto core = run_speculative_caching(seq, cm, opt);
      ScSimPolicy policy(cm, seq.origin(), epoch, factor);
      const auto sim = run_policy(seq, cm, policy);
      ASSERT_TRUE(sim.feasible)
          << "epoch=" << epoch << " factor=" << factor
          << " ScSimPolicy infeasible: " << sim.violations.front();
      ASSERT_TRUE(almost_equal(sim.total_cost, core.total_cost, kTol))
          << "epoch=" << epoch << " factor=" << factor
          << " ScSimPolicy=" << sim.total_cost << " core=" << core.total_cost;
      ASSERT_EQ(sim.transfers, core.misses)
          << "epoch=" << epoch << " factor=" << factor;
      ASSERT_EQ(sim.hits, core.hits)
          << "epoch=" << epoch << " factor=" << factor;
    }
  }
}

TEST(FuzzDifferential, RandomizedSweep) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + it;
    Rng rng(seed);
    const int m = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{12}));
    const int n = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{70}));
    // Log-uniform price sweep: lambda/mu spans ~3 decades either side of 1.
    const double mu = std::exp(rng.uniform(-2.3, 1.4));
    const double lambda = std::exp(rng.uniform(-2.3, 2.1));
    const CostModel cm(mu, lambda);
    const auto seq = random_instance(rng, m, n, cm);
    const PivotLookup lookup =
        (it % 2 == 0) ? PivotLookup::kPointerMatrix : PivotLookup::kBinarySearch;
    check_instance(seq, cm, lookup, "seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Engine lane: the sharded streaming engine must be bit-identical to the
// serial service on every stream, at every shard count, under every
// lossless backpressure policy. "Bit-identical" is literal — ASSERT_EQ on
// doubles — because the engine routes each item's full subsequence to one
// shard's SpeculativeCache (same arithmetic as serial) and merges reports
// in the serial summation order.
TEST(FuzzDifferential, EngineBitIdenticalToSerial) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + 0x700000000ULL + it;
    Rng rng(seed);
    MultiItemConfig cfg;
    cfg.num_servers = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
    cfg.num_items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{40}));
    cfg.num_requests = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{250}));
    cfg.arrival_rate = rng.uniform(0.5, 8.0);
    cfg.item_zipf_alpha = rng.uniform(0.0, 1.3);
    cfg.server_zipf_alpha = rng.uniform(0.0, 1.3);
    const CostModel cm(std::exp(rng.uniform(-2.3, 1.4)),
                       std::exp(rng.uniform(-2.3, 2.1)));
    const auto stream = gen_multi_item(rng, cfg);

    SCOPED_TRACE("engine seed=" + std::to_string(seed) + " m=" +
                 std::to_string(cfg.num_servers) + " items=" +
                 std::to_string(cfg.num_items) + " n=" +
                 std::to_string(cfg.num_requests));

    OnlineDataService serial(cfg.num_servers, cm);
    for (const auto& r : stream) serial.request(r.item, r.server, r.time);
    const ServiceReport want = serial.finish();

    EngineConfig ecfg;
    ecfg.num_shards = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
    ecfg.queue_capacity = std::size_t{1}
                          << rng.uniform_int(std::uint64_t{8});  // 1..128
    // Discarded draw: it once sized a dequeue batch. Consuming it keeps
    // every seed's spans and config identical to earlier runs of this
    // lane, so a recorded failing seed still reproduces the same case.
    (void)rng.uniform_int(std::uint64_t{16});
    // Telemetry must be invisible to the determinism contract: randomly
    // flip it (and the sampler) and demand the same bit-identity.
    ecfg.telemetry = (it % 3 == 0);
    ecfg.sample_ms = (it % 6 == 0) ? std::size_t{1} : std::size_t{0};
    StreamingEngine engine(cfg.num_servers, cm, ecfg);
    IngressSession session = engine.open_producer();
    submit_in_random_spans(rng, session, stream);
    session.close();
    const ServiceReport got = engine.finish();

    ASSERT_EQ(want.total_cost, got.total_cost);
    ASSERT_EQ(want.caching_cost, got.caching_cost);
    ASSERT_EQ(want.transfer_cost, got.transfer_cost);
    ASSERT_EQ(want.items, got.items);
    ASSERT_EQ(want.requests, got.requests);
    ASSERT_EQ(want.per_item.size(), got.per_item.size());
    for (std::size_t i = 0; i < want.per_item.size(); ++i) {
      const ItemOutcome& w = want.per_item[i];
      const ItemOutcome& g = got.per_item[i];
      ASSERT_EQ(w.item, g.item);
      ASSERT_EQ(w.origin, g.origin);
      ASSERT_EQ(w.birth, g.birth);
      ASSERT_EQ(w.requests, g.requests);
      ASSERT_EQ(w.cost, g.cost) << "item " << w.item;
      ASSERT_EQ(w.caching_cost, g.caching_cost) << "item " << w.item;
      ASSERT_EQ(w.transfer_cost, g.transfer_cost) << "item " << w.item;
      ASSERT_EQ(w.transfers, g.transfers) << "item " << w.item;
      ASSERT_EQ(w.hits, g.hits) << "item " << w.item;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

namespace {

void assert_reports_identical(const ServiceReport& want,
                              const ServiceReport& got) {
  ASSERT_EQ(want.total_cost, got.total_cost);
  ASSERT_EQ(want.caching_cost, got.caching_cost);
  ASSERT_EQ(want.transfer_cost, got.transfer_cost);
  ASSERT_EQ(want.items, got.items);
  ASSERT_EQ(want.requests, got.requests);
  ASSERT_EQ(want.per_item.size(), got.per_item.size());
  for (std::size_t i = 0; i < want.per_item.size(); ++i) {
    const ItemOutcome& w = want.per_item[i];
    const ItemOutcome& g = got.per_item[i];
    ASSERT_EQ(w.item, g.item);
    ASSERT_EQ(w.origin, g.origin);
    ASSERT_EQ(w.birth, g.birth);
    ASSERT_EQ(w.requests, g.requests);
    ASSERT_EQ(w.cost, g.cost) << "item " << w.item;
    ASSERT_EQ(w.caching_cost, g.caching_cost) << "item " << w.item;
    ASSERT_EQ(w.transfer_cost, g.transfer_cost) << "item " << w.item;
    ASSERT_EQ(w.transfers, g.transfers) << "item " << w.item;
    ASSERT_EQ(w.hits, g.hits) << "item " << w.item;
  }
}

}  // namespace

// Multi-producer determinism sweep: random producer counts (1, 2, 4, 8),
// a random request -> producer assignment (each producer's slice keeps the
// stream's increasing times, so per-session monotonicity holds by
// construction), and barrier-started producer threads so every iteration
// runs a genuinely different OS interleaving. Whatever the interleaving,
// the engine's (time, producer, seq) merge must reproduce the serial
// service bit for bit.
TEST(FuzzDifferential, EngineMultiProducerBitIdenticalToSerial) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + 0x900000000ULL + it;
    Rng rng(seed);
    MultiItemConfig cfg;
    cfg.num_servers = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
    cfg.num_items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{40}));
    cfg.num_requests = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{250}));
    cfg.arrival_rate = rng.uniform(0.5, 8.0);
    cfg.item_zipf_alpha = rng.uniform(0.0, 1.3);
    cfg.server_zipf_alpha = rng.uniform(0.0, 1.3);
    const CostModel cm(std::exp(rng.uniform(-2.3, 1.4)),
                       std::exp(rng.uniform(-2.3, 2.1)));
    const auto stream = gen_multi_item(rng, cfg);

    const std::size_t producers = std::size_t{1}
                                  << rng.uniform_int(std::uint64_t{4});
    std::vector<std::vector<MultiItemRequest>> slices(producers);
    for (const auto& r : stream) {
      slices[rng.uniform_int(producers)].push_back(r);
    }

    SCOPED_TRACE("engine-mp seed=" + std::to_string(seed) + " m=" +
                 std::to_string(cfg.num_servers) + " n=" +
                 std::to_string(cfg.num_requests) + " producers=" +
                 std::to_string(producers));

    OnlineDataService serial(cfg.num_servers, cm);
    for (const auto& r : stream) serial.request(r.item, r.server, r.time);
    const ServiceReport want = serial.finish();

    EngineConfig ecfg;
    ecfg.num_shards = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
    ecfg.queue_capacity = std::size_t{1}
                          << rng.uniform_int(std::uint64_t{8});  // 1..128
    // Discarded draw: it once sized a dequeue batch. Consuming it keeps
    // each seed's draw sequence identical to earlier runs of this lane, so
    // a recorded failing seed still maps to the same case.
    (void)rng.uniform_int(std::uint64_t{16});
    // Telemetry randomization: stamps and histograms must never leak
    // into the cross-producer merge order.
    ecfg.telemetry = (it % 2 == 1);
    ecfg.sample_ms = (it % 4 == 1) ? std::size_t{1} : std::size_t{0};
    StreamingEngine engine(cfg.num_servers, cm, ecfg);

    std::vector<IngressSession> sessions;
    sessions.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      sessions.push_back(engine.open_producer());
    }
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        // Per-thread rng: span boundaries are randomized independently on
        // every producer without sharing the seeding rng across threads.
        Rng trng(seed ^ (0x9E3779B97F4A7C15ULL * (p + 1)));
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        submit_in_random_spans(trng, sessions[p], slices[p]);
        sessions[p].close();
      });
    }
    while (ready.load() < producers) std::this_thread::yield();
    go.store(true);
    for (auto& t : threads) t.join();
    const ServiceReport got = engine.finish();

    assert_reports_identical(want, got);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Scenlab lane (ctest label: scenlab): the discrete-event network
// simulator must be a pure function of (config, seed). Every iteration
// draws a random ScenarioConfig through the string form (so the parser is
// fuzzed too), runs the full scenario twice, and demands BIT-identical
// JSON — with an environment decoy mutated between the runs to prove the
// simulator reads no process state (no clocks, no env, no address-order
// containers on any result path).
TEST(FuzzDifferential, ScenarioRunsBitIdenticalAndEnvIndependent) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);
  // Each iteration is a full 4-policy scenario run twice; keep the default
  // lane at a fraction of the solver sweep's count.
  const std::uint64_t runs = std::max<std::uint64_t>(iters / 10, 25);

  constexpr const char* kFamilies[] = {"uniform", "diurnal", "flash", "mixed"};
  for (std::uint64_t it = 0; it < runs; ++it) {
    const std::uint64_t seed = base_seed + 0xB00000000ULL + it;
    Rng rng(seed);
    std::string spec =
        std::string("family=") + kFamilies[rng.uniform_int(std::uint64_t{4})] +
        ",servers=" + std::to_string(2 + rng.uniform_int(std::uint64_t{6})) +
        ",items=" + std::to_string(1 + rng.uniform_int(std::uint64_t{24})) +
        ",users=" + std::to_string(5000 + 5000 * rng.uniform_int(
                                              std::uint64_t{5})) +
        ",rate=0.0001,duration=" +
        std::to_string(12 + 12 * rng.uniform_int(std::uint64_t{3})) +
        ",slots=" + std::to_string(1 + rng.uniform_int(std::uint64_t{4})) +
        ",seed=" + std::to_string(seed);
    if (it % 3 == 0) spec += ",epoch=" + std::to_string(
        2 + rng.uniform_int(std::uint64_t{6}));
    const scenlab::ScenarioConfig cfg = scenlab::ScenarioConfig::parse(spec);
    ASSERT_EQ(scenlab::ScenarioConfig::parse(cfg.to_string()), cfg) << spec;
    const CostModel cm(std::exp(rng.uniform(-1.0, 1.0)),
                       std::exp(rng.uniform(-1.0, 2.0)));

    SCOPED_TRACE("scenlab seed=" + std::to_string(seed) + " " + spec);
    const std::string first = scenlab::run_scenario(cfg, cm).to_json();
    // Perturb the process environment between the runs: a deterministic
    // simulator must not notice.
    ASSERT_EQ(setenv("MCDC_SCENLAB_DECOY", std::to_string(it).c_str(), 1), 0);
    const std::string second = scenlab::run_scenario(cfg, cm).to_json();
    ASSERT_EQ(first, second) << "seeded scenario run is not reproducible";
    if (::testing::Test::HasFatalFailure()) return;
  }
  unsetenv("MCDC_SCENLAB_DECOY");
}

// Deterministic corners the random sweep hits only by luck.
TEST(FuzzDifferential, DeterministicEdgeCases) {
  // A single far-away request: B_1 = lambda but OPT must bridge the gap at
  // mu * t_1 — the instance demonstrating why SC <= 3*B_n cannot hold raw.
  {
    const CostModel cm(1.0, 1.0);
    const RequestSequence seq(2, {{1, 50.0}});
    check_instance(seq, cm, PivotLookup::kPointerMatrix, "single-far-request");
  }
  // Everything on the origin server: OPT is pure caching, SC never misses.
  {
    const CostModel cm(0.5, 2.0);
    const RequestSequence seq(3, {{0, 1.0}, {0, 2.0}, {0, 7.5}, {0, 8.0}});
    check_instance(seq, cm, PivotLookup::kBinarySearch, "origin-only");
  }
  // One server total (m = 1): degenerate pi(i), no transfers possible.
  {
    const CostModel cm(2.0, 0.3);
    const RequestSequence seq(1, {{0, 0.4}, {0, 1.9}, {0, 2.0}});
    check_instance(seq, cm, PivotLookup::kPointerMatrix, "m-equals-1");
  }
  // Adversarial alternation just past the speculation window, both lookups.
  {
    const CostModel cm(1.0, 1.0);
    const auto seq = gen_adversarial_alternation(cm, 40, 1.01, 2);
    check_instance(seq, cm, PivotLookup::kPointerMatrix, "adversarial-matrix");
    check_instance(seq, cm, PivotLookup::kBinarySearch, "adversarial-binsearch");
  }
  // Dense ties near the speculation boundary with skewed prices.
  {
    const CostModel cm(3.0, 0.1);
    std::vector<Request> reqs;
    Time t = 0.0;
    for (int i = 0; i < 30; ++i) {
      t += (i % 3 == 0) ? 1e-4 : cm.speculation_window();
      reqs.push_back({static_cast<ServerId>(i % 4), t});
    }
    const RequestSequence seq(4, std::move(reqs));
    check_instance(seq, cm, PivotLookup::kBinarySearch, "window-boundary");
  }
}

// ---------------- Heterogeneous lane (ctest label: het) ----------------
//
// Three cost families, mirroring the bench frontier (bench_het_frontier):
//   metric-random    lambda = Euclidean distances between random points
//                    (a metric by construction), log-uniform per-server mu;
//   tiered           edge_cloud topologies with metric-safe tier prices;
//   near-homogeneous per-entry relative jitter of 1e-6 around a scalar
//                    model — heterogeneous to the serving path, but deep
//                    inside the regime where the paper's intuition holds.

const char* kHetFamilies[] = {"metric-random", "tiered", "near-homogeneous"};

HeterogeneousCostModel random_het_model(Rng& rng, int m, int family) {
  switch (family) {
    case 0: {
      std::vector<double> xs(m), ys(m), mu(m);
      for (int j = 0; j < m; ++j) {
        xs[j] = rng.uniform(0.0, 4.0);
        ys[j] = rng.uniform(0.0, 4.0);
        mu[j] = std::exp(rng.uniform(-1.0, 1.0));
      }
      std::vector<std::vector<double>> lam(
          m, std::vector<double>(static_cast<std::size_t>(m), 0.0));
      for (int j = 0; j < m; ++j) {
        for (int k = 0; k < m; ++k) {
          if (j == k) continue;
          const double dx = xs[j] - xs[k];
          const double dy = ys[j] - ys[k];
          // The +c floor keeps every edge positive and preserves the
          // triangle inequality (it adds c to both sides' each leg).
          lam[j][k] = 0.25 + std::sqrt(dx * dx + dy * dy);
        }
      }
      return {std::move(mu), std::move(lam)};
    }
    case 1: {
      const int edge =
          1 + static_cast<int>(rng.uniform_int(
                  static_cast<std::uint64_t>(std::max(m - 1, 1))));
      const double cross = rng.uniform(0.5, 2.0);
      // Within-tier prices capped at 2 * cross: the two-hop detour through
      // the other tier never undercuts a direct edge, so the matrix is a
      // metric and the constructor's triangle check passes.
      return HeterogeneousCostModel::edge_cloud(
          std::min(edge, m), m - std::min(edge, m),
          std::exp(rng.uniform(0.0, 1.5)), std::exp(rng.uniform(-1.5, 0.0)),
          rng.uniform(0.1, 2.0 * cross), cross, rng.uniform(0.1, 2.0 * cross));
    }
    default: {
      const double mu0 = std::exp(rng.uniform(-1.0, 1.0));
      const double l0 = std::exp(rng.uniform(-1.0, 1.5));
      std::vector<double> mu(m);
      std::vector<std::vector<double>> lam(
          m, std::vector<double>(static_cast<std::size_t>(m), 0.0));
      for (int j = 0; j < m; ++j) {
        mu[j] = mu0 * (1.0 + rng.uniform(-1e-6, 1e-6));
        for (int k = 0; k < m; ++k) {
          if (j != k) lam[j][k] = l0 * (1.0 + rng.uniform(-1e-6, 1e-6));
        }
      }
      return {std::move(mu), std::move(lam)};
    }
  }
}

// One differential pass over a heterogeneous instance: SC-het serves every
// request, reconciles its booking against the schedule's per-edge price,
// never beats the exact optimum, and the het heuristic upper-bounds it.
void check_het_instance(const RequestSequence& seq,
                        const HeterogeneousCostModel& cm,
                        const std::string& tag) {
  SCOPED_TRACE(tag + " " + cm.to_string() + " " + seq.to_string());

  const auto sc = run_speculative_caching(seq, cm);
  ASSERT_EQ(sc.hits + sc.misses, static_cast<std::size_t>(seq.n()));
  ASSERT_TRUE(almost_equal(sc.total_cost,
                           sc.caching_cost + sc.transfer_cost, kTol));
  // Transfer booking is a sum of real edges of the matrix.
  const double misses = static_cast<double>(sc.misses);
  ASSERT_TRUE(less_or_equal(cm.min_lambda() * misses, sc.transfer_cost, kTol));
  ASSERT_TRUE(less_or_equal(sc.transfer_cost, cm.max_lambda() * misses, kTol));
  // The recorded schedule is feasible and re-prices to the booked total.
  const auto val = validate_schedule(sc.schedule, seq);
  ASSERT_TRUE(val.ok) << "SC-het schedule infeasible: " << val.to_string();
  ASSERT_TRUE(almost_equal(sc.schedule.cost(cm), sc.total_cost, kTol))
      << "schedule re-price " << sc.schedule.cost(cm) << " != booked "
      << sc.total_cost;

  // The heuristic is an upper bound on the exact heterogeneous optimum;
  // SC never beats that optimum. (The exact oracle is exponential in the
  // active-server count, so it gates the small instances only.)
  const auto ub = solve_offline(
      seq, cm,
      {.algorithm = OfflineAlgorithm::kHetHeuristic, .schedule = false});
  if (count_active_servers(seq) <= 8) {
    const auto opt = solve_offline(
        seq, cm, {.algorithm = OfflineAlgorithm::kExact, .schedule = false});
    ASSERT_TRUE(less_or_equal(opt.optimal_cost, sc.total_cost, kTol))
        << "SC-het beat the exact optimum: SC=" << sc.total_cost
        << " OPT=" << opt.optimal_cost;
    ASSERT_TRUE(less_or_equal(opt.optimal_cost, ub.optimal_cost, kTol))
        << "het heuristic below the exact optimum: heuristic="
        << ub.optimal_cost << " OPT=" << opt.optimal_cost;
    // kAuto must agree with the backend it claims to have picked.
    const auto facade = solve_offline(seq, cm, {.schedule = false});
    if (facade.algorithm == OfflineAlgorithm::kExact) {
      ASSERT_EQ(facade.optimal_cost, opt.optimal_cost);
    }
  }
}

TEST(FuzzDifferential, HetLane) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + 0xD00000000ULL + it;
    Rng rng(seed);
    const int m = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
    const int n = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{40}));
    const int family = static_cast<int>(it % 3);
    const auto het = random_het_model(rng, m, family);
    const auto seq = random_instance(rng, m, n, het.as_homogeneous());
    check_het_instance(seq, het,
                       std::string(kHetFamilies[family]) +
                           " seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Hom-equivalence lane: an exact homogeneous lift must be BIT-identical
// to the scalar path through every serving layer — the serial service,
// the sharded engine (lift delivered via the config string, exercising
// the parse seam too), and the network-time simulator.
TEST(FuzzDifferential, HetHomEquivalentBitIdentical) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + 0xE00000000ULL + it;
    Rng rng(seed);
    MultiItemConfig cfg;
    cfg.num_servers = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{5}));
    cfg.num_items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{20}));
    cfg.num_requests =
        1 + static_cast<int>(rng.uniform_int(std::uint64_t{150}));
    cfg.arrival_rate = rng.uniform(0.5, 8.0);
    const CostModel cm(std::exp(rng.uniform(-2.3, 1.4)),
                       std::exp(rng.uniform(-2.3, 2.1)));
    const HeterogeneousCostModel lift(cfg.num_servers, cm);
    const auto stream = gen_multi_item(rng, cfg);

    SCOPED_TRACE("het-lift seed=" + std::to_string(seed) + " m=" +
                 std::to_string(cfg.num_servers) + " n=" +
                 std::to_string(cfg.num_requests));

    OnlineDataService hom_serial(cfg.num_servers, cm);
    OnlineDataService het_serial(cfg.num_servers, lift);
    for (const auto& r : stream) {
      hom_serial.request(r.item, r.server, r.time);
      het_serial.request(r.item, r.server, r.time);
    }
    const ServiceReport want = hom_serial.finish();
    assert_reports_identical(want, het_serial.finish());
    if (::testing::Test::HasFatalFailure()) return;

    EngineConfig ecfg;
    ecfg.num_shards = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    ecfg.cost = "het:" + lift.to_string();
    StreamingEngine engine(cfg.num_servers, cm, ecfg);
    IngressSession session = engine.open_producer();
    submit_in_random_spans(rng, session, stream);
    session.close();
    assert_reports_identical(want, engine.finish());
    if (::testing::Test::HasFatalFailure()) return;

    // Network-time simulator: scalar vs lift on the same stream.
    if (it % 10 == 0) {
      scenlab::ScenarioConfig scfg;
      scfg.load.num_servers = cfg.num_servers;
      scfg.load.num_items = cfg.num_items;
      const auto hom_net = scenlab::run_network_sim(scfg, cm, stream);
      const auto het_net = scenlab::run_network_sim(scfg, lift, stream);
      ASSERT_EQ(hom_net.total_cost, het_net.total_cost);
      ASSERT_EQ(hom_net.caching_cost, het_net.caching_cost);
      ASSERT_EQ(hom_net.transfer_cost, het_net.transfer_cost);
      ASSERT_EQ(hom_net.hits, het_net.hits);
      ASSERT_EQ(hom_net.misses, het_net.misses);
      ASSERT_EQ(hom_net.transfers, het_net.transfers);
      ASSERT_EQ(hom_net.expirations, het_net.expirations);
      ASSERT_EQ(hom_net.latency_p99, het_net.latency_p99);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Config-string lane: canonical strings of random valid EngineConfigs,
// ScenarioConfigs and het cost specs, mutated byte-wise and spliced with
// hostile numbers. Every parse must either throw std::invalid_argument or
// return a value whose to_string() parses back to the same string. The
// lane only parses: a fuzzed string never builds an engine or runs a
// scenario, since either could start thousands of threads or run without
// end.

std::string mutate_config(Rng& rng, std::string s) {
  static const char* const kSplices[] = {
      "nan", "inf", "-inf", "1e309", "99999999999999999999",
      "18446744073709551616", "4294967297", "-1"};
  static const std::string kStructural = ",;=|x.-e0123456789";
  const auto random_byte = [&rng]() {
    return rng.bernoulli(0.5)
               ? kStructural[rng.uniform_int(std::uint64_t{kStructural.size()})]
               : static_cast<char>(rng.uniform_int(std::uint64_t{256}));
  };
  const int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_int(std::uint64_t{s.size() + 1});
    switch (rng.uniform_int(std::uint64_t{5})) {
      case 0:
        s.resize(pos);
        break;
      case 1:
        s.insert(pos, 1, random_byte());
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 3:
        if (pos < s.size()) s[pos] = random_byte();
        break;
      default: {
        // Replace one whole value (after a random '=' or '|') when there
        // is one, so the splice lands where a number is parsed.
        const char* splice =
            kSplices[rng.uniform_int(std::uint64_t{std::size(kSplices)})];
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < s.size(); ++i) {
          if (s[i] == '=' || s[i] == '|') starts.push_back(i + 1);
        }
        if (starts.empty()) {
          s.insert(pos, splice);
          break;
        }
        const std::size_t at =
            starts[rng.uniform_int(std::uint64_t{starts.size()})];
        const std::size_t end = std::min(s.find_first_of(",;|", at), s.size());
        s.replace(at, end - at, splice);
        break;
      }
    }
  }
  return s;
}

// True when `text` parsed (and then round-tripped); false on rejection.
template <typename Parse>
bool expect_rejected_or_canonical(const std::string& text, Parse parse) {
  std::string canon;
  try {
    canon = parse(text).to_string();
  } catch (const std::invalid_argument&) {
    return false;  // a named rejection is the other allowed outcome
  }
  std::string back;
  EXPECT_NO_THROW(back = parse(canon).to_string()) << "input: " << text;
  EXPECT_EQ(back, canon) << "input: " << text;
  return true;
}

TEST(FuzzDifferential, ConfigStringsRejectOrRoundTrip) {
  const std::uint64_t iters = env_u64("MCDC_FUZZ_ITERS", 1000);
  const std::uint64_t base_seed = env_u64("MCDC_FUZZ_SEED", 20170814);

  const auto engine = [](const std::string& t) {
    return EngineConfig::parse(t);
  };
  const auto scenario = [](const std::string& t) {
    return scenlab::ScenarioConfig::parse(t);
  };
  const auto het = [](const std::string& t) {
    return HeterogeneousCostModel::parse(t);
  };
  std::uint64_t accepted = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = base_seed + 0xF00000000ULL + it;
    Rng rng(seed);
    SCOPED_TRACE("config seed=" + std::to_string(seed));
    const int m = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    const std::string het_spec =
        random_het_model(rng, m, static_cast<int>(it % 3)).to_string();
    EngineConfig ecfg = random_engine_config(rng);
    scenlab::ScenarioConfig scfg = random_scenario_config(rng);
    if (rng.bernoulli(0.5)) ecfg.cost = "het:" + het_spec;
    if (rng.bernoulli(0.5)) scfg.cost = "het:" + het_spec;
    for (int k = 0; k < 4; ++k) {
      accepted += expect_rejected_or_canonical(
          mutate_config(rng, ecfg.to_string()), engine);
      accepted += expect_rejected_or_canonical(
          mutate_config(rng, scfg.to_string()), scenario);
      accepted += expect_rejected_or_canonical(mutate_config(rng, het_spec),
                                               het);
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Both outcomes must occur, or the mutations are too mild or too wild
  // to test anything.
  const std::uint64_t parsed = 12 * iters;
  std::printf("config lane: %llu of %llu mutated strings accepted\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(parsed));
  if (iters >= 100) {
    EXPECT_GT(accepted, parsed / 20);
    EXPECT_GT(parsed - accepted, parsed / 20);
  }
}

}  // namespace
}  // namespace mcdc
