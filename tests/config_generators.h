// Random valid configurations, shared by the parse(to_string()) round-trip
// properties (test_engine, test_scenlab) and the config-string mutation
// lane in fuzz_differential. Every field is drawn inside its documented
// range, so each result's to_string() is a canonical, parseable string.
#pragma once

#include <cstdint>

#include "engine/engine_config.h"
#include "scenlab/scenario_config.h"
#include "util/rng.h"

namespace mcdc {

// Only canonical specs round-trip verbatim (parse canonicalizes the tier
// shorthand into matrix form; the tests pin that separately).
inline constexpr const char* kCanonicalCosts[] = {
    "hom", "het:mu=1|2;lam=0|0.5|0.5|0",
    "het:mu=2|2|2;lam=0|1|1|1|0|1|1|1|0"};

inline EngineConfig random_engine_config(Rng& rng) {
  const BackpressurePolicy policies[] = {BackpressurePolicy::kBlock,
                                         BackpressurePolicy::kDrop};
  EngineConfig cfg;
  cfg.num_shards = static_cast<int>(rng.uniform_int(0, 64));
  cfg.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 1 << 16));
  cfg.policy = policies[rng.uniform_int(2)];
  cfg.telemetry = rng.bernoulli(0.5);
  cfg.sample_ms = static_cast<std::size_t>(rng.uniform_int(0, 1000));
  cfg.cost = kCanonicalCosts[rng.uniform_int(3)];
  return cfg;
}

inline scenlab::ScenarioConfig random_scenario_config(Rng& rng) {
  const LoadShape shapes[] = {LoadShape::kUniform, LoadShape::kDiurnal,
                              LoadShape::kFlashCrowd, LoadShape::kMixed};
  scenlab::ScenarioConfig cfg;
  cfg.load.shape = shapes[rng.uniform_int(std::uint64_t(4))];
  cfg.load.num_servers = static_cast<int>(rng.uniform_int(2, 32));
  cfg.load.num_items = static_cast<int>(rng.uniform_int(1, 512));
  cfg.load.users = rng.uniform(1.0, 5e6);
  cfg.load.rate_per_user = rng.uniform(1e-7, 1e-2);
  cfg.load.duration = rng.uniform(1.0, 400.0);
  cfg.load.period = rng.uniform(0.5, 48.0);
  cfg.load.day_night_ratio = rng.uniform(1.0, 20.0);
  cfg.load.flash_every = rng.uniform(0.5, 50.0);
  cfg.load.flash_len = rng.uniform(0.1, 10.0);
  cfg.load.flash_boost = rng.uniform(1.0, 30.0);
  cfg.load.flash_affinity = rng.uniform();
  cfg.load.item_alpha = rng.uniform(0.0, 2.0);
  cfg.load.server_alpha = rng.uniform(0.0, 2.0);
  cfg.bandwidth = rng.uniform(0.1, 100.0);
  cfg.item_size = rng.uniform(0.1, 100.0);
  cfg.transfer_slots = static_cast<int>(rng.uniform_int(1, 64));
  cfg.slo = rng.uniform(0.0, 10.0);
  cfg.policy = rng.bernoulli(0.5) ? scenlab::ScenarioPolicy::kAdaptive
                                  : scenlab::ScenarioPolicy::kStatic;
  cfg.window = rng.uniform(0.01, 16.0);
  cfg.interval = rng.uniform(0.1, 24.0);
  cfg.epoch = rng.uniform_int(std::uint64_t(100));
  cfg.seed = rng.next_u64();
  cfg.cost = kCanonicalCosts[rng.uniform_int(std::uint64_t(3))];
  return cfg;
}

}  // namespace mcdc
