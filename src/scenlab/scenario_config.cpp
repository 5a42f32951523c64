#include "scenlab/scenario_config.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "model/cost_model.h"
#include "util/contracts.h"
#include "util/kvform.h"

namespace mcdc::scenlab {

const char* to_string(ScenarioPolicy policy) {
  switch (policy) {
    case ScenarioPolicy::kStatic:
      return "static";
    case ScenarioPolicy::kAdaptive:
      return "adaptive";
  }
  MCDC_UNREACHABLE("bad ScenarioPolicy %d", static_cast<int>(policy));
}

ScenarioPolicy parse_scenario_policy(const char* name) {
  const std::string s(name);
  if (s == "static") return ScenarioPolicy::kStatic;
  if (s == "adaptive") return ScenarioPolicy::kAdaptive;
  throw std::invalid_argument("unknown scenario policy: " + s +
                              " (expected static|adaptive)");
}

namespace {

constexpr const char* kCtx = "ScenarioConfig";
constexpr const char* kKeys =
    "family|servers|items|users|rate|duration|period|day_night|flash_every|"
    "flash_len|flash_boost|flash_affinity|zipf_items|zipf_servers|bw|size|"
    "slots|slo|policy|window|interval|epoch|seed|cost";

// Thin context-binding shims over util/kvform.h — the shared helpers carry
// the whole-token and error-shape contract; these just pin the surface name.

using kvform::append_double;

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  kvform::bad_value(kCtx, key, value, expected);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value,
                        const char* expected) {
  return kvform::parse_u64(kCtx, key, value, expected);
}

int parse_int(const std::string& key, const std::string& value,
              const char* expected) {
  return kvform::parse_int(kCtx, key, value, expected);
}

double parse_f64(const std::string& key, const std::string& value,
                 const char* expected) {
  return kvform::parse_f64(kCtx, key, value, expected);
}

}  // namespace

std::string ScenarioConfig::to_string() const {
  std::string out;
  out.reserve(256);
  out += "family=";
  out += mcdc::to_string(load.shape);
  out += ",servers=";
  out += std::to_string(load.num_servers);
  out += ",items=";
  out += std::to_string(load.num_items);
  out += ",users=";
  append_double(out, load.users);
  out += ",rate=";
  append_double(out, load.rate_per_user);
  out += ",duration=";
  append_double(out, load.duration);
  out += ",period=";
  append_double(out, load.period);
  out += ",day_night=";
  append_double(out, load.day_night_ratio);
  out += ",flash_every=";
  append_double(out, load.flash_every);
  out += ",flash_len=";
  append_double(out, load.flash_len);
  out += ",flash_boost=";
  append_double(out, load.flash_boost);
  out += ",flash_affinity=";
  append_double(out, load.flash_affinity);
  out += ",zipf_items=";
  append_double(out, load.item_alpha);
  out += ",zipf_servers=";
  append_double(out, load.server_alpha);
  out += ",bw=";
  append_double(out, bandwidth);
  out += ",size=";
  append_double(out, item_size);
  out += ",slots=";
  out += std::to_string(transfer_slots);
  out += ",slo=";
  append_double(out, slo);
  out += ",policy=";
  out += scenlab::to_string(policy);
  out += ",window=";
  append_double(out, window);
  out += ",interval=";
  append_double(out, interval);
  out += ",epoch=";
  out += std::to_string(epoch);
  out += ",seed=";
  out += std::to_string(seed);
  out += ",cost=";
  out += cost;
  return out;
}

ScenarioConfig ScenarioConfig::parse(const std::string& text) {
  ScenarioConfig cfg;
  kvform::for_each_kv(kCtx, text, ',', kKeys, [&](const std::string& key,
                                                  const std::string& value) {
    if (key == "family") {
      if (value != "uniform" && value != "diurnal" && value != "flash" &&
          value != "mixed") {
        bad_value(key, value, "uniform|diurnal|flash|mixed");
      }
      cfg.load.shape = parse_load_shape(value.c_str());
    } else if (key == "servers") {
      cfg.load.num_servers = parse_int(key, value, "a server count >= 2");
      if (cfg.load.num_servers < 2) bad_value(key, value, "a server count >= 2");
    } else if (key == "items") {
      cfg.load.num_items = parse_int(key, value, "an item count >= 1");
      if (cfg.load.num_items < 1) bad_value(key, value, "an item count >= 1");
    } else if (key == "users") {
      cfg.load.users = parse_f64(key, value, "a user population > 0");
      if (!(cfg.load.users > 0.0)) bad_value(key, value, "a user population > 0");
    } else if (key == "rate") {
      cfg.load.rate_per_user = parse_f64(key, value, "a per-user rate > 0");
      if (!(cfg.load.rate_per_user > 0.0)) {
        bad_value(key, value, "a per-user rate > 0");
      }
    } else if (key == "duration") {
      cfg.load.duration = parse_f64(key, value, "a horizon > 0");
      if (!(cfg.load.duration > 0.0)) bad_value(key, value, "a horizon > 0");
    } else if (key == "period") {
      cfg.load.period = parse_f64(key, value, "a diurnal period > 0");
      if (!(cfg.load.period > 0.0)) {
        bad_value(key, value, "a diurnal period > 0");
      }
    } else if (key == "day_night") {
      cfg.load.day_night_ratio =
          parse_f64(key, value, "a peak/trough ratio >= 1");
      if (!(cfg.load.day_night_ratio >= 1.0)) {
        bad_value(key, value, "a peak/trough ratio >= 1");
      }
    } else if (key == "flash_every") {
      cfg.load.flash_every = parse_f64(key, value, "a flash interval > 0");
      if (!(cfg.load.flash_every > 0.0)) {
        bad_value(key, value, "a flash interval > 0");
      }
    } else if (key == "flash_len") {
      cfg.load.flash_len = parse_f64(key, value, "a flash duration > 0");
      if (!(cfg.load.flash_len > 0.0)) {
        bad_value(key, value, "a flash duration > 0");
      }
    } else if (key == "flash_boost") {
      cfg.load.flash_boost = parse_f64(key, value, "a flash multiplier >= 1");
      if (!(cfg.load.flash_boost >= 1.0)) {
        bad_value(key, value, "a flash multiplier >= 1");
      }
    } else if (key == "flash_affinity") {
      cfg.load.flash_affinity =
          parse_f64(key, value, "a hot-pair share in [0,1]");
      if (!(cfg.load.flash_affinity >= 0.0 &&
            cfg.load.flash_affinity <= 1.0)) {
        bad_value(key, value, "a hot-pair share in [0,1]");
      }
    } else if (key == "zipf_items") {
      cfg.load.item_alpha = parse_f64(key, value, "an item Zipf skew >= 0");
      if (!(cfg.load.item_alpha >= 0.0)) {
        bad_value(key, value, "an item Zipf skew >= 0");
      }
    } else if (key == "zipf_servers") {
      cfg.load.server_alpha =
          parse_f64(key, value, "a server Zipf skew >= 0");
      if (!(cfg.load.server_alpha >= 0.0)) {
        bad_value(key, value, "a server Zipf skew >= 0");
      }
    } else if (key == "bw") {
      cfg.bandwidth = parse_f64(key, value, "a link bandwidth > 0");
      if (!(cfg.bandwidth > 0.0)) bad_value(key, value, "a link bandwidth > 0");
    } else if (key == "size") {
      cfg.item_size = parse_f64(key, value, "an item size > 0");
      if (!(cfg.item_size > 0.0)) bad_value(key, value, "an item size > 0");
    } else if (key == "slots") {
      cfg.transfer_slots = parse_int(key, value, "a slot count >= 1");
      if (cfg.transfer_slots < 1) bad_value(key, value, "a slot count >= 1");
    } else if (key == "slo") {
      cfg.slo = parse_f64(key, value, "a latency SLO >= 0");
      if (!(cfg.slo >= 0.0)) bad_value(key, value, "a latency SLO >= 0");
    } else if (key == "policy") {
      if (value != "static" && value != "adaptive") {
        bad_value(key, value, "static|adaptive");
      }
      cfg.policy = parse_scenario_policy(value.c_str());
    } else if (key == "window") {
      cfg.window = parse_f64(key, value, "a speculation factor > 0");
      if (!(cfg.window > 0.0)) {
        bad_value(key, value, "a speculation factor > 0");
      }
    } else if (key == "interval") {
      cfg.interval = parse_f64(key, value, "a monitoring interval > 0");
      if (!(cfg.interval > 0.0)) {
        bad_value(key, value, "a monitoring interval > 0");
      }
    } else if (key == "epoch") {
      cfg.epoch = parse_u64(key, value, "an epoch length >= 0; 0 = off");
    } else if (key == "seed") {
      cfg.seed = parse_u64(key, value, "a seed >= 0");
    } else if (key == "cost") {
      if (value == "hom") {
        cfg.cost = "hom";
      } else if (value.rfind("het:", 0) == 0) {
        // Validate eagerly and store the canonical spec so
        // parse(to_string()) round-trips exactly.
        try {
          cfg.cost = "het:" +
                     HeterogeneousCostModel::parse(value.substr(4)).to_string();
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument("ScenarioConfig: bad value \"" + value +
                                      "\" for key \"cost\": " + e.what());
        }
      } else {
        bad_value(key, value, "hom|het:<spec>");
      }
    } else {
      return false;  // for_each_kv raises the uniform unknown-key error
    }
    return true;
  });
  return cfg;
}

bool ScenarioConfig::operator==(const ScenarioConfig& other) const {
  return load.shape == other.load.shape &&
         load.num_servers == other.load.num_servers &&
         load.num_items == other.load.num_items &&
         load.users == other.load.users &&
         load.rate_per_user == other.load.rate_per_user &&
         load.duration == other.load.duration &&
         load.period == other.load.period &&
         load.day_night_ratio == other.load.day_night_ratio &&
         load.flash_every == other.load.flash_every &&
         load.flash_len == other.load.flash_len &&
         load.flash_boost == other.load.flash_boost &&
         load.flash_affinity == other.load.flash_affinity &&
         load.item_alpha == other.load.item_alpha &&
         load.server_alpha == other.load.server_alpha &&
         bandwidth == other.bandwidth && item_size == other.item_size &&
         transfer_slots == other.transfer_slots && slo == other.slo &&
         policy == other.policy && window == other.window &&
         interval == other.interval && epoch == other.epoch &&
         seed == other.seed && cost == other.cost;
}

}  // namespace mcdc::scenlab
