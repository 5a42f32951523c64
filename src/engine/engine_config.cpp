#include "engine/engine_config.h"

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "model/cost_model.h"
#include "util/contracts.h"
#include "util/kvform.h"

namespace mcdc {

const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDrop:
      return "drop";
  }
  MCDC_UNREACHABLE("bad BackpressurePolicy %d", static_cast<int>(policy));
}

std::string EngineConfig::to_string() const {
  std::string out;
  out += "shards=" + std::to_string(num_shards);
  out += ",cap=" + std::to_string(queue_capacity);
  out += ",policy=";
  out += mcdc::to_string(policy);
  out += ",telemetry=";
  out += telemetry ? "on" : "off";
  out += ",sample_ms=" + std::to_string(sample_ms);
  out += ",cost=" + cost;
  return out;
}

EngineConfig EngineConfig::parse(const std::string& text) {
  static const std::string kCtx = "EngineConfig";
  static const std::string kKeys =
      "shards|cap|policy|telemetry|sample_ms|cost";
  EngineConfig cfg;
  kvform::for_each_kv(
      kCtx, text, ',', kKeys,
      [&cfg](const std::string& key, const std::string& value) {
        if (key == "shards") {
          cfg.num_shards = kvform::parse_int(
              kCtx, key, value, "a shard count >= 0; 0 = hardware threads");
        } else if (key == "cap") {
          cfg.queue_capacity = static_cast<std::size_t>(kvform::parse_u64(
              kCtx, key, value, "a queue capacity > 0",
              std::numeric_limits<std::size_t>::max()));
        } else if (key == "policy") {
          if (value == "block") {
            cfg.policy = BackpressurePolicy::kBlock;
          } else if (value == "drop") {
            cfg.policy = BackpressurePolicy::kDrop;
          } else {
            kvform::bad_value(kCtx, key, value, "block|drop");
          }
        } else if (key == "telemetry") {
          cfg.telemetry = kvform::parse_on_off(kCtx, key, value);
        } else if (key == "sample_ms") {
          cfg.sample_ms = static_cast<std::size_t>(kvform::parse_u64(
              kCtx, key, value, "a sampler period in ms >= 0; 0 = off",
              std::numeric_limits<std::size_t>::max()));
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
              throw std::invalid_argument(kCtx + ": bad value \"" + value +
                                          "\" for key \"cost\": " + e.what());
            }
          } else {
            kvform::bad_value(kCtx, key, value, "hom|het:<spec>");
          }
        } else {
          return false;
        }
        return true;
      });
  return cfg;
}

}  // namespace mcdc
