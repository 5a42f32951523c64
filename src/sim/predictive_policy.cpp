#include "sim/predictive_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mcdc {

namespace {

std::vector<std::vector<Time>> times_by_server(const RequestSequence& seq) {
  std::vector<std::vector<Time>> by(static_cast<std::size_t>(seq.m()));
  for (RequestIndex i = 1; i <= seq.n(); ++i) {
    by[static_cast<std::size_t>(seq.server(i))].push_back(seq.time(i));
  }
  return by;
}

Time true_gap(const std::vector<std::vector<Time>>& by, ServerId s, Time now) {
  const auto& v = by[static_cast<std::size_t>(s)];
  auto it = std::upper_bound(v.begin(), v.end(), now + kEps);
  if (it == v.end()) return std::numeric_limits<Time>::infinity();
  return *it - now;
}

}  // namespace

NextUseOracle make_sequence_oracle(const RequestSequence& seq, double noise,
                                   Rng& rng) {
  auto by = times_by_server(seq);
  Rng* noise_rng = &rng;
  return [by = std::move(by), noise, noise_rng](ServerId s, RequestIndex,
                                                Time now) -> Time {
    const Time gap = true_gap(by, s, now);
    if (std::isinf(gap) || noise <= 0.0) return gap;
    return gap * std::exp(noise * noise_rng->normal());
  };
}

NextUseOracle make_adversarial_oracle(const RequestSequence& seq, Time delta_t) {
  auto by = times_by_server(seq);
  return [by = std::move(by), delta_t](ServerId s, RequestIndex, Time now) -> Time {
    const Time gap = true_gap(by, s, now);
    // Lie exactly across the keep/drop threshold.
    if (gap <= delta_t) return 10.0 * delta_t;
    return 0.5 * delta_t;
  };
}

}  // namespace mcdc
