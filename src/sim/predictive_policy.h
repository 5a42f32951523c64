// Next-use oracles for prediction-augmented Speculative Caching
// (extension): ScSimPolicy's predicted window rule (sim/policies.h).
//
// The paper motivates off-line optimality with the predictability of
// mobile trajectories ("93% of human behaviour"); modern online algorithm
// theory formalizes that as *algorithms with predictions*. At each use of
// a copy the predicted rule asks an oracle for the gap until the next use
// on that server and decides:
//
//   predicted gap <= delta_t  ->  keep the copy the full window (as SC),
//   predicted gap  > delta_t  ->  drop immediately after use.
//
// Consistency: with perfect predictions it never pays for a wasted
// speculative window (saving up to lambda per drop). Robustness: a wrong
// "drop" costs one extra transfer lambda where SC would have paid the
// wasted window lambda anyway, so the policy stays within the same
// constant-factor envelope; bench_predictions measures the
// consistency-robustness trade-off as prediction noise grows.
//
// For experiments the oracles below are built from the true sequence with
// controllable error (perfect, noisy, adversarially wrong).
#pragma once

#include <functional>

#include "model/request.h"
#include "util/rng.h"
#include "util/types.h"

namespace mcdc {

/// Returns the predicted gap until the next request on `server`, given the
/// current request index and time. +infinity means "no further request".
using NextUseOracle = std::function<Time(ServerId server, RequestIndex index,
                                         Time now)>;

/// Oracle built from the ground-truth sequence with multiplicative
/// log-normal-ish noise: predicted = actual * exp(noise * N(0,1)).
/// noise = 0 is a perfect oracle.
NextUseOracle make_sequence_oracle(const RequestSequence& seq, double noise,
                                   Rng& rng);

/// Oracle that predicts the opposite of the truth relative to the window
/// (worst case for the trusting policy).
NextUseOracle make_adversarial_oracle(const RequestSequence& seq, Time delta_t);

}  // namespace mcdc
