// The PI2 output stage (paper §3, Figures 8-9): one roll of the dice per
// packet turns a probability into a congestion signal.
//
//   think_once(p):   signal iff Y < p             =>  P[signal] = p
//   think_twice(p):  signal iff max(Y1, Y2) < p   =>  P[signal] = p^2
//
// Scalable traffic thinks once; Classic traffic thinks twice, which squares
// the linear controller's output without a multiplication wider than the
// random word. Every controller in the repo (PI2, Curvy RED, DualPI2) calls
// these; each keeps its own mark-or-drop decision for a signalled packet.
//
// Each helper draws its uniforms unconditionally, so the random stream does
// not depend on p. The two comparisons differ only for a NaN p (a Curvy RED
// ramp fed a non-finite delay): think_once never signals on it and
// think_twice always does, which the committed goldens and fuzz journals
// pin.
#pragma once

#include <algorithm>

#include "sim/rng.hpp"

namespace pi2::aqm {

/// True with probability p: one uniform against p.
[[nodiscard]] inline bool think_once(pi2::sim::Rng& rng, double p) {
  return rng.uniform() < p;
}

/// True with probability p^2: the larger of two uniforms is below p only
/// when both are.
[[nodiscard]] inline bool think_twice(pi2::sim::Rng& rng, double p) {
  return !(std::max(rng.uniform(), rng.uniform()) >= p);
}

}  // namespace pi2::aqm
