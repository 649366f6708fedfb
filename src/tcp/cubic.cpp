#include "tcp/cubic.hpp"

#include <algorithm>
#include <cmath>

namespace pi2::tcp {

using pi2::sim::Duration;
using pi2::sim::Time;
using pi2::sim::to_seconds;

Cubic::Cubic() : Cubic(Params{}) {}

void Cubic::reset_epoch() { epoch_start_ = pi2::sim::kTimeInfinity; }

void Cubic::on_ack(std::int64_t newly_acked, Duration rtt, Time now,
                   bool in_recovery) {
  if (in_recovery) return;
  const auto acked = static_cast<double>(newly_acked);

  const double rtt_s = to_seconds(rtt);
  if (rtt_s > 0.0) min_rtt_s_ = std::min(min_rtt_s_, rtt_s);

  if (in_slow_start()) {
    if (params_.hystart && rtt_s > 0.0 && min_rtt_s_ < 1e8 &&
        rtt_s > min_rtt_s_ + std::max(min_rtt_s_ / 8.0, 0.004)) {
      ssthresh_ = std::max(cwnd_, kMinWindow);  // delay-based exit
    } else {
      cwnd_ = std::min(cwnd_ + acked, std::max(ssthresh_, kMinWindow));
      return;
    }
  }

  if (epoch_start_ == pi2::sim::kTimeInfinity) {
    epoch_start_ = now;
    if (cwnd_ < w_max_) {
      k_ = std::cbrt((w_max_ - cwnd_) / params_.c);
      origin_ = w_max_;
    } else {
      k_ = 0.0;
      origin_ = cwnd_;
    }
    tcp_cwnd_ = cwnd_;
  }

  // Cubic target one RTT into the future (standard implementation trick to
  // keep growth ahead of the feedback loop). The cube is two multiplies,
  // not a libm pow() per ACK.
  const double t = to_seconds(now - epoch_start_) + to_seconds(rtt);
  const double d = t - k_;
  const double target = origin_ + params_.c * (d * d * d);

  double cnt;  // ACKs per +1 segment of growth
  if (target > cwnd_) {
    cnt = cwnd_ / (target - cwnd_);
  } else {
    cnt = 100.0 * cwnd_;  // effectively no growth in the concave plateau
  }

  creno_mode_ = false;
  if (params_.tcp_friendliness) {
    // Reno-friendly estimate with beta = 0.7: slope 3(1-b)/(1+b) per RTT.
    tcp_cwnd_ += 3.0 * (1.0 - params_.beta) / (1.0 + params_.beta) * acked / cwnd_;
    if (tcp_cwnd_ > cwnd_ && tcp_cwnd_ > target) {
      // CReno region: grow towards the friendly estimate instead.
      cnt = cwnd_ / (tcp_cwnd_ - cwnd_);
      creno_mode_ = true;
    }
  }

  // Linux lower bound: at most one segment of growth per two ACKed segments
  // (1.5x per RTT), which also tames convex catch-up after a stale epoch.
  cnt = std::max(cnt, 2.0);
  cwnd_ += acked / cnt;
}

void Cubic::on_congestion_event(Time /*now*/) {
  reset_epoch();
  if (params_.fast_convergence && cwnd_ < w_max_) {
    w_max_ = cwnd_ * (2.0 - params_.beta) / 2.0;
  } else {
    w_max_ = cwnd_;
  }
  ssthresh_ = std::max(cwnd_ * params_.beta, kMinWindow);
  cwnd_ = ssthresh_;
}

void Cubic::on_timeout(Time /*now*/) {
  reset_epoch();
  w_max_ = cwnd_;
  ssthresh_ = std::max(cwnd_ * params_.beta, kMinWindow);
  cwnd_ = 1.0;
}

}  // namespace pi2::tcp
