#pragma once

#include "math/rng.hpp"

namespace atlas::net {

/// Jitter model for a transport hop. The simulator runs with jitter disabled
/// (NS-3's p2p link is deterministic); the real network adds a base extra
/// delay plus an exponential tail, modelling SDN-switch queuing behind cross
/// traffic — one of the "real-only" mechanisms parameter calibration can
/// compensate in mean but not in distribution: Table 3's backhaul delay
/// shifts every packet alike and cannot add the exponential tail.
struct TransportJitter {
  double base_extra_ms = 0.0;  ///< Constant extra per-packet delay.
  double exp_mean_ms = 0.0;    ///< Mean of the exponential tail (0 = off).
  double per_mbit_ms = 0.0;    ///< Size-dependent store-and-forward cost
                               ///< (GTP encapsulation + switch processing);
                               ///< negligible for pings, ~8 ms for frames.

  double sample(double bits, atlas::math::Rng& rng) const {
    double extra = base_extra_ms + per_mbit_ms * bits / 1e6;
    if (exp_mean_ms > 0.0) extra += rng.exponential(exp_mean_ms);
    return extra;
  }
};

/// One direction of the slice's metered transport path: an OpenFlow-meter
/// style rate limiter (slice backhaul bandwidth, Table 2) in front of a
/// propagation delay. Frames serialize FIFO at the metered rate; `send`
/// returns the arrival time at the far end.
class TransportLink {
 public:
  /// `rate_mbps` <= 0 models a fully-throttled meter: the link still moves
  /// data, but at a residual trickle (meters cannot drop to true zero).
  TransportLink(double rate_mbps, double delay_ms, TransportJitter jitter = {});

  /// Enqueue `bits` at time `now`; returns the arrival time.
  double send(double now, double bits, atlas::math::Rng& rng);

  /// Effective meter rate (after any headroom adjustment).
  double rate_mbps() const noexcept { return rate_mbps_; }
  double busy_until() const noexcept { return busy_until_; }

 private:
  double rate_mbps_;
  double delay_ms_;
  TransportJitter jitter_;
  double busy_until_ = 0.0;
};

/// SPGW-U style forwarding hop: a fixed per-packet processing delay. Each
/// slice owns an isolated SPGW-U container in the paper's prototype; we keep
/// one instance per slice per direction.
class CoreHop {
 public:
  explicit CoreHop(double processing_ms) : processing_ms_(processing_ms) {}
  double forward(double now) const { return now + processing_ms_; }
  double processing_ms() const noexcept { return processing_ms_; }

 private:
  double processing_ms_;
};

}  // namespace atlas::net
