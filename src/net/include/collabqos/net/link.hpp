// Link quality model: per-node attachment characteristics deciding whether
// and when a datagram crosses the simulated LAN. Loss and jitter are what
// the paper's RTP layer exists to mask ("multicast data transfer on UDP
// limits the reliability parameter").
#pragma once

#include <cstddef>
#include <cstdint>

#include "collabqos/sim/time.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::net {

/// Gilbert–Elliott two-state burst-loss chain. The link alternates between
/// a good and a bad state; each transmission first advances the chain, then
/// drops with the current state's loss probability. Mean burst length is
/// ~1 / p_bad_to_good packets; steady-state bad occupancy is
/// p_good_to_bad / (p_good_to_bad + p_bad_to_good). When disabled the link
/// falls back to i.i.d. `loss_probability`.
struct BurstLossParams {
  bool enabled = false;
  double p_good_to_bad = 0.0;  ///< per-packet transition good -> bad
  double p_bad_to_good = 1.0;  ///< per-packet transition bad -> good
  double loss_good = 0.0;      ///< drop chance while in the good state
  double loss_bad = 1.0;       ///< drop chance while in the bad state
};

/// Static link parameters for one node's attachment.
struct LinkParams {
  double bandwidth_bps = 100e6;        ///< serialisation rate
  sim::Duration base_latency = sim::Duration::micros(200);
  sim::Duration jitter = sim::Duration::micros(0);  ///< uniform ±jitter
  double loss_probability = 0.0;       ///< i.i.d. drop chance per packet
  BurstLossParams burst{};             ///< correlated loss (chaos plane)
  /// Explicit RNG seed for this link's loss/jitter stream. 0 (default)
  /// derives one from the network seed and the node id, so every link has
  /// an independent, reproducible stream regardless of creation order.
  std::uint64_t loss_seed = 0;
};

/// Outcome of pushing one datagram onto a link.
struct LinkVerdict {
  bool delivered = false;
  sim::Duration delay{};  ///< valid when delivered
};

/// Stateless (aside from its RNG and burst chain) link evaluator.
class LinkModel {
 public:
  LinkModel(LinkParams params, Rng rng) noexcept
      : params_(params), rng_(rng) {}

  /// Evaluate one transmission of `payload_bytes`.
  [[nodiscard]] LinkVerdict transmit(std::size_t payload_bytes);

  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }
  /// Swap parameters mid-run (congestion onset, chaos inject/heal). The
  /// RNG stream and burst-chain state carry over so a swap-and-restore
  /// around a fault window keeps the run deterministic.
  void set_params(LinkParams params) noexcept { params_ = params; }

 private:
  LinkParams params_;
  Rng rng_;
  bool bad_state_ = false;  ///< Gilbert–Elliott chain position
};

}  // namespace collabqos::net
