// Unidirectional network link with propagation delay, serialization
// (bandwidth), optional jitter, and i.i.d. Bernoulli packet loss.
//
// The paper injects loss with Linux Traffic Control (tc/netem) on the probe
// machines; netem's default loss model is exactly i.i.d. Bernoulli per packet,
// which is what this class implements. Richer fault mechanisms (bursty loss,
// outages, RTT spikes) attach via an optional net::FaultInjector.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "net/fault.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/types.h"

namespace h3cdn::net {

struct LinkConfig {
  Duration latency = msec(10);       // one-way propagation delay
  double bandwidth_bps = 100e6;      // serialization rate; <=0 means infinite
  double loss_rate = 0.0;            // per-packet drop probability in [0,1]
  Duration jitter_max = usec(0);     // uniform extra delay in [0, jitter_max]
};

/// One direction of a network path. Delivery callbacks fire on the owning
/// Simulator at (serialization end + latency + jitter); drops simply never
/// deliver. FIFO is preserved when jitter is zero because serialization
/// completion times are monotone.
class Link {
 public:
  Link(sim::Simulator& sim, LinkConfig config, util::Rng rng);

  /// Re-derives the jitter stream with a salt, leaving the loss stream
  /// untouched. Paired A/B experiments share loss realizations (so identical
  /// traffic sees identical drops and cancels exactly) while per-visit jitter
  /// stays independent noise.
  void reseed_jitter(std::uint64_t salt);

  /// Queues one packet of `size_bytes`. If `lossless` is true the stochastic
  /// drops are skipped (used for modelling reliable out-of-band signals only;
  /// all data and handshake packets go through the lossy path) — scheduled
  /// outages still apply, a dead link delivers nothing. `pclass` is the
  /// transport class middleboxes see: UDP blackholes drop only
  /// PacketClass::Udp traffic.
  void transmit(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless = false,
                PacketClass pclass = PacketClass::Tcp);

  /// Carries one packet whose delivery callback is parked on the Simulator
  /// as `delivery` (Simulator::park) across this link and then, if `next` is
  /// set, across `next` (same Simulator). The last hop queues the parked
  /// callback at its arrival time with reschedule(); a drop on either hop
  /// cancels it, destroying the callback at the drop instant. Each hop takes
  /// the same (time, seq) and the same drop and jitter draws as transmit()
  /// on that link would, so a chained path needs no wrapper closure.
  void relay(std::size_t size_bytes, sim::EventId delivery, Link* next, bool lossless,
             PacketClass pclass);

  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Replaces the loss rate mid-run (used by loss-sweep experiments). Asserts
  /// on NaN or genuinely out-of-range values; floating-point overshoot within
  /// 1e-6 of the [0,1] boundary (e.g. `baseline + injected` sums) is clamped.
  void set_loss_rate(double loss_rate);

  /// Installs (or replaces) the fault injector for this link direction.
  void set_fault_profile(const FaultProfile& profile, util::Rng rng);

  /// The installed injector, or nullptr. Non-const so experiments can add
  /// outages/spikes mid-run.
  [[nodiscard]] FaultInjector* fault_injector() { return fault_.get(); }

 private:
  /// Serializes one packet and draws its fate: the arrival time, or nullopt
  /// when the packet is dropped. Counts the packet either way.
  std::optional<TimePoint> admit(std::size_t size_bytes, bool lossless, PacketClass pclass);

  sim::Simulator& sim_;
  LinkConfig config_;
  util::Rng loss_rng_;
  util::Rng jitter_rng_;
  std::unique_ptr<FaultInjector> fault_;
  TimePoint next_free_{0};      // when the serializer becomes idle
  TimePoint last_arrival_{0};   // FIFO guarantee: deliveries never reorder
};

}  // namespace h3cdn::net
