// A bidirectional client<->server network path: two independent Links.
// Connections (TCP or QUIC) ride on exactly one NetPath.
#pragma once

#include <memory>

#include "net/link.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/types.h"

namespace h3cdn::net {

struct PathConfig {
  Duration rtt = msec(30);          // base round-trip (split evenly per direction)
  double bandwidth_bps = 100e6;     // both directions
  double loss_rate = 0.0;           // both directions
  Duration jitter_max = usec(0);    // both directions
};

/// Owns the uplink (client->server) and downlink (server->client).
///
/// A path may additionally be chained through a shared client *access link*
/// pair (the probe's NIC / last-mile): every packet then serializes on the
/// per-path link AND the shared access link. This is where the probe-wide
/// netem loss of the paper's Fig. 9 experiments naturally lives, and it
/// couples concurrent connections through a common bottleneck.
class NetPath {
 public:
  NetPath(sim::Simulator& sim, PathConfig config, util::Rng rng);

  [[nodiscard]] Link& uplink() { return *up_; }
  [[nodiscard]] Link& downlink() { return *down_; }
  [[nodiscard]] const Link& uplink() const { return *up_; }
  [[nodiscard]] const Link& downlink() const { return *down_; }

  /// Chains the shared access links (not owned; may be null). `access_up`
  /// carries client->server traffic, `access_down` server->client.
  void attach_access(Link* access_up, Link* access_down);

  /// Sends one packet client->server through (access uplink ->) path uplink.
  /// `pclass` is the transport class (QUIC connections tag everything Udp);
  /// it is forwarded to every link on the way, access links included. On a
  /// chained path the callback is parked on the Simulator while the packet
  /// crosses the first link (Link::relay), so no hop wraps it in a closure.
  void send_up(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless = false,
               PacketClass pclass = PacketClass::Tcp);

  /// Sends one packet server->client through path downlink (-> access downlink).
  void send_down(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless = false,
                 PacketClass pclass = PacketClass::Tcp);

  /// Base round-trip time (propagation only, no serialization/jitter).
  [[nodiscard]] Duration base_rtt() const { return config_.rtt; }

  [[nodiscard]] const PathConfig& config() const { return config_; }

  void set_loss_rate(double loss_rate);

  /// Installs the same fault profile on both directions, with independent
  /// per-direction Rng streams ("fault-up" / "fault-down") so the burst
  /// chains of the two directions are decoupled.
  void set_fault_profile(const FaultProfile& profile, util::Rng rng);

  /// Adds a scheduled outage to both directions (installing empty-profile
  /// injectors first if none are present).
  void add_outage(const Outage& outage);

  /// Re-salts the jitter streams of both links (see Link::reseed_jitter).
  void reseed_jitter(std::uint64_t salt);

 private:
  sim::Simulator& sim_;
  PathConfig config_;
  util::Rng fault_rng_;  // seeds lazily-created injectors (add_outage)
  std::unique_ptr<Link> up_;
  std::unique_ptr<Link> down_;
  Link* access_up_ = nullptr;    // not owned
  Link* access_down_ = nullptr;  // not owned
};

}  // namespace h3cdn::net
