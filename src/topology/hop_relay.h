// One relay tier on a chained delivery path (docs/TOPOLOGY.md).
//
// A HopRelay terminates the downstream-facing connection (via the transport
// ServerHold mechanism — see topology::Chain) and fetches the resource from
// the next tier up through its OWN http::ConnectionPool. The pool is
// persistent and shared by every downstream client of the chain, so
// upstream connection reuse — and, on H2 upstream hops, cross-request
// head-of-line coupling — is modeled exactly like a real shared proxy tier.
//
// The LAST relay of a plan is the caching mid-tier: it consults a TierCache
// before going upstream and its upstream "next tier" is the provider's edge
// server proper (per-domain cdn::EdgeServer owned by the relay). Earlier
// relays are cacheless forward proxies whose upstream requests are gated by
// the NEXT relay's hold.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cdn/edge_server.h"
#include "http/pool.h"
#include "net/link.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "tls/ticket_store.h"
#include "topology/tier_cache.h"
#include "util/rng.h"
#include "web/domains.h"

namespace h3cdn::topology {

/// Parameters of one relay->next-tier hop.
struct RelayLinkConfig {
  Duration rtt = msec(18);       // inter-tier round trip (backbone)
  double bandwidth_bps = 2e9;    // per-domain path capacity
  double loss_rate = 0.0;        // injected loss on this hop
  Duration jitter_max = usec(400);
};

class HopRelay {
 public:
  struct Config {
    std::string name;            // "proxy", "mid-tier", ... (tier tag)
    std::size_t level = 0;       // 0 = client-facing relay
    bool terminal = false;       // last relay: owns the TierCache + edges
    bool upstream_h3 = true;     // protocol of the relay->next-tier hop
    RelayLinkConfig link;
    std::size_t tier_cache_capacity = 4096;
    // Relay NIC (all upstream paths serialize through these shared links,
    // coupling concurrent clients at the relay egress).
    double nic_bandwidth_bps = 10e9;
    Duration nic_latency = usec(150);
  };

  HopRelay(sim::Simulator& sim, const web::DomainUniverse& universe, Config config,
           util::Rng rng);
  ~HopRelay();
  HopRelay(const HopRelay&) = delete;
  HopRelay& operator=(const HopRelay&) = delete;

  /// Installs the upstream response gate (the NEXT relay's hold factory).
  /// Must be called before the first fetch; only meaningful on non-terminal
  /// relays.
  void set_upstream_hold(http::ServerHoldFactory factory);

  /// Fetches one resource from the next tier through the shared pool.
  void fetch(const http::Request& request, http::FetchDone done);

  /// Terminal-relay cache interface (no-ops return miss on proxies).
  bool cache_lookup(const std::string& key);
  void cache_fill(const std::string& key);

  /// Pre-warms the terminal tier's per-domain EDGE cache (the chain's stand-in
  /// for the study's warm visit). The TierCache itself stays cold.
  void warm_edge(const std::string& domain, const std::string& key);

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t level() const { return config_.level; }
  [[nodiscard]] bool terminal() const { return config_.terminal; }
  [[nodiscard]] const TierCache* cache() const { return cache_.get(); }
  [[nodiscard]] std::uint64_t fetches() const { return fetches_; }

  /// Tears down every upstream connection (end of a topology cell).
  void close();

 private:
  struct Upstream {
    std::unique_ptr<net::NetPath> path;
    std::unique_ptr<cdn::EdgeServer> edge;  // terminal relays only
    http::OriginInfo info;
  };

  Upstream& upstream(const std::string& domain);

  sim::Simulator& sim_;
  const web::DomainUniverse& universe_;
  Config config_;
  util::Rng rng_;
  std::unique_ptr<net::Link> nic_up_;
  std::unique_ptr<net::Link> nic_down_;
  std::unique_ptr<TierCache> cache_;  // terminal relays only
  tls::SessionTicketStore tickets_;
  std::unordered_map<std::string, Upstream> upstreams_;
  std::unique_ptr<http::ConnectionPool> pool_;
  std::uint64_t fetches_ = 0;
};

}  // namespace h3cdn::topology
