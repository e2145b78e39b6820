// Stub resolver model with pluggable transports.
//
// Latency model per query:
//   * stub cache hit: free;
//   * otherwise one query round trip to the recursive resolver over the
//     configured transport, plus (on a recursive-cache miss) the recursive's
//     authoritative lookup work;
//   * encrypted transports pay a channel-establishment cost on first use:
//     DoT/DoH ride TCP+TLS1.3 (2 RTT), DoQ rides QUIC (1 RTT, and 0-RTT on
//     resumption) — the asymmetry studied by Kosek et al. (paper ref [38]).
//   * plain UDP (Do53) queries are retried after a timeout when lost.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dns/cache.h"
#include "sim/simulator.h"
#include "tls/handshake.h"
#include "util/rng.h"

namespace h3cdn::dns {

enum class DnsTransport { Do53, DoT, DoH, DoQ };

const char* to_string(DnsTransport t);

struct ResolverConfig {
  DnsTransport transport = DnsTransport::Do53;
  Duration resolver_rtt = msec(12);        // stub <-> recursive resolver
  double recursive_cache_hit = 0.85;       // popular names cached recursively
  Duration auth_lookup_median = msec(24);  // recursive -> authoritative chain
  double auth_lookup_sigma = 0.8;
  Duration record_ttl = sec(300);
  double query_loss_rate = 0.0;            // per query message
  Duration udp_timeout = msec(400);        // Do53 retry timer
  bool channel_resumption = true;          // DoQ 0-RTT on later channels
  // Negative caching (RFC 2308): this fraction of names (a stable per-name
  // property) has no AAAA record; the empty answer is cached for
  // negative_ttl, after which a repeat visit re-queries even though the
  // positive record is still valid. Models the dual-stack (Happy Eyeballs)
  // query pair collapsing into the slower leg.
  double ipv6_absent_fraction = 0.35;
  Duration negative_ttl = sec(30);
  // DNS failover (docs/RESILIENCE.md): answers carry this many A records.
  // With > 1, a connection failure reported against a name demotes its
  // current record for `health_cooldown` and rotates dials to the next
  // healthy one. 1 — the default — reproduces the single-address behaviour.
  std::size_t addresses_per_record = 1;
  Duration health_cooldown = sec(5);
};

class Resolver {
 public:
  Resolver(sim::Simulator& sim, ResolverConfig config, util::Rng rng);

  /// Resolves `name`; `done` fires at the simulated completion time.
  void resolve(const std::string& name, std::function<void(TimePoint)> done);

  /// Inserts a record directly (cache pre-warming).
  void prewarm(const std::string& name);

  /// Drops the encrypted channel (e.g. after idle); the next query pays the
  /// re-establishment cost (0-RTT for DoQ when resumption is on).
  void drop_channel();

  /// Address index dials should use for `name` right now: the record's
  /// preferred address, or the next healthy one when it is in cooldown.
  /// Returns 0 for unknown names or single-address records.
  [[nodiscard]] std::size_t preferred_address(const std::string& name, TimePoint now);

  /// Reports a connection failure against `name`'s current address: demotes
  /// it for `health_cooldown` and rotates `preferred` to the next healthy
  /// record (round-robin; sticks with the least-recently-demoted one when
  /// every address is unhealthy). No-op for unknown names.
  void report_failure(const std::string& name, TimePoint now);

  [[nodiscard]] DnsCache& cache() { return cache_; }
  [[nodiscard]] const ResolverConfig& config() const { return config_; }

 private:
  /// Round trips to establish the query channel right now (0 if open).
  int channel_setup_rtts();
  Duration recursive_work();
  /// Stable per-name property: does this name lack an AAAA record?
  bool ipv6_absent(const std::string& name) const;
  DnsRecord make_record(const std::string& name) const;
  void issue_query(const std::string& name, std::function<void(TimePoint)> done, int attempt);

  sim::Simulator& sim_;
  ResolverConfig config_;
  util::Rng rng_;
  DnsCache cache_;
  bool channel_open_ = false;
  bool had_channel_before_ = false;  // enables DoQ 0-RTT resumption
};

}  // namespace h3cdn::dns
