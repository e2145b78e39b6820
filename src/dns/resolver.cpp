#include "dns/resolver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::dns {

namespace {

const obs::MetricId kChannelsEstablished{"dns.channels_established"};
const obs::MetricId kRecursiveCacheHits{"dns.recursive_cache_hits"};
const obs::MetricId kRetries{"dns.retries"};
const obs::MetricId kFailoverReports{"dns.failover.reports"};
const obs::MetricId kFailoverSwitches{"dns.failover.switches"};
const obs::MetricId kQueries{"dns.queries"};
const obs::MetricId kStubCacheHits{"dns.stub_cache_hits"};
const obs::MetricId kNegativeExpiries{"dns.negative_expiries"};
const obs::MetricId kResolveMs{"dns.resolve_ms"};

}  // namespace

const char* to_string(DnsTransport t) {
  switch (t) {
    case DnsTransport::Do53: return "Do53";
    case DnsTransport::DoT: return "DoT";
    case DnsTransport::DoH: return "DoH";
    case DnsTransport::DoQ: return "DoQ";
  }
  return "?";
}

Resolver::Resolver(sim::Simulator& sim, ResolverConfig config, util::Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  H3CDN_EXPECTS(config_.resolver_rtt >= Duration::zero());
  H3CDN_EXPECTS(config_.query_loss_rate >= 0.0 && config_.query_loss_rate < 1.0);
}

int Resolver::channel_setup_rtts() {
  if (config_.transport == DnsTransport::Do53) return 0;  // connectionless
  if (channel_open_) return 0;
  channel_open_ = true;
  obs::count(kChannelsEstablished);
  switch (config_.transport) {
    case DnsTransport::DoT:
    case DnsTransport::DoH:
      // TCP + TLS 1.3 (browsers/stubs do not use early data here either).
      return tls::handshake_rtts(tls::TransportKind::Tcp, tls::TlsVersion::Tls13,
                                 tls::HandshakeMode::Fresh);
    case DnsTransport::DoQ: {
      const bool zero_rtt = config_.channel_resumption && had_channel_before_;
      had_channel_before_ = true;
      return tls::handshake_rtts(tls::TransportKind::Quic, tls::TlsVersion::Tls13,
                                 zero_rtt ? tls::HandshakeMode::ZeroRtt
                                          : tls::HandshakeMode::Fresh);
    }
    case DnsTransport::Do53: break;
  }
  return 0;
}

Duration Resolver::recursive_work() {
  if (rng_.bernoulli(config_.recursive_cache_hit)) {
    obs::count(kRecursiveCacheHits);
    return usec(200);  // cached at the recursive: lookup only
  }
  return from_ms(rng_.lognormal_median(to_ms(config_.auth_lookup_median),
                                       config_.auth_lookup_sigma));
}

void Resolver::issue_query(const std::string& name, std::function<void(TimePoint)> done,
                           int attempt) {
  // Query message loss: encrypted transports recover via their reliable
  // channel (~1 extra RTT); plain UDP waits for the stub's retry timer.
  if (rng_.bernoulli(config_.query_loss_rate)) {
    obs::count(kRetries);
    const Duration penalty = config_.transport == DnsTransport::Do53
                                 ? config_.udp_timeout
                                 : config_.resolver_rtt;
    sim_.schedule_in(penalty, [this, name, done = std::move(done), attempt]() mutable {
      issue_query(name, std::move(done), attempt + 1);
    });
    return;
  }

  const Duration setup =
      Duration{config_.resolver_rtt.count() * channel_setup_rtts()};
  const Duration total = setup + config_.resolver_rtt + recursive_work();
  sim_.schedule_in(total, [this, name, done = std::move(done)] {
    cache_.insert(make_record(name));
    done(sim_.now());
  });
}

bool Resolver::ipv6_absent(const std::string& name) const {
  // fork() derives a child seed without consuming parent state, so this is a
  // pure, deterministic function of (resolver seed, name).
  return rng_.fork("aaaa").fork(name).bernoulli(config_.ipv6_absent_fraction);
}

DnsRecord Resolver::make_record(const std::string& name) const {
  DnsRecord record;
  record.name = name;
  record.resolved_at = sim_.now();
  record.ttl = config_.record_ttl;
  if (config_.ipv6_absent_fraction > 0.0 && ipv6_absent(name)) {
    record.has_negative = true;
    record.negative_resolved_at = sim_.now();
    record.negative_ttl = config_.negative_ttl;
  }
  record.address_count = std::max<std::size_t>(config_.addresses_per_record, 1);
  record.preferred = 0;
  record.unhealthy_until.assign(record.address_count, TimePoint{0});
  return record;
}

std::size_t Resolver::preferred_address(const std::string& name, TimePoint now) {
  DnsRecord* record = cache_.find(name);
  if (record == nullptr || record->address_count <= 1) return 0;
  if (record->address_healthy(record->preferred, now)) return record->preferred;
  // Preferred is cooling down: scan forward for a recovered address.
  for (std::size_t i = 1; i < record->address_count; ++i) {
    const std::size_t candidate = (record->preferred + i) % record->address_count;
    if (record->address_healthy(candidate, now)) {
      record->preferred = candidate;
      return candidate;
    }
  }
  return record->preferred;  // all cooling down; stick with the current one
}

void Resolver::report_failure(const std::string& name, TimePoint now) {
  DnsRecord* record = cache_.find(name);
  if (record == nullptr || record->address_count <= 1) return;
  obs::count(kFailoverReports, now);
  if (record->unhealthy_until.size() < record->address_count) {
    record->unhealthy_until.resize(record->address_count, TimePoint{0});
  }
  record->unhealthy_until[record->preferred] = now + config_.health_cooldown;
  for (std::size_t i = 1; i < record->address_count; ++i) {
    const std::size_t candidate = (record->preferred + i) % record->address_count;
    if (record->address_healthy(candidate, now)) {
      record->preferred = candidate;
      obs::count(kFailoverSwitches, now);
      return;
    }
  }
  // Every address is in cooldown: move to the one recovering soonest so the
  // next dial has the best chance of landing on a healthy path.
  std::size_t best = record->preferred;
  for (std::size_t i = 0; i < record->address_count; ++i) {
    if (record->unhealthy_until[i] < record->unhealthy_until[best]) best = i;
  }
  if (best != record->preferred) {
    record->preferred = best;
    obs::count(kFailoverSwitches, now);
  }
}

void Resolver::resolve(const std::string& name, std::function<void(TimePoint)> done) {
  H3CDN_EXPECTS(done != nullptr);
  obs::count(kQueries, sim_.now());
  if (const auto record = cache_.lookup(name, sim_.now())) {
    if (record->negative_valid_at(sim_.now())) {
      obs::count(kStubCacheHits);
      sim_.schedule_in(Duration::zero(), [this, done = std::move(done)] { done(sim_.now()); });
      return;
    }
    // The positive record is valid but the negative (no-AAAA) answer has
    // expired: the dual-stack query pair must go out again (RFC 2308).
    obs::count(kNegativeExpiries, sim_.now());
  }
  if (obs::enabled()) {
    // Wrap the callback to record end-to-end resolve latency (cold path only;
    // the stub-cache hit above is instantaneous).
    const TimePoint started = sim_.now();
    done = [started, done = std::move(done)](TimePoint at) {
      obs::observe_ms(kResolveMs, started, at - started);
      done(at);
    };
  }
  issue_query(name, std::move(done), 0);
}

void Resolver::prewarm(const std::string& name) {
  // Do not clobber a still-fully-valid record: repeated warm-ups must not
  // push negative-cache expiry ever further into the future.
  if (const auto existing = cache_.lookup(name, sim_.now());
      existing && existing->negative_valid_at(sim_.now())) {
    return;
  }
  cache_.insert(make_record(name));
}

void Resolver::drop_channel() { channel_open_ = false; }

}  // namespace h3cdn::dns
