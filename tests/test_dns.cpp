#include "dns/resolver.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace h3cdn::dns {
namespace {

struct Fixture {
  sim::Simulator sim;
  // Every resolver event of the fixture's lifetime counts into `metrics`.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope{&metrics};

  std::uint64_t count(const std::string& name) { return metrics.counter("dns." + name).value(); }

  Resolver make(DnsTransport transport, double loss = 0.0) {
    ResolverConfig config;
    config.transport = transport;
    config.query_loss_rate = loss;
    config.recursive_cache_hit = 1.0;  // deterministic latency unless stated
    return Resolver(sim, config, util::Rng(7));
  }

  Duration resolve_once(Resolver& r, const std::string& name) {
    const TimePoint start = sim.now();
    TimePoint done{-1};
    r.resolve(name, [&](TimePoint t) { done = t; });
    sim.run();
    return done - start;
  }
};

DnsRecord make_record(std::string name, TimePoint resolved_at, Duration ttl) {
  DnsRecord record;
  record.name = std::move(name);
  record.resolved_at = resolved_at;
  record.ttl = ttl;
  return record;
}

TEST(DnsCache, TtlExpiry) {
  DnsCache cache;
  cache.insert(make_record("a.example", msec(0), sec(10)));
  EXPECT_TRUE(cache.lookup("a.example", sec(9)).has_value());
  EXPECT_FALSE(cache.lookup("a.example", sec(10)).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DnsCache, RemoveExpiredPrunes) {
  DnsCache cache;
  cache.insert(make_record("old.example", msec(0), sec(1)));
  cache.insert(make_record("new.example", sec(100), sec(300)));
  cache.remove_expired(sec(100));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DnsResolver, Do53SingleRoundTrip) {
  Fixture f;
  auto r = f.make(DnsTransport::Do53);
  const auto d = f.resolve_once(r, "a.example");
  // 1 RTT to the recursive + ~free cached recursive lookup.
  EXPECT_GE(d, msec(12));
  EXPECT_LT(d, msec(14));
}

TEST(DnsResolver, StubCacheHitIsFree) {
  Fixture f;
  auto r = f.make(DnsTransport::Do53);
  f.resolve_once(r, "a.example");
  const auto d = f.resolve_once(r, "a.example");
  EXPECT_EQ(d, Duration::zero());
  EXPECT_EQ(f.count("stub_cache_hits"), 1u);
}

TEST(DnsResolver, PrewarmSkipsNetwork) {
  Fixture f;
  auto r = f.make(DnsTransport::Do53);
  r.prewarm("a.example");
  EXPECT_EQ(f.resolve_once(r, "a.example"), Duration::zero());
  EXPECT_EQ(f.count("queries"), 1u);
}

TEST(DnsResolver, EncryptedTransportsPayChannelSetupOnce) {
  Fixture f;
  auto doh = f.make(DnsTransport::DoH);
  const auto first = f.resolve_once(doh, "a.example");
  const auto second = f.resolve_once(doh, "b.example");
  // First query: 2 RTT TLS channel + 1 RTT query = 3 RTT; then 1 RTT.
  EXPECT_GE(first, msec(36));
  EXPECT_LT(second, msec(14));
  EXPECT_EQ(f.count("channels_established"), 1u);
}

TEST(DnsResolver, DoQCheaperChannelThanDoH) {
  Fixture f1, f2;
  auto doq = f1.make(DnsTransport::DoQ);
  auto doh = f2.make(DnsTransport::DoH);
  Fixture* fs[2] = {&f1, &f2};
  Resolver* rs[2] = {&doq, &doh};
  Duration d[2];
  for (int i = 0; i < 2; ++i) d[i] = fs[i]->resolve_once(*rs[i], "a.example");
  EXPECT_LT(d[0], d[1]);  // 1-RTT QUIC channel vs 2-RTT TCP+TLS
}

TEST(DnsResolver, DoQResumesAtZeroRtt) {
  Fixture f;
  auto doq = f.make(DnsTransport::DoQ);
  const auto cold = f.resolve_once(doq, "a.example");
  doq.drop_channel();
  const auto resumed = f.resolve_once(doq, "b.example");
  EXPECT_LT(resumed, cold);  // 0-RTT channel on resumption
  EXPECT_EQ(f.count("channels_established"), 2u);
}

TEST(DnsResolver, Do53RetriesAfterTimeout) {
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.query_loss_rate = 0.9;  // heavy loss: some retries all but certain
  config.recursive_cache_hit = 1.0;
  Resolver r(f.sim, config, util::Rng(3));
  const auto d = f.resolve_once(r, "a.example");
  EXPECT_GE(d, config.udp_timeout);  // at least one 400ms retry with seed 3
  EXPECT_GT(f.count("retries"), 0u);
}

TEST(DnsResolver, RecursiveMissAddsAuthoritativeWork) {
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 0.0;  // always walk the authoritative chain
  Resolver r(f.sim, config, util::Rng(5));
  const auto d = f.resolve_once(r, "a.example");
  EXPECT_GT(d, msec(14));
}

TEST(DnsResolver, NegativeCacheExpiryForcesRequery) {
  // RFC 2308: once the cached empty-AAAA answer expires, a repeat visit must
  // re-query even though the positive record (ttl 300s) is still valid.
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 1.0;  // every name lacks an AAAA record
  config.negative_ttl = sec(5);
  Resolver r(f.sim, config, util::Rng(7));
  EXPECT_GT(f.resolve_once(r, "a.example"), Duration::zero());
  // Within the negative TTL: still a free stub hit.
  EXPECT_EQ(f.resolve_once(r, "a.example"), Duration::zero());
  EXPECT_EQ(f.count("negative_expiries"), 0u);
  // Past the negative TTL, before the positive one: pays the network again.
  f.sim.schedule_in(sec(10), [] {});
  f.sim.run();
  EXPECT_GT(f.resolve_once(r, "a.example"), Duration::zero());
  EXPECT_EQ(f.count("negative_expiries"), 1u);
}

TEST(DnsResolver, FullyPositiveNamesNeverExpireNegatively) {
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 0.0;
  config.negative_ttl = sec(1);
  Resolver r(f.sim, config, util::Rng(7));
  f.resolve_once(r, "a.example");
  f.sim.schedule_in(sec(100), [] {});
  f.sim.run();
  EXPECT_EQ(f.resolve_once(r, "a.example"), Duration::zero());
  EXPECT_EQ(f.count("negative_expiries"), 0u);
}

TEST(DnsResolver, PrewarmRespectsStillValidNegativeState) {
  // Prewarm must not clobber a record whose negative component has not
  // expired (the warm visit should not hide the later re-query either).
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 1.0;
  config.negative_ttl = sec(5);
  Resolver r(f.sim, config, util::Rng(7));
  f.resolve_once(r, "a.example");
  f.sim.schedule_in(sec(10), [] {});
  f.sim.run();
  r.prewarm("a.example");  // re-inserts: negative clock restarts at 10s
  EXPECT_EQ(f.resolve_once(r, "a.example"), Duration::zero());
  f.sim.schedule_in(sec(10), [] {});
  f.sim.run();
  EXPECT_GT(f.resolve_once(r, "a.example"), Duration::zero());
  EXPECT_EQ(f.count("negative_expiries"), 1u);
}

// --- DNS failover: multi-record answers with per-record health ---------------

TEST(DnsFailover, ReportFailureRotatesPreferredAndCooldownRecovers) {
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 0.0;
  config.addresses_per_record = 2;
  config.health_cooldown = sec(5);
  Resolver r(f.sim, config, util::Rng(7));
  f.resolve_once(r, "cdn.example");
  EXPECT_EQ(r.preferred_address("cdn.example", f.sim.now()), 0u);

  // Record 0's front end fails at t=0: demoted, dials rotate to record 1.
  r.report_failure("cdn.example", TimePoint{0});
  EXPECT_EQ(r.preferred_address("cdn.example", TimePoint{0}), 1u);
  EXPECT_EQ(f.count("failover.reports"), 1u);
  EXPECT_EQ(f.count("failover.switches"), 1u);

  // Record 1 fails at t=2s: every address is cooling down, so dials move to
  // the one recovering soonest (record 0, healthy again at 5s vs 7s).
  r.report_failure("cdn.example", TimePoint{sec(2)});
  EXPECT_EQ(f.count("failover.reports"), 2u);
  EXPECT_EQ(f.count("failover.switches"), 2u);
  EXPECT_EQ(r.preferred_address("cdn.example", TimePoint{sec(3)}), 0u);

  // Past its cooldown, record 0 is healthy and sticky again.
  EXPECT_EQ(r.preferred_address("cdn.example", TimePoint{sec(6)}), 0u);
}

TEST(DnsFailover, SingleAddressRecordsNeverRotate) {
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 0.0;
  Resolver r(f.sim, config, util::Rng(7));  // addresses_per_record = 1 default
  f.resolve_once(r, "cdn.example");
  r.report_failure("cdn.example", TimePoint{0});
  EXPECT_EQ(r.preferred_address("cdn.example", TimePoint{0}), 0u);
  EXPECT_EQ(f.count("failover.reports"), 0u);  // no-op on single-address names
  EXPECT_EQ(f.count("failover.switches"), 0u);
  // Unknown names are a no-op too.
  r.report_failure("never.resolved", TimePoint{0});
  EXPECT_EQ(r.preferred_address("never.resolved", TimePoint{0}), 0u);
}

TEST(DnsFailover, NegativeExpiryRequeryResetsRecordHealth) {
  // RFC 2308 x failover: the re-query forced by negative-cache expiry
  // rebuilds the record, and a fresh answer carries no memory of the
  // previous resolution's failures — preferred returns to record 0 with
  // every address healthy.
  Fixture f;
  ResolverConfig config;
  config.transport = DnsTransport::Do53;
  config.recursive_cache_hit = 1.0;
  config.ipv6_absent_fraction = 1.0;  // every name lacks an AAAA record
  config.negative_ttl = sec(5);
  config.record_ttl = sec(300);  // positive record stays valid throughout
  config.addresses_per_record = 2;
  config.health_cooldown = sec(600);  // would pin record 1 forever without requery
  Resolver r(f.sim, config, util::Rng(7));
  f.resolve_once(r, "cdn.example");
  r.report_failure("cdn.example", f.sim.now());
  EXPECT_EQ(r.preferred_address("cdn.example", f.sim.now()), 1u);

  // Past the negative TTL the next resolve re-queries (the positive record
  // is still valid) and replaces the answer wholesale.
  f.sim.schedule_in(sec(10), [] {});
  f.sim.run();
  EXPECT_GT(f.resolve_once(r, "cdn.example"), Duration::zero());
  EXPECT_EQ(f.count("negative_expiries"), 1u);
  EXPECT_EQ(r.preferred_address("cdn.example", f.sim.now()), 0u)
      << "a fresh answer must reset per-record health";
}

TEST(DnsResolver, TransportNames) {
  EXPECT_STREQ(to_string(DnsTransport::Do53), "Do53");
  EXPECT_STREQ(to_string(DnsTransport::DoQ), "DoQ");
}

}  // namespace
}  // namespace h3cdn::dns
