#include "http/pool.h"

#include <gtest/gtest.h>

#include <map>

#include "net/path.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace h3cdn::http {
namespace {

struct Fixture {
  sim::Simulator sim;
  // Every pool event of the fixture's lifetime counts into `metrics`.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope{&metrics};
  std::map<std::string, std::unique_ptr<net::NetPath>> paths;
  std::map<std::string, OriginInfo> origins;
  tls::SessionTicketStore tickets;

  void add_origin(const std::string& domain, bool h3, bool h2 = true,
                  const std::string& coalesce_key = "",
                  tls::TlsVersion tls_version = tls::TlsVersion::Tls13) {
    auto path = std::make_unique<net::NetPath>(
        sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(paths.size() + 1));
    OriginInfo info;
    info.path = path.get();
    info.supports_h3 = h3;
    info.supports_h2 = h2;
    info.coalesce_key = coalesce_key;
    info.tls_version = tls_version;
    origins[domain] = info;
    paths[domain] = std::move(path);
  }

  Resolver resolver() {
    return [this](const std::string& domain) { return origins.at(domain); };
  }

  ConnectionPool make_pool(bool h3_enabled, tls::SessionTicketStore* store = nullptr) {
    PoolConfig config;
    config.h3_enabled = h3_enabled;
    return ConnectionPool(sim, config, resolver(), store, util::Rng(77));
  }

  std::uint64_t count(const std::string& name) { return metrics.counter(name).value(); }

  Request request(const std::string& domain, std::size_t bytes = 10'000) {
    Request r;
    r.domain = domain;
    r.path = "/r";
    r.response_bytes = bytes;
    r.server_think = msec(4);
    return r;
  }
};

TEST(Pool, RoutesH3WhenEnabledAndSupported) {
  Fixture f;
  f.add_origin("a.example", /*h3=*/true);
  auto pool = f.make_pool(true);
  EntryTimings out;
  pool.fetch(f.request("a.example"), [&](const EntryTimings& t) { out = t; });
  f.sim.run();
  EXPECT_EQ(out.version, HttpVersion::H3);
  EXPECT_EQ(f.count("http.pool.connections.h3"), 1u);
}

TEST(Pool, FallsBackToH2WhenBrowserDisablesQuic) {
  Fixture f;
  f.add_origin("a.example", /*h3=*/true);
  auto pool = f.make_pool(false);
  EntryTimings out;
  pool.fetch(f.request("a.example"), [&](const EntryTimings& t) { out = t; });
  f.sim.run();
  EXPECT_EQ(out.version, HttpVersion::H2);
}

TEST(Pool, FallsBackToH2WhenOriginLacksH3) {
  Fixture f;
  f.add_origin("a.example", /*h3=*/false);
  auto pool = f.make_pool(true);
  EntryTimings out;
  pool.fetch(f.request("a.example"), [&](const EntryTimings& t) { out = t; });
  f.sim.run();
  EXPECT_EQ(out.version, HttpVersion::H2);
}

TEST(Pool, LegacyOriginUsesH1) {
  Fixture f;
  f.add_origin("old.example", /*h3=*/false, /*h2=*/false);
  auto pool = f.make_pool(true);
  EntryTimings out;
  pool.fetch(f.request("old.example"), [&](const EntryTimings& t) { out = t; });
  f.sim.run();
  EXPECT_EQ(out.version, HttpVersion::H1_1);
  EXPECT_EQ(f.count("http.pool.connections.h1"), 1u);
}

TEST(Pool, H1OpensUpToSixParallelConnections) {
  Fixture f;
  f.add_origin("old.example", false, false);
  auto pool = f.make_pool(true);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    pool.fetch(f.request("old.example"), [&](const EntryTimings&) { ++done; });
  }
  EXPECT_EQ(f.count("http.pool.connections.h1"), 6u);
  f.sim.run();
  EXPECT_EQ(done, 10);
}

TEST(Pool, H1ReusesIdleKeepAliveConnection) {
  Fixture f;
  f.add_origin("old.example", false, false);
  auto pool = f.make_pool(true);
  bool first_done = false;
  pool.fetch(f.request("old.example"), [&](const EntryTimings&) { first_done = true; });
  f.sim.run();
  ASSERT_TRUE(first_done);
  EntryTimings second;
  pool.fetch(f.request("old.example"), [&](const EntryTimings& t) { second = t; });
  f.sim.run();
  EXPECT_EQ(f.count("http.pool.connections.h1"), 1u);
  EXPECT_TRUE(second.reused_connection);
}

TEST(Pool, OneH2ConnectionPerOrigin) {
  Fixture f;
  f.add_origin("a.example", false);
  auto pool = f.make_pool(true);
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    pool.fetch(f.request("a.example"), [&](const EntryTimings&) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 12);
  EXPECT_EQ(pool.stats().connections_created, 1u);
}

TEST(Pool, CoalescingSharesOneH2ConnectionAcrossDomains) {
  Fixture f;
  f.add_origin("a.cdn.example", false, true, "h2-coalesce:prov");
  f.add_origin("b.cdn.example", false, true, "h2-coalesce:prov");
  auto pool = f.make_pool(true);
  std::vector<EntryTimings> out;
  pool.fetch(f.request("a.cdn.example"), [&](const EntryTimings& t) { out.push_back(t); });
  pool.fetch(f.request("b.cdn.example"), [&](const EntryTimings& t) { out.push_back(t); });
  f.sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(pool.stats().connections_created, 1u);
  EXPECT_EQ(out[0].new_connection_initiator + out[1].new_connection_initiator, 1);
}

TEST(Pool, H3NeverCoalesces) {
  Fixture f;
  f.add_origin("a.cdn.example", true, true, "h2-coalesce:prov");
  f.add_origin("b.cdn.example", true, true, "h2-coalesce:prov");
  auto pool = f.make_pool(true);
  int done = 0;
  pool.fetch(f.request("a.cdn.example"), [&](const EntryTimings&) { ++done; });
  pool.fetch(f.request("b.cdn.example"), [&](const EntryTimings&) { ++done; });
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.count("http.pool.connections.h3"), 2u);
}

TEST(Pool, ReuseDilution) {
  // The paper's §VI-C mechanism end to end: with partial H3 adoption, the
  // H3-enabled browser splits a provider's domains across H3 and coalesced-H2
  // connections, creating MORE connections (fewer reused entries) than the
  // H2-only browser, which funnels everything into one coalesced connection.
  for (bool h3_enabled : {false, true}) {
    Fixture f;
    f.add_origin("h3a.cdn.example", true, true, "h2-coalesce:prov");
    f.add_origin("h3b.cdn.example", true, true, "h2-coalesce:prov");
    f.add_origin("h2only.cdn.example", false, true, "h2-coalesce:prov");
    auto pool = f.make_pool(h3_enabled);
    int done = 0;
    for (const char* d : {"h3a.cdn.example", "h3b.cdn.example", "h2only.cdn.example"}) {
      for (int i = 0; i < 4; ++i) pool.fetch(f.request(d), [&](const EntryTimings&) { ++done; });
    }
    f.sim.run();
    EXPECT_EQ(done, 12);
    if (h3_enabled) {
      EXPECT_EQ(pool.stats().connections_created, 3u);  // 2 QUIC + 1 coalesced H2
    } else {
      EXPECT_EQ(pool.stats().connections_created, 1u);  // everything coalesced
    }
  }
}

TEST(Pool, TicketsDriveResumption) {
  Fixture f;
  f.add_origin("a.example", true);
  {
    auto pool = f.make_pool(true, &f.tickets);
    bool done = false;
    pool.fetch(f.request("a.example"), [&](const EntryTimings&) { done = true; });
    f.sim.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(pool.stats().resumed_connections, 0u);
    pool.close_all();
  }
  EXPECT_EQ(f.tickets.size(), 1u);
  {
    auto pool = f.make_pool(true, &f.tickets);
    EntryTimings out;
    pool.fetch(f.request("a.example"), [&](const EntryTimings& t) { out = t; });
    f.sim.run();
    EXPECT_EQ(pool.stats().resumed_connections, 1u);
    EXPECT_EQ(pool.stats().zero_rtt_connections, 1u);
    EXPECT_TRUE(out.resumed);
    EXPECT_LT(out.connect, msec(1));
  }
}

TEST(Pool, H2ResumptionStillPaysRtts) {
  Fixture f;
  f.add_origin("a.example", false);
  {
    auto pool = f.make_pool(false, &f.tickets);
    bool done = false;
    pool.fetch(f.request("a.example"), [&](const EntryTimings&) { done = true; });
    f.sim.run();
    ASSERT_TRUE(done);
    pool.close_all();
  }
  auto pool = f.make_pool(false, &f.tickets);
  EntryTimings out;
  pool.fetch(f.request("a.example"), [&](const EntryTimings& t) { out = t; });
  f.sim.run();
  EXPECT_TRUE(out.resumed);
  EXPECT_EQ(out.handshake_mode, tls::HandshakeMode::Resumed);
  // Still 2 RTT (TCP + TLS1.3 PSK without early data) = ~40ms here.
  EXPECT_GT(out.connect, msec(35));
}

TEST(Pool, ThinkTimeHookSeesNegotiatedProtocol) {
  Fixture f;
  f.add_origin("a.example", true);
  PoolConfig config;
  config.h3_enabled = true;
  HttpVersion seen = HttpVersion::H1_1;
  config.think_time = [&](const Request&, HttpVersion v) {
    seen = v;
    return msec(1);
  };
  ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(5));
  bool done = false;
  pool.fetch(f.request("a.example"), [&](const EntryTimings&) { done = true; });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(seen, HttpVersion::H3);
}

TEST(Pool, SessionCountAndCloseAll) {
  Fixture f;
  f.add_origin("a.example", true);
  f.add_origin("b.example", false);
  auto pool = f.make_pool(true);
  pool.fetch(f.request("a.example"), [](const EntryTimings&) {});
  pool.fetch(f.request("b.example"), [](const EntryTimings&) {});
  EXPECT_EQ(pool.session_count(), 2u);
  pool.close_all();
  EXPECT_EQ(pool.session_count(), 0u);
  f.sim.run();  // drains without firing completions
}

}  // namespace
}  // namespace h3cdn::http
