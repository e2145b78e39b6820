// Graceful-degradation tests: connection death detection (handshake-retry
// exhaustion, blackhole RTOs), session orphan evacuation, and the pool's
// H3 -> H2 fallback with Alt-Svc-style brokenness marking and re-probe.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/environment.h"
#include "core/resilience.h"
#include "http/pool.h"
#include "net/fault.h"
#include "net/path.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "sim/simulator.h"
#include "transport/connection.h"
#include "web/workload.h"

namespace h3cdn {
namespace {

using http::EntryTimings;
using http::HttpVersion;
using tls::HandshakeMode;
using tls::TlsVersion;
using tls::TransportKind;

// --- Connection-level death detection ---------------------------------------

TEST(ConnectionDeath2, HandshakeRetryExhaustionKillsTheConnection) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, /*loss=*/1.0, usec(0)}, util::Rng(42));
  transport::TransportConfig config;
  config.domain = "dead.example";
  config.handshake_timeout = msec(100);
  config.max_handshake_retries = 3;
  obs::TraceLog log;
  auto conn = transport::Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                            HandshakeMode::Fresh, util::Rng(7), config);
  conn->set_trace(log.open("dead.example"));
  bool ready = false;
  transport::ConnectionError death = transport::ConnectionError::None;
  TimePoint died_at{-1};
  conn->set_on_dead([&](transport::ConnectionError e, TimePoint t) {
    death = e;
    died_at = t;
  });
  conn->connect([&](TimePoint) { ready = true; });
  sim.run();

  EXPECT_FALSE(ready);
  EXPECT_TRUE(conn->dead());
  EXPECT_TRUE(conn->closed());
  EXPECT_EQ(conn->error(), transport::ConnectionError::HandshakeTimeout);
  EXPECT_EQ(death, transport::ConnectionError::HandshakeTimeout);
  EXPECT_EQ(conn->stats().handshake_retries, 3);
  // Doubling timer: retries at 100/300/700 ms, the give-up check at 1500 ms.
  EXPECT_EQ(died_at, msec(1500));

  int retry_events = 0;
  int abort_events = 0;
  for (const auto& e : log.tracks().front().events) {
    if (e.type == obs::TraceEventType::HandshakeRetry) {
      ++retry_events;
      EXPECT_EQ(e.fault, obs::FaultKind::HandshakeTimeout);
    }
    if (e.type == obs::TraceEventType::ConnectionAborted) {
      ++abort_events;
      EXPECT_EQ(e.fault, obs::FaultKind::HandshakeTimeout);
    }
  }
  EXPECT_EQ(retry_events, 3);
  EXPECT_EQ(abort_events, 1);
}

TEST(ConnectionDeath2, RetryCapDisabledMeansNoDeath) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 1.0, usec(0)}, util::Rng(42));
  transport::TransportConfig config;
  config.handshake_timeout = msec(100);
  config.max_handshake_retries = 0;  // disabled: retry forever
  auto conn = transport::Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                            HandshakeMode::Fresh, util::Rng(7), config);
  conn->connect([](TimePoint) {});
  sim.run_until(sec(60));
  EXPECT_FALSE(conn->dead());
  EXPECT_GT(conn->stats().handshake_retries, 3);
  conn->close();
}

TEST(ConnectionDeath2, MidTransferBlackholeTripsTheRtoDetector) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(42));
  // Everything dies from 50 ms on: the response stream is mid-flight.
  path.add_outage(net::Outage{msec(50), sec(600), net::OutageKind::UdpBlackhole});
  transport::TransportConfig config;
  config.domain = "hole.example";
  auto conn = transport::Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                            HandshakeMode::Fresh, util::Rng(7), config);
  transport::ConnectionError death = transport::ConnectionError::None;
  conn->set_on_dead([&](transport::ConnectionError e, TimePoint) { death = e; });
  bool complete = false;
  transport::FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { complete = true; };
  conn->connect([](TimePoint) {});
  conn->fetch(500, 500'000, msec(1), std::move(cbs));
  sim.run();

  EXPECT_FALSE(complete);
  EXPECT_EQ(death, transport::ConnectionError::Blackhole);
  EXPECT_EQ(conn->error(), transport::ConnectionError::Blackhole);
  // The detector needs exactly `blackhole_rto_threshold` consecutive fires.
  EXPECT_GE(conn->stats().rto_fires, static_cast<std::uint64_t>(config.blackhole_rto_threshold));
}

TEST(ConnectionDeath2, LossySurvivableTransferDoesNotTripTheDetector) {
  // 5% loss hurts but ACKs keep arriving, so consecutive_rtos keeps resetting.
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.05, usec(0)}, util::Rng(42));
  auto conn = transport::Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                            HandshakeMode::Fresh, util::Rng(7), {});
  bool complete = false;
  transport::FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { complete = true; };
  conn->connect([](TimePoint) {});
  conn->fetch(500, 300'000, msec(1), std::move(cbs));
  sim.run();
  EXPECT_TRUE(complete);
  EXPECT_FALSE(conn->dead());
}

// --- Session orphan evacuation ----------------------------------------------

TEST(SessionDeath, EvacuatesQueuedAndInFlightEntriesOnce) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 1.0, usec(0)}, util::Rng(42));
  transport::TransportConfig config;
  config.handshake_timeout = msec(100);
  config.max_handshake_retries = 2;
  auto conn = transport::Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                            HandshakeMode::Fresh, util::Rng(7), config);
  auto session = http::Session::create(sim, conn, HttpVersion::H3);

  int death_calls = 0;
  std::vector<http::Session::Orphan> rescued;
  session->set_on_dead(
      [&](transport::ConnectionError error, std::vector<http::Session::Orphan> orphans) {
        ++death_calls;
        EXPECT_EQ(error, transport::ConnectionError::HandshakeTimeout);
        rescued = std::move(orphans);
      });
  session->start();
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    http::Request r;
    r.domain = "dead.example";
    r.path = "/r" + std::to_string(i);
    r.response_bytes = 10'000;
    session->submit(r, [&](const EntryTimings&) { ++completions; });
  }
  sim.run();

  EXPECT_EQ(death_calls, 1);
  EXPECT_TRUE(session->dead());
  EXPECT_TRUE(session->closed());
  EXPECT_EQ(completions, 0);  // the session never completes orphans itself
  ASSERT_EQ(rescued.size(), 3u);
  for (const auto& orphan : rescued) {
    EXPECT_EQ(orphan.submitted, TimePoint{0});
    EXPECT_EQ(orphan.attempts, 1);  // dispatched once onto the dead transport
    EXPECT_NE(orphan.done, nullptr);
  }
  EXPECT_EQ(session->in_flight(), 0u);
  EXPECT_EQ(session->queued(), 0u);
}

// --- Pool-level graceful degradation ----------------------------------------

struct PoolFixture {
  sim::Simulator sim;
  // Every pool event of the fixture's lifetime counts into `metrics`.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope{&metrics};
  std::map<std::string, std::unique_ptr<net::NetPath>> paths;
  std::map<std::string, http::OriginInfo> origins;

  std::uint64_t count(const std::string& name) { return metrics.counter(name).value(); }

  void add_origin(const std::string& domain, bool h3) {
    auto path = std::make_unique<net::NetPath>(
        sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(paths.size() + 1));
    http::OriginInfo info;
    info.path = path.get();
    info.supports_h3 = h3;
    origins[domain] = info;
    paths[domain] = std::move(path);
  }

  http::Resolver resolver() {
    return [this](const std::string& domain) { return origins.at(domain); };
  }

  http::Request request(const std::string& domain, std::size_t bytes = 100'000) {
    http::Request r;
    r.domain = domain;
    r.path = "/r";
    r.response_bytes = bytes;
    r.server_think = msec(2);
    return r;
  }
};

TEST(PoolFallback, MidTransferUdpBlackholeRescuesEveryRequestOverH2) {
  PoolFixture f;
  f.add_origin("cdn.example", /*h3=*/true);
  // The H3 handshake (~20 ms) succeeds; the response bodies are mid-flight
  // when QUIC stops passing. TCP keeps working: the classic middlebox
  // failure Chrome's fallback exists for.
  f.paths["cdn.example"]->add_outage(
      net::Outage{msec(40), sec(600), net::OutageKind::UdpBlackhole});

  obs::TraceLog log;
  http::PoolConfig config;
  config.h3_enabled = true;
  config.trace_bus = log.open("run/pool");
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  const int n = 6;
  std::vector<EntryTimings> done;
  for (int i = 0; i < n; ++i) {
    pool.fetch(f.request("cdn.example"), [&](const EntryTimings& t) { done.push_back(t); });
  }
  f.sim.run();

  // The headline guarantee: ZERO failed page-load entries.
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  for (const auto& t : done) {
    EXPECT_FALSE(t.failed);
    EXPECT_EQ(t.version, HttpVersion::H2);  // all rescued past the blackhole
    EXPECT_EQ(t.started, TimePoint{0});     // original submission time kept
    EXPECT_GT(t.finished, msec(40));
  }

  const http::PoolStats& s = pool.stats();
  EXPECT_EQ(s.connection_deaths, 1u);
  EXPECT_EQ(s.h3_fallbacks, 1u);
  EXPECT_EQ(f.count("http.pool.h3_fallbacks"), 1u);  // each fallback marks H3 broken
  EXPECT_EQ(s.requests_rescued, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.requests_failed, 0u);
  EXPECT_TRUE(pool.h3_broken("cdn.example"));

  int fallback_events = 0;
  int broken_events = 0;
  for (const auto& e : log.tracks().front().events) {
    if (e.type == obs::TraceEventType::FallbackTriggered) ++fallback_events;
    if (e.type == obs::TraceEventType::H3BrokenMarked) ++broken_events;
  }
  EXPECT_EQ(fallback_events, n);
  EXPECT_EQ(broken_events, 1);

  // While the mark holds, new requests route straight to H2 (no H3 dial).
  EntryTimings late;
  pool.fetch(f.request("cdn.example", 1'000), [&](const EntryTimings& t) { late = t; });
  f.sim.run();
  EXPECT_EQ(late.version, HttpVersion::H2);
  EXPECT_FALSE(late.failed);
  EXPECT_EQ(f.count("http.pool.connections.h3"), 1u);  // still just the dead one
}

TEST(PoolFallback, RetryBudgetExhaustionCompletesEntriesAsFailed) {
  PoolFixture f;
  f.add_origin("cdn.example", /*h3=*/true);
  f.paths["cdn.example"]->add_outage(
      net::Outage{msec(40), sec(600), net::OutageKind::UdpBlackhole});

  http::PoolConfig config;
  config.h3_enabled = true;
  config.max_request_retries = 1;  // one dispatch is all you get
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  std::vector<EntryTimings> done;
  for (int i = 0; i < 4; ++i) {
    pool.fetch(f.request("cdn.example"), [&](const EntryTimings& t) { done.push_back(t); });
  }
  f.sim.run();

  // Every entry still completes — with failed set, so the page finishes.
  ASSERT_EQ(done.size(), 4u);
  for (const auto& t : done) {
    EXPECT_TRUE(t.failed);
    EXPECT_EQ(t.started, TimePoint{0});
    EXPECT_GT(t.finished, TimePoint{0});
  }
  EXPECT_EQ(pool.stats().requests_failed, 4u);
  EXPECT_EQ(pool.stats().requests_rescued, 0u);
}

TEST(PoolFallback, BrokenMarkExpiryTriggersH3ReProbe) {
  PoolFixture f;
  f.add_origin("cdn.example", /*h3=*/true);
  // Blackhole covers the first dial's handshake, then the network heals.
  f.paths["cdn.example"]->add_outage(
      net::Outage{TimePoint{0}, sec(1), net::OutageKind::UdpBlackhole});

  http::PoolConfig config;
  config.h3_enabled = true;
  config.h3_broken_ttl = msec(500);
  config.transport.handshake_timeout = msec(50);
  config.transport.max_handshake_retries = 2;  // dead at 50+100+200 = 350 ms
  obs::TraceLog log;
  config.trace_bus = log.open("run/pool");
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  EntryTimings first;
  pool.fetch(f.request("cdn.example", 5'000), [&](const EntryTimings& t) { first = t; });
  // Mark active at ~350+500=850 ms; by 2 s it has expired and the outage is
  // over, so this dial is the re-probe and must succeed over H3.
  EntryTimings second;
  f.sim.schedule_at(sec(2), [&] {
    pool.fetch(f.request("cdn.example", 5'000), [&](const EntryTimings& t) { second = t; });
  });
  f.sim.run();

  EXPECT_FALSE(first.failed);
  EXPECT_EQ(first.version, HttpVersion::H2);  // rescued from the dead H3 dial
  EXPECT_FALSE(second.failed);
  EXPECT_EQ(second.version, HttpVersion::H3);  // re-probe back on H3
  EXPECT_EQ(f.count("http.pool.h3_reprobes"), 1u);
  EXPECT_EQ(f.count("http.pool.connections.h3"), 2u);
  EXPECT_FALSE(pool.h3_broken("cdn.example"));
  int reprobe_events = 0;
  for (const auto& e : log.tracks().front().events) {
    if (e.type == obs::TraceEventType::H3ReProbe) ++reprobe_events;
  }
  EXPECT_EQ(reprobe_events, 1);
}

TEST(PoolFallback, DisabledFallbackAbandonsNoEntriesButKeepsH3Routing) {
  // With fallback off a dead H3 session still evacuates orphans; they retry
  // on a fresh H3 dial (same protocol), which also dies, until the budget
  // fails them. No hangs either way.
  PoolFixture f;
  f.add_origin("cdn.example", /*h3=*/true);
  f.paths["cdn.example"]->add_outage(
      net::Outage{msec(40), sec(6000), net::OutageKind::UdpBlackhole});

  http::PoolConfig config;
  config.h3_enabled = true;
  config.h3_fallback_enabled = false;
  config.transport.handshake_timeout = msec(50);
  config.transport.max_handshake_retries = 2;
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  std::vector<EntryTimings> done;
  for (int i = 0; i < 3; ++i) {
    pool.fetch(f.request("cdn.example"), [&](const EntryTimings& t) { done.push_back(t); });
  }
  f.sim.run();

  ASSERT_EQ(done.size(), 3u);
  for (const auto& t : done) EXPECT_TRUE(t.failed);
  EXPECT_EQ(pool.stats().h3_fallbacks, 0u);
  EXPECT_GE(f.count("http.pool.connections.h3"), 2u);  // it kept trying H3
  EXPECT_FALSE(pool.h3_broken("cdn.example"));
}

// --- Refusal bursts: capacity pushback is not a protocol failure -------------

TEST(PoolFallback, RefusedBurstNeverMarksPoolH3Broken) {
  // Regression guard: a burst of admission refusals (edge at capacity) must
  // keep retrying on H3 after backoff — never mark the host H3-broken or
  // degrade to H2. Refused is "busy", not "broken" (docs/RESILIENCE.md).
  PoolFixture f;
  f.add_origin("edge.example", /*h3=*/true);
  int refusals_left = 3;
  f.origins["edge.example"].handshake_admission =
      [&](TimePoint, TransportKind, HandshakeMode) -> std::optional<Duration> {
    if (refusals_left > 0) {
      --refusals_left;
      return std::nullopt;  // CONNECTION_REFUSED analogue
    }
    return Duration::zero();  // admitted, no queueing delay
  };

  http::PoolConfig config;
  config.h3_enabled = true;
  config.max_request_retries = 8;  // refusal backoff needs attempts to spend
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  std::vector<EntryTimings> done;
  for (int i = 0; i < 4; ++i) {
    pool.fetch(f.request("edge.example"), [&](const EntryTimings& t) { done.push_back(t); });
  }
  f.sim.run();

  ASSERT_EQ(done.size(), 4u);
  for (const auto& t : done) {
    EXPECT_FALSE(t.failed);
    EXPECT_EQ(t.version, HttpVersion::H3) << "refusals must retry on the SAME protocol";
  }
  EXPECT_FALSE(pool.h3_broken("edge.example"));
  const http::PoolStats& s = pool.stats();
  EXPECT_EQ(f.count("http.pool.h3_fallbacks"), 0u);  // each fallback marks H3 broken
  EXPECT_EQ(s.h3_fallbacks, 0u);
  EXPECT_EQ(s.connections_refused, 3u);  // one per scripted refusal
  EXPECT_GT(s.refusal_retries, 0u);
  EXPECT_EQ(s.requests_failed, 0u);
}

TEST(PoolFallback, RefusalsStayOutOfBreakerAndDnsHealth) {
  // With the resilience engine on, refusals are also excluded from the
  // per-edge circuit breaker and from DNS failover health reports.
  PoolFixture f;
  f.add_origin("edge.example", /*h3=*/true);
  int refusals_left = 2;  // within the engine's default 4-attempt budget
  f.origins["edge.example"].handshake_admission =
      [&](TimePoint, TransportKind, HandshakeMode) -> std::optional<Duration> {
    if (refusals_left > 0) {
      --refusals_left;
      return std::nullopt;
    }
    return Duration::zero();
  };
  int failover_reports = 0;
  f.origins["edge.example"].connection_failed = [&](TimePoint) { ++failover_reports; };

  resilience::Options opts;
  opts.enabled = true;
  opts.breaker.min_samples = 2;  // would trip fast IF refusals were counted
  resilience::Engine engine(opts);
  http::PoolConfig config;
  config.h3_enabled = true;
  config.resilience = &engine;
  http::ConnectionPool pool(f.sim, config, f.resolver(), nullptr, util::Rng(77));

  std::vector<EntryTimings> done;
  for (int i = 0; i < 4; ++i) {
    pool.fetch(f.request("edge.example"), [&](const EntryTimings& t) { done.push_back(t); });
  }
  f.sim.run();

  ASSERT_EQ(done.size(), 4u);
  for (const auto& t : done) EXPECT_FALSE(t.failed);
  EXPECT_EQ(failover_reports, 0) << "a refusal is not a path failure";
  EXPECT_EQ(engine.breakers().get("edge.example", "h3").state(),
            resilience::BreakerState::Closed);
  EXPECT_EQ(engine.breakers().total_transitions().opened, 0u);
  EXPECT_EQ(f.count("http.pool.h3_fallbacks"), 0u);  // each fallback marks H3 broken
  EXPECT_FALSE(pool.h3_broken("edge.example"));
}

// --- Browser-level: zero failed page loads through an outage ----------------

TEST(BrowserFallback, PageCompletesWithZeroFailedLoadsThroughUdpBlackhole) {
  web::WorkloadConfig wc;
  wc.site_count = 3;
  const web::Workload workload = web::generate_workload(wc);
  const web::WebPage& page = workload.sites[0].page;

  // Each load counts into its own registry.
  auto load_page = [&](bool with_outage, obs::MetricsRegistry& metrics) {
    obs::ScopedMetrics scope(&metrics);
    sim::Simulator sim;
    browser::VantageConfig vantage;
    if (with_outage) {
      // Opens just after the first H3 handshakes succeed and never lifts:
      // every H3 connection must degrade for the page to finish.
      vantage.fault_profile.outages.push_back(
          net::Outage{msec(50), sec(600), net::OutageKind::UdpBlackhole});
    }
    util::Rng rng(util::derive_seed({1234}));
    browser::Environment env(sim, workload.universe, vantage, rng.fork("env"));
    env.warm_page(page);
    browser::BrowserConfig bc;
    bc.h3_enabled = true;
    // Tight resilience knobs so dead dials give up in well under a second.
    bc.transport.handshake_timeout = msec(100);
    bc.transport.max_handshake_retries = 3;
    bc.transport.blackhole_rto_threshold = 4;
    browser::Browser browser(sim, env, nullptr, bc, rng.fork("browser"));
    return browser.visit_and_run(page);
  };

  obs::MetricsRegistry clean_metrics;
  const browser::PageLoadResult clean = load_page(false, clean_metrics);
  ASSERT_GE(clean_metrics.counter("http.pool.connections.h3").value(), 1u)
      << "site 0 must exercise H3 for this test to be meaningful";

  obs::MetricsRegistry faulted_metrics;
  const browser::PageLoadResult faulted = load_page(true, faulted_metrics);
  // The headline acceptance criterion: the outage causes ZERO failed loads;
  // every entry completes, the affected ones transparently over H2.
  EXPECT_EQ(faulted.har.failed_entry_count(), 0u);
  EXPECT_EQ(faulted.har.entries.size(), clean.har.entries.size());
  EXPECT_GE(faulted.pool_stats.h3_fallbacks, 1u);
  EXPECT_GE(faulted.pool_stats.requests_rescued, 1u);
  EXPECT_EQ(faulted.pool_stats.requests_failed, 0u);
  EXPECT_EQ(faulted.har.h3_fallbacks, faulted.pool_stats.h3_fallbacks);
  // Recovery costs time; the faulted load cannot beat the clean one.
  EXPECT_GE(faulted.har.page_load_time, clean.har.page_load_time);
}

// --- Resilience experiment: deterministic replay -----------------------------

TEST(Resilience, IdenticalConfigsReplayByteIdenticalResults) {
  auto run_once = [] {
    core::ResilienceConfig config;
    config.sites = 2;
    config.workload.site_count = 2;
    config.loss_rates = {0.01};
    config.outage_durations = {msec(300)};
    return core::run_resilience(config);
  };
  const core::ResilienceResult a = run_once();
  const core::ResilienceResult b = run_once();

  ASSERT_EQ(a.loss_rows.size(), 2u);  // one rate x {iid, bursty}
  ASSERT_EQ(a.loss_rows.size(), b.loss_rows.size());
  for (std::size_t i = 0; i < a.loss_rows.size(); ++i) {
    EXPECT_EQ(a.loss_rows[i].bursty, b.loss_rows[i].bursty);
    EXPECT_EQ(a.loss_rows[i].h2_mean_plt_ms, b.loss_rows[i].h2_mean_plt_ms);
    EXPECT_EQ(a.loss_rows[i].h2_p95_plt_ms, b.loss_rows[i].h2_p95_plt_ms);
    EXPECT_EQ(a.loss_rows[i].h3_mean_plt_ms, b.loss_rows[i].h3_mean_plt_ms);
    EXPECT_EQ(a.loss_rows[i].h3_p95_plt_ms, b.loss_rows[i].h3_p95_plt_ms);
    EXPECT_GT(a.loss_rows[i].h2_mean_plt_ms, 0.0);
  }
  ASSERT_EQ(a.outage_rows.size(), 1u);
  ASSERT_EQ(b.outage_rows.size(), 1u);
  EXPECT_EQ(a.outage_rows[0].connection_deaths, b.outage_rows[0].connection_deaths);
  EXPECT_EQ(a.outage_rows[0].h3_fallbacks, b.outage_rows[0].h3_fallbacks);
  EXPECT_EQ(a.outage_rows[0].requests_rescued, b.outage_rows[0].requests_rescued);
  EXPECT_EQ(a.outage_rows[0].requests_failed, b.outage_rows[0].requests_failed);
  EXPECT_EQ(a.outage_rows[0].mean_recovery_ms, b.outage_rows[0].mean_recovery_ms);
  EXPECT_EQ(a.outage_rows[0].p95_recovery_ms, b.outage_rows[0].p95_recovery_ms);
  EXPECT_EQ(a.outage_rows[0].requests_failed, 0u);  // graceful degradation held
}

}  // namespace
}  // namespace h3cdn
