#include "transport/connection.h"

#include <gtest/gtest.h>

#include "net/path.h"
#include "sim/simulator.h"

namespace h3cdn::transport {
namespace {

using tls::HandshakeMode;
using tls::TlsVersion;
using tls::TransportKind;

struct Fixture {
  sim::Simulator sim;
  net::NetPath path;
  explicit Fixture(Duration rtt = msec(20), double loss = 0.0, double bw = 100e6)
      : path(sim, net::PathConfig{rtt, bw, loss, usec(0)}, util::Rng(42)) {}

  std::shared_ptr<Connection> make(TransportKind kind,
                                   TlsVersion version = TlsVersion::Tls13,
                                   HandshakeMode mode = HandshakeMode::Fresh,
                                   TransportConfig config = {}) {
    config.domain = "test.example";
    return Connection::create(sim, path, kind, version, mode, util::Rng(7), config);
  }
};

TEST(Connection, TcpTls13HandshakeTakesTwoRtts) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run();
  // 2 RTT = 40ms plus serialization and compute; well under 3 RTT.
  EXPECT_GE(ready, msec(40));
  EXPECT_LT(ready, msec(60));
  EXPECT_EQ(conn->stats().connect_time, ready);
}

TEST(Connection, TcpTls12HandshakeTakesThreeRtts) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp, TlsVersion::Tls12);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run();
  EXPECT_GE(ready, msec(60));
  EXPECT_LT(ready, msec(80));
}

TEST(Connection, QuicHandshakeTakesOneRtt) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run();
  EXPECT_GE(ready, msec(20));
  EXPECT_LT(ready, msec(40));
}

TEST(Connection, QuicZeroRttReadyImmediately) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic, TlsVersion::Tls13, HandshakeMode::ZeroRtt);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run_until(msec(1));
  EXPECT_GE(ready, TimePoint{0});
  EXPECT_LT(ready, msec(1));
  EXPECT_LT(conn->stats().connect_time, msec(1));
}

TEST(Connection, HandshakeOrderingAcrossProtocols) {
  // The paper's headline: connect(H3) < connect(H2/TLS1.3) < connect(H2/TLS1.2).
  auto connect_time = [](TransportKind kind, TlsVersion version) {
    Fixture f;
    auto conn = f.make(kind, version);
    conn->connect([](TimePoint) {});
    f.sim.run();
    return conn->stats().connect_time;
  };
  const auto h3 = connect_time(TransportKind::Quic, TlsVersion::Tls13);
  const auto h2_13 = connect_time(TransportKind::Tcp, TlsVersion::Tls13);
  const auto h2_12 = connect_time(TransportKind::Tcp, TlsVersion::Tls12);
  EXPECT_LT(h3, h2_13);
  EXPECT_LT(h2_13, h2_12);
}

TEST(Connection, QuicForcesTls13) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic, TlsVersion::Tls12);
  EXPECT_EQ(conn->tls_version(), TlsVersion::Tls13);
}

TEST(Connection, FetchDeliversExactCallbackSequence) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  conn->connect([](TimePoint) {});
  TimePoint sent{-1}, first{-1}, done{-1};
  FetchCallbacks cbs;
  cbs.on_request_sent = [&](TimePoint t) { sent = t; };
  cbs.on_first_byte = [&](TimePoint t) { first = t; };
  cbs.on_complete = [&](TimePoint t) { done = t; };
  conn->fetch(500, 50'000, msec(5), std::move(cbs));
  f.sim.run();
  ASSERT_GE(sent, TimePoint{0});
  EXPECT_GT(first, sent);
  EXPECT_GT(done, first);
  EXPECT_EQ(conn->active_streams(), 0u);
}

TEST(Connection, FetchBeforeReadyIsQueued) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  bool done = false;
  conn->connect([](TimePoint) {});
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { done = true; };
  conn->fetch(500, 1000, msec(1), std::move(cbs));  // before handshake finished
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Connection, ManyConcurrentStreamsAllComplete) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic);
  conn->connect([](TimePoint) {});
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&](TimePoint) { ++done; };
    conn->fetch(400, 8'000 + static_cast<std::size_t>(i) * 100, msec(2), std::move(cbs));
  }
  f.sim.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(conn->stats().streams_opened, 64u);
}

TEST(Connection, ServerThinkTimeDelaysFirstByte) {
  auto first_byte_at = [](Duration think) {
    Fixture f;
    auto conn = f.make(TransportKind::Quic);
    conn->connect([](TimePoint) {});
    TimePoint first{-1};
    FetchCallbacks cbs;
    cbs.on_first_byte = [&](TimePoint t) { first = t; };
    cbs.on_complete = [](TimePoint) {};
    conn->fetch(500, 1000, think, std::move(cbs));
    f.sim.run();
    return first;
  };
  const auto fast = first_byte_at(msec(0));
  const auto slow = first_byte_at(msec(50));
  // Sub-packet-time deviation allowed: with zero think time the response
  // competes with request-ACK serialization on the downlink.
  EXPECT_NEAR(static_cast<double>((slow - fast).count()), msec(50).count(), usec(20).count());
}

TEST(Connection, LargeTransferIntegrityAndThroughput) {
  Fixture f(msec(10), 0.0, 80e6);
  auto conn = f.make(TransportKind::Tcp);
  conn->connect([](TimePoint) {});
  TimePoint done{-1};
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint t) { done = t; };
  conn->fetch(500, 4'000'000, msec(1), std::move(cbs));
  f.sim.run();
  ASSERT_GT(done, TimePoint{0});
  // 4MB at 80Mbps is 400ms of pure serialization; allow for slow start.
  EXPECT_GT(done, msec(400));
  EXPECT_LT(done, msec(1500));
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  EXPECT_EQ(conn->stats().retransmissions, 0u);
}

TEST(Connection, NoLossMeansNoRetransmissions) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic);
  conn->connect([](TimePoint) {});
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&](TimePoint) { ++done; };
    conn->fetch(500, 30'000, msec(1), std::move(cbs));
  }
  f.sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(conn->stats().retransmissions, 0u);
  EXPECT_EQ(conn->stats().rto_fires, 0u);
}

TEST(Connection, TicketIssuedOnHandshakeCompletion) {
  Fixture f;
  auto conn = f.make(TransportKind::Quic);
  std::optional<tls::SessionTicket> ticket;
  conn->set_ticket_sink([&](tls::SessionTicket t) { ticket = std::move(t); });
  conn->connect([](TimePoint) {});
  f.sim.run();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->domain, "test.example");
  EXPECT_EQ(ticket->version, TlsVersion::Tls13);
  EXPECT_TRUE(ticket->early_data_allowed);
}

TEST(Connection, CloseSilencesPendingEvents) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  bool done = false;
  conn->connect([](TimePoint) {});
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { done = true; };
  conn->fetch(500, 100'000, msec(1), std::move(cbs));
  f.sim.run_until(msec(45));  // mid-transfer
  conn->close();
  f.sim.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(conn->closed());
}

TEST(Connection, CloseIsIdempotent) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  conn->connect([](TimePoint) {});
  conn->close();
  EXPECT_NO_FATAL_FAILURE(conn->close());
}

TEST(Connection, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Fixture f(msec(25), 0.02);
    auto conn = f.make(TransportKind::Quic);
    conn->connect([](TimePoint) {});
    std::vector<std::int64_t> completions;
    for (int i = 0; i < 12; ++i) {
      FetchCallbacks cbs;
      cbs.on_complete = [&](TimePoint t) { completions.push_back(t.count()); };
      conn->fetch(500, 20'000, msec(3), std::move(cbs));
    }
    f.sim.run();
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Connection, HandshakeSurvivesTotalFirstAttemptLoss) {
  Fixture f(msec(20), 0.0);
  // Force the first handshake flight to be lost, then heal the link.
  f.path.set_loss_rate(1.0);
  auto conn = f.make(TransportKind::Quic);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run_until(msec(50));
  f.path.set_loss_rate(0.0);
  f.sim.run();
  EXPECT_GT(ready, msec(50));
  EXPECT_GE(conn->stats().handshake_retries, 1);
}

TEST(Connection, HandshakeTimeoutDoublesPerRetry) {
  // Fixed 100 ms base timer, total loss: retries must fire at exactly
  // 100, 300 (=100+200) and 700 (=100+200+400) ms.
  Fixture f(msec(20), /*loss=*/1.0);
  TransportConfig config;
  config.handshake_timeout = msec(100);
  auto conn = f.make(TransportKind::Quic, TlsVersion::Tls13, HandshakeMode::Fresh, config);
  conn->connect([](TimePoint) {});
  f.sim.run_until(msec(99));
  EXPECT_EQ(conn->stats().handshake_retries, 0);
  f.sim.run_until(msec(101));
  EXPECT_EQ(conn->stats().handshake_retries, 1);
  f.sim.run_until(msec(299));
  EXPECT_EQ(conn->stats().handshake_retries, 1);
  f.sim.run_until(msec(301));
  EXPECT_EQ(conn->stats().handshake_retries, 2);
  f.sim.run_until(msec(699));
  EXPECT_EQ(conn->stats().handshake_retries, 2);
  f.sim.run_until(msec(701));
  EXPECT_EQ(conn->stats().handshake_retries, 3);
  conn->close();
}

TEST(Connection, HandshakeRetryExhaustionYieldsTypedError) {
  Fixture f(msec(20), /*loss=*/1.0);
  TransportConfig config;
  config.handshake_timeout = msec(100);
  config.max_handshake_retries = 2;
  auto conn = f.make(TransportKind::Tcp, TlsVersion::Tls13, HandshakeMode::Fresh, config);
  TimePoint ready{-1};
  conn->connect([&](TimePoint t) { ready = t; });
  f.sim.run();  // terminates: the death cancels the retry timer
  EXPECT_EQ(ready, TimePoint{-1});
  EXPECT_EQ(conn->error(), ConnectionError::HandshakeTimeout);
  EXPECT_EQ(conn->stats().handshake_retries, 2);
  EXPECT_TRUE(conn->closed());
}

TEST(Connection, HandshakeRetriesDoNotPolluteDataRtt) {
  // A retried handshake must not leave an inflated RTT/RTO behind: the
  // post-recovery transfer on a clean link sees zero RTO fires.
  Fixture f(msec(20), 0.0);
  f.path.set_loss_rate(1.0);
  auto conn = f.make(TransportKind::Quic);
  conn->connect([](TimePoint) {});
  f.sim.run_until(msec(80));
  f.path.set_loss_rate(0.0);
  bool done = false;
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { done = true; };
  conn->fetch(500, 200'000, msec(1), std::move(cbs));
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_GE(conn->stats().handshake_retries, 1);
  EXPECT_EQ(conn->stats().rto_fires, 0u);
  EXPECT_EQ(conn->stats().retransmissions, 0u);
}

TEST(ConnectionKill, KillResponseAtBytesDiesOnceWithTypedError) {
  // The chaos harness's scripted mid-transfer cut (docs/RESILIENCE.md): the
  // connection dies with ConnectionError::Killed as soon as its cumulative
  // in-order response delivery crosses the byte offset.
  Fixture f;
  TransportConfig config;
  config.kill_response_at_bytes = 20'000;
  auto conn = f.make(TransportKind::Quic, TlsVersion::Tls13, HandshakeMode::Fresh, config);
  ConnectionError death = ConnectionError::None;
  conn->set_on_dead([&](ConnectionError e, TimePoint) { death = e; });
  bool complete = false;
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { complete = true; };
  conn->connect([](TimePoint) {});
  const StreamId sid = conn->fetch(500, 100'000, msec(1), std::move(cbs));
  f.sim.run();

  EXPECT_FALSE(complete);
  EXPECT_TRUE(conn->dead());
  EXPECT_EQ(death, ConnectionError::Killed);
  EXPECT_EQ(conn->error(), ConnectionError::Killed);
  // Stream state survives death: the delivered prefix is readable afterwards
  // (the session uses exactly this to compute an HTTP Range resume offset).
  const std::size_t delivered = conn->stream_bytes_received(sid);
  EXPECT_GE(delivered, 20'000u);
  EXPECT_LT(delivered, 100'000u);

  // And the remainder completes on a fresh connection — the resume path.
  auto resumed = f.make(TransportKind::Quic);
  bool resumed_complete = false;
  FetchCallbacks rcbs;
  rcbs.on_complete = [&](TimePoint) { resumed_complete = true; };
  resumed->connect([](TimePoint) {});
  conn.reset();
  resumed->fetch(500, 100'000 - delivered, msec(1), std::move(rcbs));
  f.sim.run();
  EXPECT_TRUE(resumed_complete);
  resumed->close();
}

TEST(ConnectionKill, ShortResponsesBelowTheOffsetSurvive) {
  Fixture f;
  TransportConfig config;
  config.kill_response_at_bytes = 20'000;
  auto conn = f.make(TransportKind::Quic, TlsVersion::Tls13, HandshakeMode::Fresh, config);
  ConnectionError death = ConnectionError::None;
  conn->set_on_dead([&](ConnectionError e, TimePoint) { death = e; });
  int completions = 0;
  conn->connect([](TimePoint) {});
  FetchCallbacks cbs;
  cbs.on_complete = [&](TimePoint) { ++completions; };
  const StreamId sid = conn->fetch(500, 8'000, msec(1), std::move(cbs));
  f.sim.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(conn->dead());
  EXPECT_EQ(death, ConnectionError::None);
  EXPECT_EQ(conn->stream_bytes_received(sid), 8'000u);
  EXPECT_EQ(conn->stream_bytes_received(sid + 999), 0u);  // unknown id
  conn->close();
}

TEST(ConnectionLifetime, CallbacksCapturingTheOwnerDoNotKeepTheConnectionAlive) {
  // The owner holds the connection and its callbacks hold the owner (as
  // http::Session does). Once the stream completes, the connection closes
  // and the owner is dropped, nothing may keep the connection reachable.
  struct Owner {
    std::shared_ptr<Connection> conn;
    bool done = false;
  };
  Fixture f;
  auto owner = std::make_shared<Owner>();
  owner->conn = f.make(TransportKind::Quic);
  const std::weak_ptr<Connection> weak = owner->conn;
  owner->conn->connect([owner](TimePoint) {});
  FetchCallbacks cbs;
  cbs.on_request_sent = [owner](TimePoint) {};
  cbs.on_first_byte = [owner](TimePoint) {};
  cbs.on_complete = [owner](TimePoint) { owner->done = true; };
  owner->conn->fetch(500, 20'000, msec(2), std::move(cbs));
  f.sim.run();
  ASSERT_TRUE(owner->done);
  owner->conn->close();
  owner.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(ConnectionLifetime, CloseDropsTheCallbacksOfUnfinishedStreams) {
  struct Owner {
    std::shared_ptr<Connection> conn;
  };
  Fixture f;
  auto owner = std::make_shared<Owner>();
  owner->conn = f.make(TransportKind::Tcp);
  const std::weak_ptr<Connection> weak = owner->conn;
  owner->conn->connect([owner](TimePoint) {});
  FetchCallbacks cbs;
  cbs.on_complete = [owner](TimePoint) {};
  owner->conn->fetch(500, 20'000, msec(2), std::move(cbs));
  owner->conn->close();  // before the handshake: nothing has fired yet
  f.sim.run();
  owner.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(ConnectionDeath, DoubleConnectAborts) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  conn->connect([](TimePoint) {});
  EXPECT_DEATH(conn->connect([](TimePoint) {}), "precondition");
}

TEST(ConnectionDeath, ZeroSizeFetchAborts) {
  Fixture f;
  auto conn = f.make(TransportKind::Tcp);
  conn->connect([](TimePoint) {});
  EXPECT_DEATH(conn->fetch(0, 100, msec(1), {}), "precondition");
}

}  // namespace
}  // namespace h3cdn::transport
