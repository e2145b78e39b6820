#include "obs/trace_log.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/path.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "transport/connection.h"
#include "util/json_parse.h"

namespace h3cdn::obs {
namespace {

using Type = TraceEventType;

TEST(Trace, RecordsAndCounts) {
  TraceLog log;
  const TraceHandle t = log.open("conn");
  t.record({msec(1), Type::HandshakeStarted});
  t.record({msec(2), Type::PacketSent, 0, 1, 1200});
  t.record({msec(3), Type::PacketSent, 1, 1, 1200});
  t.record({msec(4), Type::PacketLost, 0, 1, 1200});
  const TraceTrack& track = log.tracks().front();
  EXPECT_EQ(track.events.size(), 4u);
  EXPECT_EQ(track.count(Type::PacketSent), 2u);
  EXPECT_EQ(track.count(Type::PacketLost), 1u);
  EXPECT_EQ(track.count(Type::RtoFired), 0u);
  EXPECT_EQ(log.event_count(), 4u);
}

TEST(Trace, TimestampsMustBeMonotone) {
  TraceLog log;
  const TraceHandle t = log.open("conn");
  t.record({msec(5), Type::PacketSent});
  EXPECT_DEATH(t.record({msec(4), Type::PacketSent}), "precondition");
}

TEST(Trace, QlogJsonIsWellFormed) {
  TraceLog log;
  const TraceHandle t = log.open("conn-1");
  t.record({msec(1), Type::HandshakeStarted});
  TraceEvent sent{msec(2), Type::PacketSent};
  sent.packet_number = 7;
  sent.stream_id = 3;
  sent.bytes = 1350;
  t.record(sent);
  TraceEvent cw{msec(3), Type::CwndUpdated};
  cw.cwnd = 12;
  t.record(cw);

  const auto doc = util::parse_json(to_qlog_json(log));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("qlog_version", ""), "0.4");
  const auto& traces = doc->find("traces")->as_array();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].find("common_fields")->string_or("ODCID", ""), "conn-1");
  const auto& events = traces[0].find("events")->as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].string_or("name", ""), "handshake_started");
  EXPECT_EQ(events[1].find("data")->number_or("packet_number", -1), 7.0);
  EXPECT_EQ(events[2].find("data")->number_or("congestion_window_packets", -1), 12.0);
}

TEST(Trace, ConnectionEmitsFullLifecycle) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(1));
  auto conn = transport::Connection::create(sim, path, tls::TransportKind::Quic,
                                            tls::TlsVersion::Tls13, tls::HandshakeMode::Fresh,
                                            util::Rng(2), {});
  TraceLog log;
  conn->set_trace(log.open("conn"));
  conn->connect([](TimePoint) {});
  transport::FetchCallbacks cbs;
  cbs.on_complete = [](TimePoint) {};
  conn->fetch(500, 20'000, msec(2), std::move(cbs));
  sim.run();

  const TraceTrack& track = log.tracks().front();
  EXPECT_EQ(track.count(Type::HandshakeStarted), 1u);
  EXPECT_EQ(track.count(Type::HandshakeFinished), 1u);
  EXPECT_EQ(track.count(Type::StreamOpened), 1u);
  EXPECT_EQ(track.count(Type::StreamFinished), 1u);
  EXPECT_GT(track.count(Type::PacketSent), 10u);
  EXPECT_EQ(track.count(Type::PacketSent), track.count(Type::PacketReceived));
  EXPECT_EQ(track.count(Type::PacketSent), track.count(Type::PacketAcked));
  EXPECT_EQ(track.count(Type::PacketLost), 0u);
  EXPECT_GT(track.count(Type::CwndUpdated), 0u);  // slow-start growth
}

TEST(Trace, LossyConnectionRecordsRecoveryEvents) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.05, usec(0)}, util::Rng(9));
  auto conn = transport::Connection::create(sim, path, tls::TransportKind::Tcp,
                                            tls::TlsVersion::Tls13, tls::HandshakeMode::Fresh,
                                            util::Rng(2), {});
  TraceLog log;
  conn->set_trace(log.open("conn"));
  conn->connect([](TimePoint) {});
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    transport::FetchCallbacks cbs;
    cbs.on_complete = [&](TimePoint) { ++done; };
    conn->fetch(500, 40'000, msec(2), std::move(cbs));
  }
  sim.run();
  EXPECT_EQ(done, 8);
  const TraceTrack& track = log.tracks().front();
  EXPECT_GT(track.count(Type::PacketLost), 0u);
  EXPECT_EQ(track.count(Type::PacketLost), track.count(Type::Retransmission));
}

TEST(Trace, RingBufferDropsOldestAndCounts) {
  TraceLog log;
  const TraceHandle t = log.open("capped");
  const int extra = 5;
  const int total = static_cast<int>(TraceLog::kTrackCapacity) + extra;
  for (int i = 1; i <= total; ++i) t.record({usec(i), Type::PacketSent});
  const TraceTrack& track = log.tracks().front();
  EXPECT_EQ(track.events.size(), TraceLog::kTrackCapacity);
  EXPECT_EQ(track.dropped_events, static_cast<std::uint64_t>(extra));
  EXPECT_EQ(track.events.front().at, usec(extra + 1));  // oldest five evicted
  EXPECT_EQ(track.events.back().at, usec(total));
  EXPECT_EQ(log.dropped_events(), static_cast<std::uint64_t>(extra));
  log.clear();
  EXPECT_EQ(log.track_count(), 0u);
  EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(Trace, SetCapacityTrimsExistingEvents) {
  // The capacity is the constant kTrackCapacity. Filling a track to it trims
  // nothing; past it each new event trims the oldest existing one, and the
  // trimmed track keeps its state when merged into another log.
  TraceLog log;
  const TraceHandle t = log.open("full");
  const auto cap = static_cast<std::int64_t>(TraceLog::kTrackCapacity);
  for (std::int64_t i = 1; i <= cap; ++i) t.record({usec(i), Type::PacketSent});
  const TraceTrack& track = log.tracks().front();
  EXPECT_EQ(track.events.size(), TraceLog::kTrackCapacity);
  EXPECT_EQ(track.dropped_events, 0u);
  for (std::int64_t i = 1; i <= 6; ++i) {
    t.record({usec(cap + i), Type::PacketLost});
    EXPECT_EQ(track.events.size(), TraceLog::kTrackCapacity);
    EXPECT_EQ(track.dropped_events, static_cast<std::uint64_t>(i));
    EXPECT_EQ(track.events.front().at, usec(i + 1));
  }
  EXPECT_EQ(track.count(Type::PacketLost), 6u);
  EXPECT_EQ(track.count(Type::PacketSent), TraceLog::kTrackCapacity - 6);

  TraceLog merged;
  merged.merge_from(std::move(log));
  ASSERT_EQ(merged.track_count(), 1u);
  EXPECT_EQ(merged.tracks().front().events.size(), TraceLog::kTrackCapacity);
  EXPECT_EQ(merged.dropped_events(), 6u);
  EXPECT_EQ(merged.tracks().front().events.front().at, usec(7));
}

TEST(Trace, QlogReportsDroppedEvents) {
  TraceLog log;
  log.open("uncapped").record({msec(1), Type::HandshakeStarted});
  const TraceHandle t = log.open("capped");
  for (std::size_t i = 1; i <= TraceLog::kTrackCapacity + 3; ++i) {
    t.record({usec(static_cast<std::int64_t>(i)), Type::PacketSent});
  }
  const auto doc = util::parse_json(to_qlog_json(log));
  ASSERT_TRUE(doc.has_value());
  const auto& traces = doc->find("traces")->as_array();
  ASSERT_EQ(traces.size(), 2u);
  // Only a track that dropped events carries the field.
  EXPECT_EQ(traces[0].find("common_fields")->find("dropped_events"), nullptr);
  EXPECT_EQ(traces[1].find("common_fields")->number_or("dropped_events", -1), 3.0);
  EXPECT_EQ(traces[1].find("events")->as_array().size(), TraceLog::kTrackCapacity);
}

TEST(Trace, QlogEscapesHostileLabels) {
  // Labels flow from domain names and run labels; quotes, backslashes, and
  // control characters must survive the JSON round trip.
  const std::string hostile = "evil\"domain\\with\nnewline\tand\x01ctrl";
  TraceLog log;
  log.open(hostile).record({msec(1), Type::HandshakeStarted});
  util::JsonParseError error;
  const auto doc = util::parse_json(to_qlog_json(log), &error);
  ASSERT_TRUE(doc.has_value()) << error.message;
  const auto& traces = doc->find("traces")->as_array();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].find("common_fields")->string_or("ODCID", ""), hostile);
}

TEST(Trace, UntracedConnectionRecordsNothing) {
  // A registry is installed, but the connection holds a null handle: no
  // track is opened and no event lands anywhere.
  MetricsRegistry registry;
  ScopedMetrics scoped(&registry);
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(1));
  auto conn = transport::Connection::create(sim, path, tls::TransportKind::Quic,
                                            tls::TlsVersion::Tls13, tls::HandshakeMode::Fresh,
                                            util::Rng(2), {});
  conn->connect([](TimePoint) {});
  transport::FetchCallbacks cbs;
  bool done = false;
  cbs.on_complete = [&](TimePoint) { done = true; };
  conn->fetch(500, 20'000, msec(2), std::move(cbs));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(registry.traces().track_count(), 0u);
  EXPECT_EQ(registry.traces().event_count(), 0u);
  TraceHandle null;
  null.record({msec(1), Type::PacketSent});  // a null handle ignores events
  EXPECT_FALSE(null);
}

TEST(TraceLog, PoolBusSharesTimelineWithPacketTracks) {
  // Pool-level events (fallback, H3-broken) recorded into the bus track sit
  // on the same clock as the packet events of connection tracks: the fault
  // track of trace.perfetto.json interleaves them by time.
  TraceLog log;
  const TraceHandle bus = log.open("run/pool");
  const TraceHandle conn = log.open_connection("run/cdn.example/h3");
  conn.record({msec(10), Type::PacketSent});
  TraceEvent fallback{msec(20), Type::FallbackTriggered};
  fallback.fault = FaultKind::Blackhole;
  bus.record(fallback);
  conn.record({msec(30), Type::ConnectionAborted});

  ASSERT_EQ(log.track_count(), 2u);
  EXPECT_EQ(log.tracks()[0].label, "run/pool");
  EXPECT_EQ(log.tracks()[1].label, "run/cdn.example/h3#1");
  EXPECT_EQ(log.tracks()[0].events.front().at, msec(20));
  EXPECT_LT(log.tracks()[1].events.front().at, log.tracks()[0].events.front().at);
  EXPECT_GT(log.tracks()[1].events.back().at, log.tracks()[0].events.front().at);
}

TEST(TraceLog, MultiTrackQlogDocument) {
  TraceLog log;
  log.open("one").record({msec(1), Type::HandshakeStarted});
  const TraceHandle two = log.open("two");
  for (std::size_t i = 0; i <= TraceLog::kTrackCapacity; ++i) {
    two.record({msec(2), Type::PacketSent});
  }
  log.open("empty");

  EXPECT_EQ(log.dropped_events(), 1u);
  const auto doc = util::parse_json(to_qlog_json(log));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("qlog_format", ""), "JSON");
  EXPECT_EQ(doc->string_or("qlog_version", ""), "0.4");
  const auto& traces = doc->find("traces")->as_array();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].find("common_fields")->string_or("ODCID", ""), "one");
  EXPECT_EQ(traces[1].find("common_fields")->string_or("ODCID", ""), "two");
  EXPECT_EQ(traces[1].find("common_fields")->number_or("dropped_events", -1), 1.0);
  EXPECT_EQ(traces[2].find("common_fields")->string_or("ODCID", ""), "empty");
  EXPECT_TRUE(traces[2].find("events")->as_array().empty());
}

TEST(TraceLog, ConnectionTracksAreNumberedAndCappedPerShard) {
  TraceLog log;
  log.set_shard_count(100);  // 256 split 100 ways, rounded up: 3 each
  std::vector<bool> opened;
  for (int i = 0; i < 5; ++i) opened.push_back(static_cast<bool>(log.open_connection("run/d/h2")));
  EXPECT_EQ(opened, (std::vector<bool>{true, true, true, false, false}));
  EXPECT_TRUE(log.open("run/pool"));  // bus tracks are never refused
  ASSERT_EQ(log.track_count(), 4u);
  EXPECT_EQ(log.tracks()[0].label, "run/d/h2#1");
  EXPECT_EQ(log.tracks()[2].label, "run/d/h2#3");
  log.clear();
  EXPECT_EQ(log.track_count(), 0u);
  log.open_connection("run/d/h3");
  EXPECT_EQ(log.tracks()[0].label, "run/d/h3#1");  // clear restarts numbering

  TraceLog whole;
  for (std::size_t i = 0; i < TraceLog::kMaxConnectionTracks; ++i) {
    EXPECT_TRUE(whole.open_connection("c"));
  }
  EXPECT_FALSE(whole.open_connection("c"));
}

TEST(TraceLog, RegistryMergeAppendsShardTracksInOrderAndDrainsThem) {
  MetricsRegistry run;
  MetricsRegistry shard_a;
  MetricsRegistry shard_b;
  shard_a.traces().open("a/pool").record({msec(5), Type::H3BrokenMarked});
  shard_b.traces().open("b/pool");
  shard_b.traces().open_connection("b/x/h3").record({msec(1), Type::PacketSent});

  run.merge_from(std::move(shard_a));
  run.merge_from(shard_b);  // the const form copies
  ASSERT_EQ(run.traces().track_count(), 3u);
  EXPECT_EQ(run.traces().tracks()[0].label, "a/pool");
  EXPECT_EQ(run.traces().tracks()[1].label, "b/pool");
  EXPECT_EQ(run.traces().tracks()[2].label, "b/x/h3#1");
  EXPECT_EQ(run.traces().event_count(), 2u);
  EXPECT_EQ(shard_a.traces().track_count(), 0u);  // moved out
  EXPECT_EQ(shard_b.traces().track_count(), 2u);  // copied
  run.clear();
  EXPECT_EQ(run.traces().track_count(), 0u);
}

}  // namespace
}  // namespace h3cdn::obs
