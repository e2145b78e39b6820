// Stream/connection flow control (RFC 9000 §4; H2 WINDOW_UPDATE semantics).
#include <gtest/gtest.h>

#include <memory>

#include "net/path.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace h3cdn::transport {
namespace {

using tls::HandshakeMode;
using tls::TlsVersion;
using tls::TransportKind;

struct Outcome {
  double last_ms = 0.0;
  std::vector<double> completions_ms;
  ConnectionStats stats;
};

Outcome run(TransportKind kind, TransportConfig config, int streams, std::size_t bytes) {
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 200e6;
  net::NetPath path(sim, pc, util::Rng(3));
  auto conn = Connection::create(sim, path, kind, TlsVersion::Tls13, HandshakeMode::Fresh,
                                 util::Rng(4), config);
  conn->connect([](TimePoint) {});
  Outcome out;
  out.completions_ms.resize(static_cast<std::size_t>(streams), -1.0);
  for (int i = 0; i < streams; ++i) {
    FetchCallbacks cbs;
    const auto idx = static_cast<std::size_t>(i);
    cbs.on_complete = [&out, idx](TimePoint t) {
      out.completions_ms[idx] = to_ms(t);
      out.last_ms = std::max(out.last_ms, to_ms(t));
    };
    conn->fetch(500, bytes, msec(1), std::move(cbs));
  }
  sim.run();
  out.stats = conn->stats();
  return out;
}

TEST(FlowControl, DefaultsNeverBindOnStudyScaleTransfers) {
  TransportConfig config;
  const auto out = run(TransportKind::Quic, config, 24, 30'000);
  for (double c : out.completions_ms) EXPECT_GT(c, 0.0);
  EXPECT_EQ(out.stats.flow_blocked_events, 0u);
}

TEST(FlowControl, TinyStreamWindowStillCompletes) {
  TransportConfig config;
  config.initial_stream_window = 8 * 1024;  // forces repeated grants
  const auto out = run(TransportKind::Quic, config, 1, 300'000);
  EXPECT_GT(out.completions_ms[0], 0.0);
  EXPECT_GT(out.stats.window_updates_sent, 5u);
}

TEST(FlowControl, SmallWindowThrottlesThroughput) {
  TransportConfig roomy;
  TransportConfig tight;
  tight.initial_stream_window = 16 * 1024;
  tight.initial_connection_window = 16 * 1024;
  const auto fast = run(TransportKind::Quic, roomy, 1, 400'000);
  const auto slow = run(TransportKind::Quic, tight, 1, 400'000);
  ASSERT_GT(slow.completions_ms[0], 0.0);
  // A 16KB window over a 20ms RTT caps throughput around 0.8 MB/s, so the
  // windowed transfer must be substantially slower.
  EXPECT_GT(slow.last_ms, fast.last_ms * 2);
  EXPECT_GT(slow.stats.flow_blocked_events, 0u);
}

TEST(FlowControl, ConnectionWindowCapsAggregateNotSingleStream) {
  TransportConfig config;
  config.initial_stream_window = 1 << 20;
  config.initial_connection_window = 64 * 1024;  // shared across streams
  const auto out = run(TransportKind::Quic, config, 8, 100'000);
  for (double c : out.completions_ms) EXPECT_GT(c, 0.0);
  EXPECT_GT(out.stats.flow_blocked_events, 0u);
  EXPECT_GT(out.stats.window_updates_sent, 0u);
}

TEST(FlowControl, BlockedStreamDoesNotStarveOthers) {
  // One huge response hits its stream window; small responses behind it in
  // the rotation must still complete promptly.
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 200e6;
  net::NetPath path(sim, pc, util::Rng(3));
  TransportConfig config;
  config.initial_stream_window = 32 * 1024;
  auto conn = Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                 HandshakeMode::Fresh, util::Rng(4), config);
  conn->connect([](TimePoint) {});
  double big_done = -1, small_done = -1;
  FetchCallbacks big;
  big.on_complete = [&](TimePoint t) { big_done = to_ms(t); };
  conn->fetch(500, 600'000, msec(1), std::move(big));
  FetchCallbacks small;
  small.on_complete = [&](TimePoint t) { small_done = to_ms(t); };
  conn->fetch(500, 8'000, msec(1), std::move(small));
  sim.run();
  ASSERT_GT(big_done, 0.0);
  ASSERT_GT(small_done, 0.0);
  EXPECT_LT(small_done, big_done / 2);
}

TEST(FlowControl, BlockedHighPriorityBucketYieldsToLowerPriorities) {
  // Regression: if every stream in the most-urgent bucket is window-blocked,
  // the scheduler must fall through to lower-priority sendable streams
  // instead of stalling (previously tripped an internal assertion).
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 200e6;
  net::NetPath path(sim, pc, util::Rng(3));
  TransportConfig config;
  config.initial_stream_window = 16 * 1024;  // urgent stream blocks quickly
  config.respect_priorities = true;
  auto conn = Connection::create(sim, path, TransportKind::Tcp, TlsVersion::Tls13,
                                 HandshakeMode::Fresh, util::Rng(4), config);
  conn->connect([](TimePoint) {});
  double urgent_done = -1, lazy_done = -1;
  FetchCallbacks urgent;
  urgent.on_complete = [&](TimePoint t) { urgent_done = to_ms(t); };
  conn->fetch(500, 400'000, msec(1), std::move(urgent), /*priority=*/0);
  FetchCallbacks lazy;
  lazy.on_complete = [&](TimePoint t) { lazy_done = to_ms(t); };
  conn->fetch(500, 30'000, msec(1), std::move(lazy), /*priority=*/4);
  sim.run();
  EXPECT_GT(urgent_done, 0.0);
  EXPECT_GT(lazy_done, 0.0);
  // The low-priority stream progresses while the urgent one waits on grants.
  EXPECT_LT(lazy_done, urgent_done);
}

TEST(FlowControl, AppliesToTcpAsWell) {
  TransportConfig tight;
  tight.initial_stream_window = 16 * 1024;
  tight.initial_connection_window = 16 * 1024;
  const auto out = run(TransportKind::Tcp, tight, 1, 200'000);
  EXPECT_GT(out.completions_ms[0], 0.0);
  EXPECT_GT(out.stats.window_updates_sent, 3u);
}

TEST(FlowControl, ConnectionStallSpansRecordedWithMetricAndTrace) {
  // Connection-level MAX_DATA starvation must surface as its own stall kind:
  // ConnectionStats counters, the transport.stall.flow_control metric and a
  // FlowControlStallSpan trace event whose duration covers the blocked time.
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 200e6;
  net::NetPath path(sim, pc, util::Rng(3));
  TransportConfig config;
  config.initial_stream_window = 1 << 20;
  config.initial_connection_window = 32 * 1024;  // aggregate starves first
  auto conn = Connection::create(sim, path, TransportKind::Quic, TlsVersion::Tls13,
                                 HandshakeMode::Fresh, util::Rng(4), config);
  obs::TraceLog log;
  conn->set_trace(log.open("conn"));
  conn->connect([](TimePoint) {});
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&done](TimePoint) { ++done; };
    conn->fetch(500, 100'000, msec(1), std::move(cbs));
  }
  sim.run();
  EXPECT_EQ(done, 8);
  const auto stats = conn->stats();
  EXPECT_GT(stats.flow_control_stalls, 0u);
  EXPECT_GT(stats.flow_control_stall_total, Duration::zero());
  EXPECT_EQ(registry.counter("transport.stall.flow_control").value(),
            stats.flow_control_stalls);
  const obs::TraceTrack& track = log.tracks().front();
  EXPECT_GT(track.count(obs::TraceEventType::FlowControlStallSpan), 0u);
  double span_ms = 0.0;
  for (const auto& ev : track.events) {
    if (ev.type == obs::TraceEventType::FlowControlStallSpan) span_ms += ev.duration_ms;
  }
  EXPECT_NEAR(span_ms, to_ms(stats.flow_control_stall_total), 0.01);
}

TEST(FlowControl, StreamOnlyBlockingIsNotAConnectionStall) {
  // A stream hitting its own window while connection credit remains is the
  // existing flow_blocked case, not connection-level starvation.
  TransportConfig config;
  config.initial_stream_window = 16 * 1024;
  config.initial_connection_window = 1 << 20;
  const auto out = run(TransportKind::Quic, config, 1, 300'000);
  EXPECT_GT(out.completions_ms[0], 0.0);
  EXPECT_GT(out.stats.flow_blocked_events, 0u);
  EXPECT_EQ(out.stats.flow_control_stalls, 0u);
  EXPECT_EQ(out.stats.flow_control_stall_total, Duration::zero());
}

TEST(FlowControl, WindowedTransferMatchesBandwidthDelayMath) {
  // Steady-state rate ~= window / RTT. 32KB over ~20ms RTT + grant latency
  // gives roughly 1.2-1.6 MB/s; a 480KB body should need ~0.3-0.5s.
  TransportConfig config;
  config.initial_stream_window = 32 * 1024;
  config.initial_connection_window = 32 * 1024;
  const auto out = run(TransportKind::Quic, config, 1, 480'000);
  EXPECT_GT(out.last_ms, 200.0);
  EXPECT_LT(out.last_ms, 1'200.0);
}

}  // namespace
}  // namespace h3cdn::transport
