// Fleet-scale load subsystem: arrival processes, edge-server capacity /
// admission, and the sweep's determinism + degradation guarantees.
#include "load/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cdn/edge_server.h"
#include "core/observability.h"
#include "load/arrival.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeline.h"

namespace h3cdn::load {
namespace {

// ---------------------------------------------------------------- arrivals

TEST(Arrival, FixedRateIsExactlySpaced) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::FixedRate;
  cfg.rate_per_sec = 5.0;
  cfg.window = sec(2);
  util::Rng rng(1);
  const auto a = open_loop_arrivals(cfg, rng);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], TimePoint{msec(200 * static_cast<std::int64_t>(i))});
  }
}

TEST(Arrival, PoissonMatchesRateAndStaysSorted) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::Poisson;
  cfg.rate_per_sec = 50.0;
  cfg.window = sec(20);
  util::Rng rng(42);
  const auto a = open_loop_arrivals(cfg, rng);
  // Expected count lambda*W = 1000; allow +-10% (way beyond 3 sigma ~ 95).
  EXPECT_GT(a.size(), 900u);
  EXPECT_LT(a.size(), 1100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const auto t : a) {
    EXPECT_GE(t, TimePoint{0});
    EXPECT_LT(t, TimePoint{cfg.window});
  }
  // Mean inter-arrival ~ 1/lambda = 20ms.
  const double mean_gap_ms = to_ms(a.back() - a.front()) / static_cast<double>(a.size() - 1);
  EXPECT_NEAR(mean_gap_ms, 20.0, 2.0);
}

TEST(Arrival, DiurnalRampConcentratesMidWindow) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::DiurnalRamp;
  cfg.rate_per_sec = 20.0;
  cfg.peak_ratio = 4.0;
  cfg.window = sec(20);
  util::Rng rng(7);
  const auto a = open_loop_arrivals(cfg, rng);
  ASSERT_GT(a.size(), 100u);
  const auto quarter = TimePoint{cfg.window / 4};
  const auto three_quarters = TimePoint{3 * (cfg.window / 4)};
  const auto mid = static_cast<std::size_t>(std::count_if(
      a.begin(), a.end(), [&](TimePoint t) { return t >= quarter && t < three_quarters; }));
  // The triangular ramp puts well over half the mass in the middle half.
  EXPECT_GT(static_cast<double>(mid) / static_cast<double>(a.size()), 0.6);
  // Shape function: peak at mid-window, baseline at the edges.
  EXPECT_NEAR(instantaneous_rate(cfg, TimePoint{cfg.window / 2}),
              cfg.rate_per_sec * cfg.peak_ratio, 1e-9);
  EXPECT_NEAR(instantaneous_rate(cfg, TimePoint{0}), cfg.rate_per_sec, 1e-9);
}

TEST(Arrival, ClosedLoopHasNoPrecomputedSchedule) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::ClosedLoop;
  util::Rng rng(1);
  EXPECT_TRUE(open_loop_arrivals(cfg, rng).empty());
}

TEST(Arrival, KindParsingRoundTrips) {
  bool ok = false;
  EXPECT_EQ(arrival_kind_from_string("fixed", &ok), ArrivalKind::FixedRate);
  EXPECT_TRUE(ok);
  EXPECT_EQ(arrival_kind_from_string("ramp", &ok), ArrivalKind::DiurnalRamp);
  EXPECT_TRUE(ok);
  EXPECT_EQ(arrival_kind_from_string("closed", &ok), ArrivalKind::ClosedLoop);
  EXPECT_TRUE(ok);
  arrival_kind_from_string("bogus", &ok);
  EXPECT_FALSE(ok);
}

// ------------------------------------------------------- edge capacity model

cdn::EdgeServer make_edge(cdn::EdgeCapacityConfig capacity) {
  cdn::ProviderTraits traits;
  traits.name = "test";
  return cdn::EdgeServer(traits, util::Rng(5), 64, capacity);
}

TEST(EdgeCapacity, ConnectionLimitRefusesAndReleaseReadmits) {
  cdn::EdgeCapacityConfig cap;
  cap.enabled = true;
  cap.max_concurrent_connections = 2;
  cap.accept_queue_depth = 64;
  auto edge = make_edge(cap);
  EXPECT_TRUE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
  EXPECT_TRUE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
  EXPECT_FALSE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                              tls::HandshakeMode::Fresh).has_value());
  EXPECT_EQ(edge.refused_conn_limit(), 1u);
  EXPECT_EQ(edge.concurrent_connections(), 2u);
  edge.release_connection();
  EXPECT_TRUE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
  EXPECT_EQ(edge.handshakes_admitted(), 3u);
}

TEST(EdgeCapacity, AcceptQueueOverflowRefusesUntilDrained) {
  cdn::EdgeCapacityConfig cap;
  cap.enabled = true;
  cap.accept_queue_depth = 2;
  cap.max_concurrent_connections = 1000;
  auto edge = make_edge(cap);
  // Two simultaneous handshakes fill the serial accept queue...
  EXPECT_TRUE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
  EXPECT_TRUE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
  // ...so a third arriving at the same instant is refused.
  EXPECT_FALSE(edge.try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                              tls::HandshakeMode::Fresh).has_value());
  EXPECT_EQ(edge.refused_queue_full(), 1u);
  EXPECT_EQ(edge.accept_backlog(TimePoint{0}), 2u);
  // Once the queued CPU work finishes, the backlog prunes and admission
  // succeeds again.
  EXPECT_EQ(edge.accept_backlog(TimePoint{sec(1)}), 0u);
  EXPECT_TRUE(edge.try_admit(TimePoint{sec(1)}, tls::TransportKind::Tcp,
                             tls::HandshakeMode::Fresh).has_value());
}

TEST(EdgeCapacity, QuicHandshakeCostsMoreCpuThanTcp) {
  cdn::EdgeCapacityConfig cap;
  cap.enabled = true;
  const auto tcp = make_edge(cap).try_admit(TimePoint{0}, tls::TransportKind::Tcp,
                                            tls::HandshakeMode::Fresh);
  const auto quic = make_edge(cap).try_admit(TimePoint{0}, tls::TransportKind::Quic,
                                             tls::HandshakeMode::Fresh);
  ASSERT_TRUE(tcp.has_value());
  ASSERT_TRUE(quic.has_value());
  EXPECT_EQ(*tcp, cap.handshake_cpu_tcp);
  EXPECT_EQ(*quic, cap.handshake_cpu_quic);
  EXPECT_GT(*quic, *tcp);
}

TEST(EdgeCapacity, ResumedHandshakesPayDiscountedCpu) {
  cdn::EdgeCapacityConfig cap;
  cap.enabled = true;
  const auto fresh = make_edge(cap).try_admit(TimePoint{0}, tls::TransportKind::Quic,
                                              tls::HandshakeMode::Fresh);
  const auto resumed = make_edge(cap).try_admit(TimePoint{0}, tls::TransportKind::Quic,
                                                tls::HandshakeMode::Resumed);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_TRUE(resumed.has_value());
  EXPECT_LT(*resumed, *fresh);
  EXPECT_NEAR(to_ms(*resumed), to_ms(*fresh) * cap.resumed_handshake_discount, 0.002);
}

TEST(EdgeCapacity, DisabledCapacityAdmitsForFree) {
  auto edge = make_edge({});
  const auto d = edge.try_admit(TimePoint{0}, tls::TransportKind::Quic,
                                tls::HandshakeMode::Fresh);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, Duration::zero());
  EXPECT_EQ(edge.refused_queue_full(), 0u);
  EXPECT_EQ(edge.refused_conn_limit(), 0u);
}

// ------------------------------------------------------------- load sweep

LoadStudyConfig small_config() {
  LoadStudyConfig cfg;
  cfg.workload.site_count = 4;
  cfg.sites = 3;
  cfg.offered_rates = {2.0, 24.0};
  cfg.window = sec(4);
  cfg.seed = 99;
  cfg.jobs = 1;
  return cfg;
}

TEST(LoadStudy, RowsAreRateMajorWithBothProtocols) {
  const auto result = run_load_study(small_config());
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.rows[0].offered_rate, 2.0);
  EXPECT_FALSE(result.rows[0].h3);
  EXPECT_EQ(result.rows[1].offered_rate, 2.0);
  EXPECT_TRUE(result.rows[1].h3);
  EXPECT_EQ(result.rows[2].offered_rate, 24.0);
  EXPECT_FALSE(result.rows[2].h3);
  EXPECT_TRUE(result.rows[3].h3);
  for (const auto& row : result.rows) {
    EXPECT_GT(row.arrivals, 0u);
    EXPECT_GT(row.visits, 0u);
    EXPECT_GT(row.clients, 0u);
    EXPECT_LE(row.plt_p50_ms, row.plt_p95_ms);
    EXPECT_LE(row.plt_p95_ms, row.plt_p99_ms);
    EXPECT_LE(row.ttfb_p50_ms, row.ttfb_p95_ms);
    EXPECT_FALSE(row.queue_series.empty());
  }
}

TEST(LoadStudy, IdenticalRunsAreByteIdentical) {
  const auto cfg = small_config();
  const auto a = load_result_to_csv(run_load_study(cfg));
  const auto b = load_result_to_csv(run_load_study(cfg));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(LoadStudy, JobsDoNotChangeOutputOrMetrics) {
  auto cfg = small_config();
  cfg.jobs = 1;
  core::RunObservability obs1;
  const auto serial = load_result_to_csv(run_load_study(cfg, &obs1));
  cfg.jobs = 4;
  core::RunObservability obs4;
  const auto parallel = load_result_to_csv(run_load_study(cfg, &obs4));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(obs::metrics_to_json(obs1.metrics()), obs::metrics_to_json(obs4.metrics()));
  EXPECT_GT(obs1.metrics().counter("load.visits").value(), 0u);
  // Load cells run with full sweep shards, so the timeline fills and the
  // PLT SLO evaluates real data.
  EXPECT_EQ(obs::timeline_to_json(obs1.timeline()), obs::timeline_to_json(obs4.timeline()));
  const auto plt_series = obs1.timeline().histograms().find("load.plt_ms");
  ASSERT_NE(plt_series, obs1.timeline().histograms().end());
  EXPECT_FALSE(plt_series->second.empty());
  bool plt_slo_seen = false;
  for (const obs::SloResult& r : obs::evaluate_slos(obs1.timeline(), obs::default_slo_objectives())) {
    if (r.objective.name != "plt-p95-under-2s") continue;
    plt_slo_seen = true;
    EXPECT_FALSE(r.no_data);
  }
  EXPECT_TRUE(plt_slo_seen);
}

TEST(LoadStudy, LatencyAndQueueDegradeAcrossTheCapacityKnee) {
  // Tight capacity + a rate sweep that crosses it: the loaded cells must
  // show deeper queues and slower tails than the idle-ish ones, and the
  // overloaded cell must actually refuse connections.
  LoadStudyConfig cfg = small_config();
  cfg.offered_rates = {1.0, 40.0};
  cfg.capacity.think_cores = 1;
  cfg.capacity.accept_queue_depth = 4;
  cfg.capacity.max_concurrent_connections = 8;
  const auto result = run_load_study(cfg);
  ASSERT_EQ(result.rows.size(), 4u);
  for (int proto = 0; proto < 2; ++proto) {
    const auto& low = result.rows[static_cast<std::size_t>(proto)];
    const auto& high = result.rows[static_cast<std::size_t>(2 + proto)];
    EXPECT_GE(high.mean_queue_depth, low.mean_queue_depth);
    EXPECT_GE(high.max_queue_depth, low.max_queue_depth);
    EXPECT_GT(high.ttfb_p95_ms, low.ttfb_p95_ms);
    EXPECT_GT(high.connections_refused, low.connections_refused);
    EXPECT_GT(high.refusal_rate, 0.0);
    EXPECT_GT(high.refusal_retries, 0u);
  }
}

TEST(LoadStudy, ClosedLoopPopulationSelfThrottles) {
  LoadStudyConfig cfg = small_config();
  cfg.arrival = ArrivalKind::ClosedLoop;
  cfg.offered_rates = {4.0};  // reinterpreted as the user population
  const auto result = run_load_study(cfg);
  ASSERT_EQ(result.rows.size(), 2u);
  for (const auto& row : result.rows) {
    EXPECT_GT(row.visits, 0u);
    // A fixed population never needs more clients than users.
    EXPECT_LE(row.clients, 4u);
    EXPECT_EQ(row.connections_refused + row.failed_visits + row.visits > 0, true);
  }
}

TEST(LoadStudy, CsvCarriesQueueSeriesAndAttribution) {
  const auto result = run_load_study(small_config());
  const auto csv = load_result_to_csv(result);
  EXPECT_NE(csv.find("rate,proto"), std::string::npos);
  EXPECT_NE(csv.find("queue_series"), std::string::npos);
  EXPECT_NE(csv.find("cp_"), std::string::npos);  // critical-path columns
  // One header plus one line per cell.
  const auto lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, 1u + result.rows.size());
}

}  // namespace
}  // namespace h3cdn::load
