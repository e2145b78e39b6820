#include "net/link.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/path.h"
#include "obs/metrics.h"

namespace h3cdn::net {
namespace {

LinkConfig fast_link() {
  LinkConfig c;
  c.latency = msec(10);
  c.bandwidth_bps = 8e6;  // 1 byte/us
  c.loss_rate = 0.0;
  return c;
}

TEST(Link, DeliversAfterLatencyPlusSerialization) {
  sim::Simulator sim;
  Link link(sim, fast_link(), util::Rng(1));
  TimePoint at{-1};
  link.transmit(1000, [&] { at = sim.now(); });
  sim.run();
  // 1000 bytes at 1 B/us = 1ms serialization + 10ms latency.
  EXPECT_EQ(at, msec(11));
}

TEST(Link, SerializationQueuesBackToBack) {
  sim::Simulator sim;
  Link link(sim, fast_link(), util::Rng(1));
  std::vector<TimePoint> at;
  for (int i = 0; i < 3; ++i) link.transmit(1000, [&] { at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], msec(11));
  EXPECT_EQ(at[1], msec(12));
  EXPECT_EQ(at[2], msec(13));
}

TEST(Link, InfiniteBandwidthSkipsSerialization) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.bandwidth_bps = 0;  // infinite
  Link link(sim, c, util::Rng(1));
  TimePoint at{-1};
  link.transmit(1'000'000, [&] { at = sim.now(); });
  sim.run();
  EXPECT_EQ(at, msec(10));
}

TEST(Link, LossRateStatistics) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.loss_rate = 0.2;
  c.bandwidth_bps = 0;
  Link link(sim, c, util::Rng(7));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.transmit(100, [&] { ++delivered; });
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.8, 0.02);
  EXPECT_EQ(metrics.counter("net.link.packets_offered").value(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(metrics.counter("net.link.packets_delivered").value() +
                metrics.counter("net.link.packets_dropped").value(),
            static_cast<std::uint64_t>(n));
}

TEST(Link, LosslessFlagBypassesLoss) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.loss_rate = 1.0;
  c.bandwidth_bps = 0;
  Link link(sim, c, util::Rng(7));
  int delivered = 0;
  for (int i = 0; i < 100; ++i) link.transmit(100, [&] { ++delivered; }, /*lossless=*/true);
  sim.run();
  EXPECT_EQ(delivered, 100);
}

TEST(Link, FullLossDeliversNothing) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.loss_rate = 1.0;
  Link link(sim, c, util::Rng(7));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) link.transmit(100, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(metrics.counter("net.link.packets_dropped").value(), 50u);
}

TEST(Link, JitterNeverReorders) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.jitter_max = msec(5);
  Link link(sim, c, util::Rng(3));
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) link.transmit(500, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Link, JitterDelaysWithinBound) {
  sim::Simulator sim;
  LinkConfig c = fast_link();
  c.jitter_max = msec(5);
  c.bandwidth_bps = 0;
  Link link(sim, c, util::Rng(3));
  TimePoint at{-1};
  link.transmit(100, [&] { at = sim.now(); });
  sim.run();
  EXPECT_GE(at, msec(10));
  EXPECT_LE(at, msec(15));
}

TEST(Link, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    LinkConfig c = fast_link();
    c.loss_rate = 0.1;
    c.jitter_max = msec(2);
    Link link(sim, c, util::Rng(99));
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 500; ++i) link.transmit(700, [&] { arrivals.push_back(sim.now().count()); });
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Link, ReseedJitterChangesOnlyJitter) {
  auto run_once = [](std::uint64_t salt) {
    sim::Simulator sim;
    LinkConfig c = fast_link();
    c.loss_rate = 0.3;
    Link link(sim, c, util::Rng(99));
    link.reseed_jitter(salt);
    int delivered = 0;
    for (int i = 0; i < 2000; ++i) link.transmit(700, [&] { ++delivered; });
    sim.run();
    return delivered;
  };
  // Same loss stream regardless of jitter salt.
  EXPECT_EQ(run_once(1), run_once(2));
}

TEST(Link, SetLossRateApplies) {
  sim::Simulator sim;
  Link link(sim, fast_link(), util::Rng(5));
  link.set_loss_rate(1.0);
  int delivered = 0;
  link.transmit(100, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetPath, RttSplitAcrossDirections) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(31);  // odd on purpose
  pc.bandwidth_bps = 0;
  NetPath path(sim, pc, util::Rng(1));
  TimePoint up{-1}, down{-1};
  path.send_up(100, [&] { up = sim.now(); });
  sim.run();
  path.send_down(100, [&] { down = sim.now(); });
  sim.run();
  EXPECT_EQ((up + (down - up)).count(), msec(31).count());  // total propagation == rtt
}

TEST(NetPath, AccessLinkChainsBothSerializers) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 8e6;
  NetPath path(sim, pc, util::Rng(1));
  LinkConfig ac;
  ac.latency = msec(2);
  ac.bandwidth_bps = 8e6;
  Link access_up(sim, ac, util::Rng(2));
  Link access_down(sim, ac, util::Rng(3));
  path.attach_access(&access_up, &access_down);

  TimePoint at{-1};
  path.send_down(1000, [&] { at = sim.now(); });
  {
    // The path hop transmitted above; the access hop transmits when the path
    // hop delivers, so this scope sees only access_down.
    obs::MetricsRegistry metrics;
    obs::ScopedMetrics scope(&metrics);
    sim.run();
    EXPECT_EQ(metrics.counter("net.link.packets_delivered").value(), 1u);
  }
  // path: 1ms serialize + 10ms latency; access: 1ms serialize + 2ms latency.
  EXPECT_EQ(at, msec(14));
}

TEST(NetPath, ChainedArrivalIsTheSumOfBothHops) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 8e6;
  NetPath path(sim, pc, util::Rng(1));
  LinkConfig ac;
  ac.latency = msec(2);
  ac.bandwidth_bps = 4e6;  // 2 us per byte
  Link access_up(sim, ac, util::Rng(2));
  Link access_down(sim, ac, util::Rng(3));
  path.attach_access(&access_up, &access_down);

  std::vector<TimePoint> up;
  path.send_up(1000, [&] { up.push_back(sim.now()); });
  path.send_up(1000, [&] { up.push_back(sim.now()); });
  sim.run();
  // access: 2 ms serialize + 2 ms latency; path: 1 ms serialize + 10 ms
  // latency. The second packet waits 2 ms behind the first on the access
  // serializer, then finds the path serializer idle.
  EXPECT_EQ(up, (std::vector<TimePoint>{msec(15), msec(17)}));
}

TEST(NetPath, SecondHopDropReleasesTheCallbackAtTheDropInstant) {
  for (const bool upstream : {true, false}) {
    sim::Simulator sim;
    PathConfig pc;
    pc.rtt = msec(20);
    pc.bandwidth_bps = 0;
    NetPath path(sim, pc, util::Rng(1));
    LinkConfig ac;
    ac.latency = msec(2);
    ac.bandwidth_bps = 8e6;
    Link access_up(sim, ac, util::Rng(2));
    Link access_down(sim, ac, util::Rng(3));
    path.attach_access(&access_up, &access_down);
    // The second hop drops everything: the path uplink on the way up, the
    // access downlink on the way down.
    (upstream ? path.uplink() : access_down).set_loss_rate(1.0);

    TimePoint released{-1};
    std::weak_ptr<int> watch;
    bool delivered = false;
    {
      std::shared_ptr<int> token(new int(0), [&](int* p) {
        released = sim.now();
        delete p;
      });
      watch = token;
      auto deliver = [&delivered, token = std::move(token)] { delivered = true; };
      if (upstream) {
        path.send_up(1000, std::move(deliver));
      } else {
        path.send_down(1000, std::move(deliver));
      }
    }

    // Up: 1 ms serialize + 2 ms latency on the access link. Down: 10 ms
    // latency on an infinitely fast path link.
    const TimePoint first_hop = upstream ? msec(3) : msec(10);
    sim.run_until(first_hop - usec(1));
    EXPECT_FALSE(watch.expired()) << "upstream " << upstream;
    sim.run();
    EXPECT_TRUE(watch.expired()) << "upstream " << upstream;
    EXPECT_EQ(released, first_hop) << "upstream " << upstream;
    EXPECT_FALSE(delivered);
  }
}

TEST(NetPath, ChainedPathKeepsFifoUnderJitter) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 8e6;
  pc.jitter_max = msec(4);
  NetPath path(sim, pc, util::Rng(7));
  LinkConfig ac;
  ac.latency = msec(1);
  ac.bandwidth_bps = 16e6;
  ac.jitter_max = msec(3);
  Link access_up(sim, ac, util::Rng(8));
  Link access_down(sim, ac, util::Rng(9));
  path.attach_access(&access_up, &access_down);

  std::vector<int> up;
  std::vector<int> down;
  for (int i = 0; i < 200; ++i) {
    path.send_up(500, [&up, i] { up.push_back(i); });
    path.send_down(500, [&down, i] { down.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(up.size(), 200u);
  ASSERT_EQ(down.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(up[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(down[static_cast<std::size_t>(i)], i);
  }
}

TEST(NetPath, AccessLossAppliesToChainedPackets) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  NetPath path(sim, pc, util::Rng(1));
  LinkConfig ac;
  ac.loss_rate = 1.0;
  Link access_up(sim, ac, util::Rng(2));
  Link access_down(sim, ac, util::Rng(3));
  path.attach_access(&access_up, &access_down);
  int delivered = 0;
  path.send_up(100, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace h3cdn::net
