#include "net/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/path.h"
#include "obs/metrics.h"

namespace h3cdn::net {
namespace {

LinkConfig instant_link() {
  LinkConfig c;
  c.latency = msec(10);
  c.bandwidth_bps = 0;  // infinite: serialization out of the picture
  c.loss_rate = 0.0;
  return c;
}

// Transmits `n` packets through the link at the current sim time and returns
// the per-packet delivered flags in transmit order (drops never deliver).
std::vector<bool> offer_packets(sim::Simulator& sim, Link& link, int n,
                                PacketClass pclass = PacketClass::Tcp, bool lossless = false) {
  std::vector<bool> delivered(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    link.transmit(100, [&delivered, i] { delivered[static_cast<std::size_t>(i)] = true; },
                  lossless, pclass);
  }
  sim.run();
  return delivered;
}

// One net.link.* counter of `metrics`.
std::uint64_t link_count(obs::MetricsRegistry& metrics, const std::string& name) {
  return metrics.counter("net.link." + name).value();
}

double mean_drop_run_length(const std::vector<bool>& delivered) {
  std::size_t runs = 0;
  std::size_t dropped = 0;
  bool in_run = false;
  for (bool ok : delivered) {
    if (!ok) {
      ++dropped;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  return runs == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(runs);
}

// --- Gilbert-Elliott parameterization ---------------------------------------

TEST(GilbertElliott, FromAverageHitsTargetStationaryLoss) {
  for (double target : {0.001, 0.01, 0.05, 0.2}) {
    for (double burst : {1.0, 4.0, 16.0}) {
      const auto ge = GilbertElliottConfig::from_average(target, burst);
      EXPECT_TRUE(ge.enabled);
      EXPECT_NEAR(ge.average_loss(), target, 1e-12) << "avg=" << target << " burst=" << burst;
    }
  }
}

TEST(GilbertElliott, BernoulliHelperIsSingleState) {
  const auto ge = GilbertElliottConfig::bernoulli(0.03);
  EXPECT_NEAR(ge.average_loss(), 0.03, 1e-12);
  EXPECT_EQ(ge.p_good_to_bad, 0.0);  // never enters the Bad state
}

TEST(GilbertElliott, InjectorMatchesAverageAndBurstStructure) {
  // Equal average rate, very different burst structure: the GE chain's drop
  // runs must be much longer than the i.i.d. model's at the same rate.
  const double rate = 0.02;
  const int n = 60000;

  // Each link counts into its own registry.
  sim::Simulator sim_iid;
  Link iid(sim_iid, instant_link(), util::Rng(11));
  FaultProfile iid_profile;
  iid_profile.gilbert_elliott = GilbertElliottConfig::bernoulli(rate);
  iid.set_fault_profile(iid_profile, util::Rng(21));
  obs::MetricsRegistry iid_metrics;
  std::vector<bool> iid_delivered;
  {
    obs::ScopedMetrics scope(&iid_metrics);
    iid_delivered = offer_packets(sim_iid, iid, n);
  }

  sim::Simulator sim_ge;
  Link ge(sim_ge, instant_link(), util::Rng(11));
  FaultProfile ge_profile;
  ge_profile.gilbert_elliott = GilbertElliottConfig::from_average(rate, 8.0);
  ge.set_fault_profile(ge_profile, util::Rng(21));
  obs::MetricsRegistry ge_metrics;
  std::vector<bool> ge_delivered;
  {
    obs::ScopedMetrics scope(&ge_metrics);
    ge_delivered = offer_packets(sim_ge, ge, n);
  }

  const double iid_rate = static_cast<double>(link_count(iid_metrics, "packets_dropped")) / n;
  const double ge_rate = static_cast<double>(link_count(ge_metrics, "packets_dropped")) / n;
  EXPECT_NEAR(iid_rate, rate, 0.005);
  EXPECT_NEAR(ge_rate, rate, 0.005);

  // i.i.d. drop runs at 2% loss are ~1 packet; mean-burst-8 runs are ~8.
  EXPECT_LT(mean_drop_run_length(iid_delivered), 2.0);
  EXPECT_GT(mean_drop_run_length(ge_delivered), 4.0);

  // Accounting: the classic Gilbert chain only drops in the Bad state.
  EXPECT_EQ(link_count(ge_metrics, "dropped.burst"), link_count(ge_metrics, "packets_dropped"));
  EXPECT_EQ(link_count(ge_metrics, "dropped.bernoulli"), 0u);
  // The degenerate chain never visits Bad: all drops are i.i.d.
  EXPECT_EQ(link_count(iid_metrics, "dropped.bernoulli"),
            link_count(iid_metrics, "packets_dropped"));
  EXPECT_EQ(link_count(iid_metrics, "dropped.burst"), 0u);
}

// --- Outages ----------------------------------------------------------------

TEST(FaultInjector, HardOutageDropsEverythingInsideTheWindow) {
  sim::Simulator sim;
  Link link(sim, instant_link(), util::Rng(3));
  FaultProfile profile;
  profile.outages.push_back(Outage{msec(100), msec(50), OutageKind::Hard});
  link.set_fault_profile(profile, util::Rng(4));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);

  std::vector<std::pair<TimePoint, bool>> results;  // offered-at, delivered
  for (int i = 0; i < 20; ++i) {
    const TimePoint at = msec(10 * i);  // 0,10,...,190 ms
    sim.schedule_at(at, [&link, &results, at] {
      auto slot = std::make_shared<bool>(false);
      results.emplace_back(at, false);
      const std::size_t idx = results.size() - 1;
      // Hard outages drop even "lossless" control packets: a dead link
      // delivers nothing.
      link.transmit(100, [&results, idx] { results[idx].second = true; },
                    /*lossless=*/true);
    });
  }
  sim.run();

  ASSERT_EQ(results.size(), 20u);
  std::uint64_t outage_drops = 0;
  for (const auto& [at, ok] : results) {
    const bool in_window = at >= msec(100) && at < msec(150);
    EXPECT_EQ(ok, !in_window) << "offered at " << at.count();
    outage_drops += in_window;
  }
  EXPECT_EQ(link_count(metrics, "dropped.outage"), outage_drops);
  EXPECT_EQ(link_count(metrics, "packets_dropped"), outage_drops);
}

TEST(FaultInjector, UdpBlackholeSparesTcp) {
  sim::Simulator sim;
  Link link(sim, instant_link(), util::Rng(3));
  FaultProfile profile;
  profile.outages.push_back(Outage{TimePoint{0}, sec(10), OutageKind::UdpBlackhole});
  link.set_fault_profile(profile, util::Rng(4));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);

  const auto tcp = offer_packets(sim, link, 50, PacketClass::Tcp);
  for (bool ok : tcp) EXPECT_TRUE(ok);

  const auto udp = offer_packets(sim, link, 50, PacketClass::Udp);
  for (bool ok : udp) EXPECT_FALSE(ok);

  // QUIC ACKs are UDP datagrams too: lossless exempts them from stochastic
  // loss, not from a blackholed path.
  const auto udp_lossless = offer_packets(sim, link, 10, PacketClass::Udp, /*lossless=*/true);
  for (bool ok : udp_lossless) EXPECT_FALSE(ok);

  EXPECT_EQ(link_count(metrics, "dropped.outage"), 60u);
}

// --- RTT spikes -------------------------------------------------------------

TEST(FaultInjector, RttSpikeDelaysPacketsInsideTheWindow) {
  sim::Simulator sim;
  Link link(sim, instant_link(), util::Rng(5));
  FaultProfile profile;
  profile.rtt_spikes.push_back(RttSpike{msec(100), msec(50), msec(40)});
  link.set_fault_profile(profile, util::Rng(6));

  std::vector<TimePoint> arrivals;
  sim.schedule_at(msec(10), [&] { link.transmit(100, [&] { arrivals.push_back(sim.now()); }); });
  sim.schedule_at(msec(120), [&] { link.transmit(100, [&] { arrivals.push_back(sim.now()); }); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(20));   // 10 + 10ms latency
  EXPECT_EQ(arrivals[1], msec(170));  // 120 + 10ms latency + 40ms spike
}

// --- Drop counters -----------------------------------------------------------

TEST(FaultInjector, DropCountersSplitByMechanism) {
  sim::Simulator sim;
  LinkConfig cfg = instant_link();
  cfg.loss_rate = 0.5;  // baseline Bernoulli drops alongside the outage
  Link link(sim, cfg, util::Rng(9));
  FaultProfile profile;
  profile.outages.push_back(Outage{msec(100), msec(100), OutageKind::Hard});
  link.set_fault_profile(profile, util::Rng(10));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);

  for (int i = 0; i < 200; ++i) link.transmit(100, [] {});  // t=0: baseline loss only
  sim.schedule_at(msec(150), [&] {
    for (int i = 0; i < 10; ++i) link.transmit(100, [] {});  // inside the outage
  });
  sim.run();

  EXPECT_EQ(link_count(metrics, "dropped.outage"), 10u);
  EXPECT_GT(link_count(metrics, "dropped.bernoulli"), 50u);  // ~100 of 200 at 50% loss
  EXPECT_EQ(link_count(metrics, "packets_dropped"),
            link_count(metrics, "dropped.bernoulli") + link_count(metrics, "dropped.burst") +
                link_count(metrics, "dropped.outage"));
}

TEST(FaultInjector, BreakdownSumsAcrossAllMechanisms) {
  sim::Simulator sim;
  LinkConfig cfg = instant_link();
  cfg.loss_rate = 0.01;  // baseline
  Link link(sim, cfg, util::Rng(13));
  FaultProfile profile;
  profile.gilbert_elliott = GilbertElliottConfig::from_average(0.05, 6.0);
  profile.outages.push_back(Outage{usec(0), usec(50), OutageKind::Hard});
  link.set_fault_profile(profile, util::Rng(14));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);

  // One packet per microsecond: the first 50 land in the outage window, the
  // rest face the stochastic mechanisms.
  for (int i = 0; i < 20000; ++i) {
    sim.schedule_at(usec(i), [&link] { link.transmit(100, [] {}); });
  }
  sim.run();
  const std::uint64_t bernoulli = link_count(metrics, "dropped.bernoulli");
  const std::uint64_t burst = link_count(metrics, "dropped.burst");
  const std::uint64_t dropped = link_count(metrics, "packets_dropped");
  EXPECT_GT(bernoulli, 0u);  // baseline Bernoulli still active
  EXPECT_GT(burst, 0u);
  EXPECT_EQ(dropped, bernoulli + burst + link_count(metrics, "dropped.outage"));
  EXPECT_EQ(link_count(metrics, "packets_offered"),
            link_count(metrics, "packets_delivered") + dropped);
}

// --- Determinism ------------------------------------------------------------

TEST(FaultInjector, IdenticalSeedsReplayIdenticalFaultSchedules) {
  auto run_once = [] {
    sim::Simulator sim;
    LinkConfig cfg = instant_link();
    cfg.loss_rate = 0.01;
    Link link(sim, cfg, util::Rng(77));
    FaultProfile profile;
    profile.gilbert_elliott = GilbertElliottConfig::from_average(0.03, 8.0);
    profile.rtt_spikes.push_back(RttSpike{msec(1), msec(2), msec(5)});
    link.set_fault_profile(profile, util::Rng(78));
    return offer_packets(sim, link, 5000);
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- NetPath integration ----------------------------------------------------

TEST(NetPathFaults, DirectionsGetIndependentBurstChains) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 0;
  NetPath path(sim, pc, util::Rng(31));
  FaultProfile profile;
  profile.gilbert_elliott = GilbertElliottConfig::from_average(0.1, 8.0);
  path.set_fault_profile(profile, util::Rng(32));

  // One direction at a time, each into its own registry. The chains step
  // per offered packet, so the order of the two directions does not matter.
  std::vector<bool> up(2000, false);
  obs::MetricsRegistry up_metrics;
  {
    obs::ScopedMetrics scope(&up_metrics);
    for (int i = 0; i < 2000; ++i) {
      path.send_up(100, [&up, i] { up[static_cast<std::size_t>(i)] = true; });
    }
    sim.run();
  }
  std::vector<bool> down(2000, false);
  obs::MetricsRegistry down_metrics;
  {
    obs::ScopedMetrics scope(&down_metrics);
    for (int i = 0; i < 2000; ++i) {
      path.send_down(100, [&down, i] { down[static_cast<std::size_t>(i)] = true; });
    }
    sim.run();
  }
  EXPECT_GT(link_count(up_metrics, "dropped.burst"), 0u);
  EXPECT_GT(link_count(down_metrics, "dropped.burst"), 0u);
  EXPECT_NE(up, down);  // independent fork streams => different realizations
}

TEST(NetPathFaults, AddOutageCoversBothDirections) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 0;
  NetPath path(sim, pc, util::Rng(41));
  path.add_outage(Outage{TimePoint{0}, sec(1), OutageKind::Hard});

  // One direction at a time, each into its own registry.
  bool up_ok = false;
  obs::MetricsRegistry up_metrics;
  {
    obs::ScopedMetrics scope(&up_metrics);
    path.send_up(100, [&] { up_ok = true; });
    sim.run();
  }
  bool down_ok = false;
  obs::MetricsRegistry down_metrics;
  {
    obs::ScopedMetrics scope(&down_metrics);
    path.send_down(100, [&] { down_ok = true; });
    sim.run();
  }
  EXPECT_FALSE(up_ok);
  EXPECT_FALSE(down_ok);
  EXPECT_EQ(link_count(up_metrics, "dropped.outage"), 1u);
  EXPECT_EQ(link_count(down_metrics, "dropped.outage"), 1u);
}

TEST(NetPathFaults, AccessLinkUdpBlackholeDropsOnlyQuicOnBothHops) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 0;
  NetPath path(sim, pc, util::Rng(61));
  Link access_up(sim, instant_link(), util::Rng(62));
  Link access_down(sim, instant_link(), util::Rng(63));
  FaultProfile blackhole;
  blackhole.outages.push_back(Outage{TimePoint{0}, sec(1), OutageKind::UdpBlackhole});
  access_up.set_fault_profile(blackhole, util::Rng(64));    // first hop up
  access_down.set_fault_profile(blackhole, util::Rng(65));  // second hop down
  path.attach_access(&access_up, &access_down);

  bool tcp_up = false, tcp_down = false, udp_up = false, udp_down = false;
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  path.send_up(100, [&] { tcp_up = true; }, /*lossless=*/true, PacketClass::Tcp);
  path.send_down(100, [&] { tcp_down = true; }, /*lossless=*/true, PacketClass::Tcp);
  path.send_up(100, [&] { udp_up = true; }, /*lossless=*/true, PacketClass::Udp);
  path.send_down(100, [&] { udp_down = true; }, /*lossless=*/true, PacketClass::Udp);
  sim.run();
  EXPECT_TRUE(tcp_up);
  EXPECT_TRUE(tcp_down);
  EXPECT_FALSE(udp_up);
  EXPECT_FALSE(udp_down);
  EXPECT_EQ(link_count(metrics, "dropped.outage"), 2u);
}

TEST(NetPathFaults, LosslessReachesBothHops) {
  sim::Simulator sim;
  PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 0;
  pc.loss_rate = 1.0;
  NetPath path(sim, pc, util::Rng(71));
  LinkConfig ac = instant_link();
  ac.loss_rate = 1.0;
  Link access_up(sim, ac, util::Rng(72));
  Link access_down(sim, ac, util::Rng(73));
  path.attach_access(&access_up, &access_down);

  int lossless = 0;
  int lossy = 0;
  for (int i = 0; i < 10; ++i) {
    path.send_up(100, [&] { ++lossless; }, /*lossless=*/true, PacketClass::Udp);
    path.send_down(100, [&] { ++lossless; }, /*lossless=*/true, PacketClass::Udp);
    path.send_up(100, [&] { ++lossy; });
    path.send_down(100, [&] { ++lossy; });
  }
  sim.run();
  EXPECT_EQ(lossless, 20);
  EXPECT_EQ(lossy, 0);
}

// --- set_loss_rate validation (satellite) -----------------------------------

TEST(LinkLossRate, ClampsFloatingPointOvershoot) {
  sim::Simulator sim;
  Link link(sim, instant_link(), util::Rng(51));
  link.set_loss_rate(1.0 + 1e-9);  // e.g. baseline + injected sums
  EXPECT_EQ(link.config().loss_rate, 1.0);
  bool ok = false;
  link.transmit(100, [&] { ok = true; });
  sim.run();
  EXPECT_FALSE(ok);  // rate 1.0 drops everything

  link.set_loss_rate(-1e-9);
  EXPECT_EQ(link.config().loss_rate, 0.0);
}

TEST(LinkLossRateDeathTest, RejectsGrossViolationsAndNaN) {
  sim::Simulator sim;
  Link link(sim, instant_link(), util::Rng(52));
  EXPECT_DEATH(link.set_loss_rate(1.5), "precondition");
  EXPECT_DEATH(link.set_loss_rate(-0.2), "precondition");
  EXPECT_DEATH(link.set_loss_rate(std::nan("")), "precondition");
}

}  // namespace
}  // namespace h3cdn::net
