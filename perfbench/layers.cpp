#include "layers.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "browser/browser.h"
#include "browser/environment.h"
#include "harness.h"
#include "net/link.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "stats.h"
#include "transport/connection.h"
#include "util/rng.h"
#include "web/workload.h"

namespace perfbench {

using namespace h3cdn;

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// 1M schedule_at at pseudo-random times over 10 s of virtual time, a quarter
// of them cancelled, the rest drained: the schedule/cancel/pop mix of a run.
double sim_ns_per_event(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::uint64_t kHorizonUs = 10'000'000;
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);
  std::uint64_t sink = 0;
  std::uint64_t lcg = seed | 1;
  const double elapsed = time_s([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      ids.push_back(sim.schedule_at(usec(static_cast<std::int64_t>((lcg >> 16) % kHorizonUs)),
                                    [&sink, i] { sink += i; }));
    }
    for (std::uint64_t i = 0; i < kEvents; i += 4) sim.cancel(ids[i]);
    sim.run();
  });
  return sink == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(kEvents);
}

double net_ns_per_packet(std::uint64_t seed) {
  constexpr int kPackets = 500'000;
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  net::Link link(sim, cfg, util::Rng(seed));
  int delivered = 0;
  const double elapsed = time_s([&] {
    for (int i = 0; i < kPackets; ++i) link.transmit(1400, [&delivered] { ++delivered; });
    sim.run();
  });
  return delivered == kPackets ? elapsed * 1e9 / kPackets : 0.0;
}

// Median wall time of one connection carrying 16 concurrent 20 KB responses.
double transport_fetch_us(std::uint64_t seed, tls::TransportKind kind, double loss) {
  constexpr int kTransfers = 40;
  std::vector<double> us;
  for (int t = 0; t < kTransfers; ++t) {
    sim::Simulator sim;
    net::PathConfig pc;
    pc.rtt = msec(20);
    pc.bandwidth_bps = 200e6;
    pc.loss_rate = loss;
    const util::Rng rng(util::derive_seed({seed, static_cast<std::uint64_t>(t)}));
    net::NetPath path(sim, pc, rng.fork("path"));
    int done = 0;
    const double elapsed = time_s([&] {
      auto conn = transport::Connection::create(sim, path, kind, tls::TlsVersion::Tls13,
                                                tls::HandshakeMode::Fresh, rng.fork("conn"));
      conn->connect([](TimePoint) {});
      for (int s = 0; s < 16; ++s) {
        transport::FetchCallbacks cbs;
        cbs.on_complete = [&done](TimePoint) { ++done; };
        conn->fetch(500, 20'000, msec(3), std::move(cbs));
      }
      sim.run();
    });
    if (done != 16) return 0.0;
    us.push_back(elapsed * 1e6);
  }
  return median(us);
}

// Host wall time of Browser::visit_and_run over the 325 pages of the default
// dataset, once per protocol mode: the per-page cost of the whole
// sim->net->transport->http->browser stack.
void browser_visits(std::uint64_t seed, std::map<std::string, double>& out) {
  const web::Workload workload = web::generate_workload();
  std::vector<double> ms;
  for (const bool h3 : {false, true}) {
    for (std::size_t i = 0; i < workload.sites.size(); ++i) {
      const util::Rng rng(util::derive_seed({seed, i, h3 ? 3u : 2u}));
      sim::Simulator sim;
      browser::Environment env(sim, workload.universe, browser::VantageConfig{}, rng.fork("env"));
      env.warm_page(workload.sites[i].page);
      browser::BrowserConfig bc;
      bc.h3_enabled = h3;
      browser::Browser browser(sim, env, nullptr, bc, rng.fork("browser"));
      ms.push_back(1e3 * time_s([&] { (void)browser.visit_and_run(workload.sites[i].page); }));
    }
  }
  out["browser.visit_p50_ms"] = percentile(ms, 0.50);
  out["browser.visit_p98_ms"] = percentile(ms, 0.98);
}

}  // namespace

void add_registry_layers(const core::RunObservability& obs, double visits, double run_wall_s,
                         int jobs, std::map<std::string, double>& out) {
  const auto& counters = obs.metrics().counters();
  auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second->value());
  };
  const auto& phases = obs.profiler().phases();
  auto span_s = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
  };
  const auto& histograms = obs.metrics().histograms();
  const auto handshake = histograms.find("transport.handshake.duration_ms");

  const double sim_run = span_s("sim.run");
  out["sim.events_per_visit"] = ratio(counter("sim.events_executed"), visits);
  out["sim.run_ms"] = sim_run * 1e3;

  const double offered = counter("net.link.packets_offered");
  out["net.packets_per_visit"] = ratio(offered, visits);
  out["net.drop_ratio"] = ratio(counter("net.link.packets_dropped"), offered);
  out["net.transmit_share"] = ratio(span_s("net.link.transmit"), sim_run);

  out["transport.connections_per_visit"] = ratio(counter("transport.connections_opened"), visits);
  out["transport.packets_sent_per_visit"] = ratio(counter("transport.packets_sent"), visits);
  out["transport.retransmissions_per_visit"] = ratio(counter("transport.retransmissions"), visits);
  out["transport.stall_spans_per_visit"] = ratio(counter("transport.stall.spans"), visits);
  out["transport.handshake_ms"] = handshake == histograms.end() ? 0.0 : handshake->second->mean();

  const double resumed = counter("tls.handshake.resumed") + counter("tls.handshake.zero_rtt");
  out["tls.resumed_share"] = ratio(resumed, resumed + counter("tls.handshake.fresh"));

  const double queries = counter("dns.queries");
  out["dns.queries_per_visit"] = ratio(queries, visits);
  out["dns.stub_hit_ratio"] = ratio(counter("dns.stub_cache_hits"), queries);

  const double connections = counter("http.pool.connections.h1") +
                             counter("http.pool.connections.h2") +
                             counter("http.pool.connections.h3");
  const double entries = counter("http.entries_submitted");
  out["http.entries_per_connection"] = ratio(entries, connections);
  out["failed_request_share"] = ratio(counter("http.entries_failed"), entries);
  out["http.refused_dials"] = counter("http.pool.connections_refused");
  out["http.refusal_retries"] = counter("http.pool.refusal_retries");

  const double hits = counter("cdn.edge.cache_hits");
  out["cdn.edge_hit_ratio"] = ratio(hits, hits + counter("cdn.edge.cache_misses"));
  out["cdn.edge_refused"] = counter("cdn.edge.refused");
  out["cdn.warm_ms"] = span_s("study.warm_caches") * 1e3;

  out["browser.setup_ms"] = span_s("browser.visit_setup") * 1e3;
  out["browser.assembly_ms"] = span_s("browser.page_assembly") * 1e3;

  out["obs.traces_dropped"] = counter("obs.traces_dropped");
  // Spans of every worker add up, so the time base is wall × threads.
  out["core.outside_sim_share"] =
      sim_run > 0.0 ? 1.0 - ratio(sim_run, run_wall_s * std::max(jobs, 1)) : 0.0;
}

void add_layer_probes(std::uint64_t seed, std::map<std::string, double>& out) {
  out["sim.ns_per_event"] = sim_ns_per_event(seed);
  out["net.ns_per_packet"] = net_ns_per_packet(seed);
  for (const bool lossy : {false, true}) {
    const double loss = lossy ? 0.01 : 0.0;
    const std::string suffix = lossy ? "_lossy" : "_clean";
    out["transport.fetch_us.tcp" + suffix] =
        transport_fetch_us(seed, tls::TransportKind::Tcp, loss);
    out["transport.fetch_us.quic" + suffix] =
        transport_fetch_us(seed, tls::TransportKind::Quic, loss);
  }
  browser_visits(seed, out);
}

}  // namespace perfbench
