// qlog-style transport tracing: run the same multiplexed transfer over
// TCP(H2-style) and QUIC(H3-style) on a lossy path with tracing attached,
// dump both event logs as qlog JSON, and print a side-by-side recovery
// digest — the packet-level view behind the paper's Fig. 9.
//
//   ./build/examples/qlog_tracing [loss_percent] [out_prefix]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "net/path.h"
#include "obs/trace_log.h"
#include "sim/simulator.h"
#include "transport/connection.h"

using namespace h3cdn;

namespace {

struct RunOutcome {
  obs::TraceLog log;  // one track: the connection's
  double last_completion_ms = 0.0;
  transport::ConnectionStats stats;
};

void run(tls::TransportKind kind, double loss, const std::string& label, RunOutcome& out) {
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(25);
  pc.bandwidth_bps = 100e6;
  pc.loss_rate = loss;
  net::NetPath path(sim, pc, util::Rng(42));

  auto conn = transport::Connection::create(sim, path, kind, tls::TlsVersion::Tls13,
                                            tls::HandshakeMode::Fresh, util::Rng(7), {});
  conn->set_trace(out.log.open(label));
  conn->connect([](TimePoint) {});
  for (int s = 0; s < 20; ++s) {
    transport::FetchCallbacks cbs;
    cbs.on_complete = [&out](TimePoint t) {
      out.last_completion_ms = std::max(out.last_completion_ms, to_ms(t));
    };
    conn->fetch(500, 25'000, msec(3), std::move(cbs));
  }
  sim.run();
  out.stats = conn->stats();
}

}  // namespace

int main(int argc, char** argv) {
  const double loss = (argc > 1 ? std::atof(argv[1]) : 2.0) / 100.0;
  const std::string prefix = argc > 2 ? argv[2] : "qlog";

  std::printf("20 multiplexed 25KB transfers, 25ms RTT, %.1f%% loss\n\n", loss * 100);
  std::printf("%-34s %12s %12s\n", "metric", "TCP (h2)", "QUIC (h3)");

  const std::string tcp_file = prefix + "_tcp.qlog.json";
  const std::string quic_file = prefix + "_quic.qlog.json";
  RunOutcome tcp;
  RunOutcome quic;
  run(tls::TransportKind::Tcp, loss, tcp_file, tcp);
  run(tls::TransportKind::Quic, loss, quic_file, quic);

  auto row = [&](const char* name, auto get) {
    std::printf("%-34s %12llu %12llu\n", name,
                static_cast<unsigned long long>(get(tcp)),
                static_cast<unsigned long long>(get(quic)));
  };
  std::printf("%-34s %9.1f ms %9.1f ms\n", "last stream completion",
              tcp.last_completion_ms, quic.last_completion_ms);
  row("packets sent", [](const RunOutcome& r) { return r.stats.packets_sent; });
  row("packets lost", [](const RunOutcome& r) { return r.stats.packets_declared_lost; });
  row("retransmissions", [](const RunOutcome& r) { return r.stats.retransmissions; });
  row("loss-timer (RTO/PTO) fires", [](const RunOutcome& r) { return r.stats.rto_fires; });
  row("cwnd updates traced", [](const RunOutcome& r) {
    return r.log.tracks().front().count(obs::TraceEventType::CwndUpdated);
  });

  for (const auto& [name, outcome] : {std::pair{&tcp_file, &tcp}, std::pair{&quic_file, &quic}}) {
    std::ofstream file(*name);
    file << obs::to_qlog_json(outcome->log);
    std::printf("\nwrote %s (%zu events)", name->c_str(), outcome->log.event_count());
  }
  std::printf("\n\nTCP repairs tail losses on a >=200ms RTO that stalls every stream\n"
              "(head-of-line blocking); QUIC's time-threshold detection and rtt-scale\n"
              "PTO confine the stall to the afflicted stream — the Fig. 9 mechanism.\n");
  return 0;
}
