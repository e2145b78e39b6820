// Micro-benchmarks of the simulator substrate itself: event-loop throughput,
// scheduler churn, link transmission, transport transfers, and a full page
// visit. These bound how fast full-scale studies can run and catch
// performance regressions.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iomanip>

#include "bench_common.h"
#include "browser/browser.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "transport/connection.h"
#include "web/workload.h"

namespace {

using namespace h3cdn;

void BM_EventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) sim.schedule_at(usec(i), [] {});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoop)->Unit(benchmark::kMillisecond);

void BM_LinkTransmit(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    net::Link link(sim, cfg, util::Rng(1));
    int delivered = 0;
    for (int i = 0; i < 5000; ++i) link.transmit(1400, [&] { ++delivered; });
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_LinkTransmit)->Unit(benchmark::kMillisecond);

void transfer_benchmark(benchmark::State& state, tls::TransportKind kind, double loss) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::PathConfig pc;
    pc.rtt = msec(20);
    pc.bandwidth_bps = 200e6;
    pc.loss_rate = loss;
    net::NetPath path(sim, pc, util::Rng(7));
    auto conn = transport::Connection::create(sim, path, kind, tls::TlsVersion::Tls13,
                                              tls::HandshakeMode::Fresh, util::Rng(9), {});
    conn->connect([](TimePoint) {});
    int done = 0;
    for (int s = 0; s < 16; ++s) {
      transport::FetchCallbacks cbs;
      cbs.on_complete = [&](TimePoint) { ++done; };
      conn->fetch(500, 20'000, msec(3), std::move(cbs));
    }
    sim.run();
    benchmark::DoNotOptimize(done);
    bytes += 16 * 20'000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_TcpTransfer(benchmark::State& state) {
  transfer_benchmark(state, tls::TransportKind::Tcp, 0.0);
}
void BM_QuicTransfer(benchmark::State& state) {
  transfer_benchmark(state, tls::TransportKind::Quic, 0.0);
}
void BM_TcpTransferLossy(benchmark::State& state) {
  transfer_benchmark(state, tls::TransportKind::Tcp, 0.01);
}
void BM_QuicTransferLossy(benchmark::State& state) {
  transfer_benchmark(state, tls::TransportKind::Quic, 0.01);
}
BENCHMARK(BM_TcpTransfer)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuicTransfer)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcpTransferLossy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuicTransferLossy)->Unit(benchmark::kMillisecond);

void BM_FullPageVisit(benchmark::State& state) {
  web::WorkloadConfig cfg;
  cfg.site_count = 4;
  const auto workload = web::generate_workload(cfg);
  std::size_t entries = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
    env.warm_page(workload.sites[0].page);
    browser::BrowserConfig bc;
    browser::Browser browser(sim, env, nullptr, bc, util::Rng(5));
    auto result = browser.visit_and_run(workload.sites[0].page);
    entries += result.har.entries.size();
    benchmark::DoNotOptimize(result.har.page_load_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_FullPageVisit)->Unit(benchmark::kMillisecond);

// Scheduler churn: 1M events scheduled with pseudo-random times, a quarter
// cancelled, the rest drained — the schedule/cancel/pop mix a fleet run
// produces. Captures are 24 bytes (past std::function's typical inline
// buffer, within SmallFn's 48).
struct SchedulerRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;     // schedule ops issued
  std::uint64_t fired = 0;
  double events_per_sec = 0.0;
};

SchedulerRun scheduler_churn() {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::uint64_t kHorizonUs = 10'000'000;  // 10 s of virtual time
  SchedulerRun out;
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const TimePoint at = usec((lcg >> 16) % kHorizonUs);
    ids.push_back(sim.schedule_at(at, [&sink, i, salt = lcg] { sink += i ^ salt; }));
  }
  for (std::uint64_t i = 0; i < kEvents; i += 4) sim.cancel(ids[i]);  // 25% churn
  out.fired = sim.run();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  benchmark::DoNotOptimize(sink);
  out.events = kEvents;
  out.events_per_sec = out.wall_s > 0.0 ? static_cast<double>(kEvents) / out.wall_s : 0.0;
  return out;
}

void reproduce(std::ostream& os, bench::BenchReport& report) {
  const SchedulerRun cal = scheduler_churn();
  os << "scheduler churn (1M events, 25% cancelled, drained):\n" << std::fixed
     << "  wall ms " << std::setprecision(1) << cal.wall_s * 1000.0 << ", fired " << cal.fired
     << ", events/sec " << std::setprecision(0) << cal.events_per_sec << "\n";
  report.add("sched_calendar_events_per_sec", cal.events_per_sec, "per_sec");
}

}  // namespace

int main(int argc, char** argv) {
  return h3cdn::bench::run_bench_main(
      argc, argv, "Simulator substrate micro-benchmarks + scheduler churn",
      reproduce);
}
