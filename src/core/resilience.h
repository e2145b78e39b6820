// Resilience experiment: what happens when the network misbehaves?
//
// The paper's Fig. 9 sweeps i.i.d. Bernoulli loss. This driver extends that
// methodology along two axes the live-Internet study could not control:
//
//   * Burst-vs-Bernoulli — equal-average-rate loss, i.i.d. vs Gilbert-
//     Elliott bursts, measured for H2-only and H3-enabled page loads.
//     Bursty loss kills whole congestion windows at once, so H2's in-order
//     wall turns each burst into a connection-wide RTO stall; the PLT tail
//     (p95) separates far more than the mean.
//
//   * Outage sweep — a mid-transfer outage (UDP blackhole by default: the
//     middlebox failure Chrome's H3->H2 fallback exists for) of varying
//     duration on the probe's access link. Reports how often pages needed
//     the fallback, how many requests were transparently rescued onto H2,
//     and the recovery cost: the per-page PLT penalty against a fault-free
//     run of the *same seed* (byte-identical except for the fault schedule,
//     so the delta isolates the outage's cost exactly).
//
// Fully deterministic: the same config produces byte-identical fault
// schedules, metrics, and row ordering — at any `jobs` setting. Every
// (condition, site) visit pair is one core::run_sweep cell (core/sweep.h)
// that reads its link drop counters from its own observability shard; rows
// fold per condition, in site order, afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "browser/environment.h"
#include "net/fault.h"
#include "transport/connection.h"
#include "util/types.h"
#include "web/workload.h"

namespace h3cdn::core {

struct ResilienceConfig {
  std::size_t sites = 16;      // truncates the generated workload
  std::uint64_t seed = 7;
  // Worker threads for the (condition, site) sweep (0 = hardware
  // concurrency). Rows are byte-identical for any job count.
  int jobs = 0;
  web::WorkloadConfig workload;
  browser::VantageConfig vantage;  // geography; fault_profile is overwritten

  // Burst-vs-Bernoulli sweep: each rate is measured twice at equal average
  // loss — once i.i.d., once Gilbert-Elliott with this mean burst length.
  std::vector<double> loss_rates = {0.005, 0.01, 0.02};
  double mean_burst_packets = 8.0;

  // Outage sweep: one fault interval per page visit, opening at
  // `outage_start` into the load.
  std::vector<Duration> outage_durations = {msec(200), msec(500), sec(1)};
  TimePoint outage_start = msec(120);
  net::OutageKind outage_kind = net::OutageKind::UdpBlackhole;

  // Resilience knobs under test (handshake retry cap, blackhole detector,
  // ...). The defaults give up within ~2 s of a blackhole on short paths.
  transport::TransportConfig transport;
};

/// One cell of the burst-vs-Bernoulli sweep.
struct LossTailRow {
  double loss_rate = 0.0;
  bool bursty = false;  // false: i.i.d. at the same average rate
  std::size_t pages = 0;
  double h2_mean_plt_ms = 0.0;
  double h2_p95_plt_ms = 0.0;
  double h3_mean_plt_ms = 0.0;
  double h3_p95_plt_ms = 0.0;
  // Link drop-reason breakdown over all visits of this cell, read from the
  // metrics registry (the same counters net::Link reports everywhere).
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t dropped_bernoulli = 0;
  std::uint64_t dropped_burst = 0;
};

/// One cell of the outage sweep (H3-enabled visits).
struct OutageRow {
  Duration outage{0};
  std::size_t pages = 0;
  std::uint64_t connection_deaths = 0;
  std::uint64_t h3_fallbacks = 0;      // H3 sessions degraded to H2
  std::uint64_t requests_rescued = 0;  // entries transparently re-submitted
  std::uint64_t requests_failed = 0;   // entries that exhausted retries
  double fallback_page_rate = 0.0;     // fraction of pages with >= 1 fallback
  // PLT penalty vs the same-seed fault-free run, over affected pages.
  double mean_recovery_ms = 0.0;
  double p95_recovery_ms = 0.0;
  double max_recovery_ms = 0.0;
  // Link drop-reason breakdown over all visits of this cell, read from the
  // metrics registry (single source of truth with every other consumer).
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t dropped_outage = 0;
};

struct ResilienceResult {
  std::vector<LossTailRow> loss_rows;
  std::vector<OutageRow> outage_rows;
};

ResilienceResult run_resilience(const ResilienceConfig& config);

}  // namespace h3cdn::core
