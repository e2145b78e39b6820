// Fleet-scale load sweep (h3cdn_study --experiment load, docs/LOAD.md).
//
// Sweeps offered load across cells of (rate x protocol): each cell runs a
// virtual-client fleet against its own capacity-limited ServerFarm on a
// private Simulator, so cells are embarrassingly parallel and merge
// deterministically through core::run_sweep (core/sweep.h). Both protocol modes
// of a rate share one seed root (paired arrivals and client paths); only the
// server-noise salt differs, matching the probe-run convention.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "core/observability.h"
#include "load/arrival.h"
#include "load/fleet.h"
#include "web/workload.h"

namespace h3cdn::load {

struct LoadStudyConfig {
  web::WorkloadConfig workload;
  std::size_t sites = 8;  // pages visits rotate over

  // Sweep axis: pages/sec for the open-loop kinds, population size for
  // ClosedLoop.
  std::vector<double> offered_rates = {2.0, 8.0, 32.0};
  ArrivalKind arrival = ArrivalKind::Poisson;
  Duration window = sec(10);
  double peak_ratio = 3.0;      // DiurnalRamp shape
  Duration think_mean = sec(2); // ClosedLoop think time

  Duration queue_sample_interval = msec(250);

  // Capacity sized so the default rate sweep crosses the edge's knee: the
  // low-rate cell stays idle-ish, the high-rate cell queues and refuses.
  cdn::EdgeCapacityConfig capacity{.enabled = true,
                                   .think_cores = 2,
                                   .accept_queue_depth = 16,
                                   .max_concurrent_connections = 48};

  browser::VantageConfig vantage;
  browser::BrowserConfig browser;
  // Heterogeneous access links per population member (load/fleet.h). Empty =
  // homogeneous `vantage`.
  std::vector<LinkMixEntry> link_mix;
  // Coreset mode: every cell simulates a stratified sample of its population
  // with extrapolation weights (docs/SCALING.md §4). target 0 = full runs.
  SamplingConfig sampling;
  std::uint64_t seed = 20221010;
  int jobs = 1;  // 0 = hardware concurrency
};

struct LoadCellRow {
  double offered_rate = 0.0;
  bool h3 = false;
  std::size_t arrivals = 0;
  std::size_t visits = 0;
  std::size_t failed_visits = 0;  // root document never loaded
  std::size_t clients = 0;        // distinct virtual clients the cell needed
  std::size_t population = 0;  // planned members before sampling
  std::size_t sampled = 0;     // coreset size (0 when the full population ran)
  double est_arrivals = 0.0;   // Σ weight: extrapolated completed-visit count
  double n_eff = 0.0;          // Kish effective sample size of the PLT sample
  double plt_p50_ms = 0.0;
  double plt_p95_ms = 0.0;
  double plt_p95_lo_ms = 0.0;  // rank-CI bound (== p95 in full runs)
  double plt_p95_hi_ms = 0.0;
  double plt_p99_ms = 0.0;
  double ttfb_p50_ms = 0.0;
  double ttfb_p95_ms = 0.0;
  // QoE beyond PLT (obs::compute_qoe; count:0-only convention — when no
  // visit produced a waterfall the sample count is 0 and the p95 prints 0).
  std::size_t qoe_samples = 0;
  double qoe_fcp_p95_ms = 0.0;
  std::uint64_t connections_created = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t refusal_retries = 0;
  std::uint64_t requests_failed = 0;
  double refusal_rate = 0.0;  // refused dials / all dials
  double mean_queue_depth = 0.0;
  std::size_t max_queue_depth = 0;
  double mean_busy_cores = 0.0;
  std::size_t max_concurrent = 0;  // peak concurrent connections sampled
  std::uint64_t sim_events = 0;    // simulator events the cell executed
  obs::PhaseVector mean_phases;    // critical-path attribution per visit
  std::vector<QueueSample> queue_series;
};

struct LoadResult {
  std::size_t sites = 0;
  ArrivalKind arrival = ArrivalKind::Poisson;
  Duration window{0};
  std::vector<LoadCellRow> rows;  // rate-major, H2 before H3
};

/// Runs the sweep. When `observability` is non-null, every cell records into
/// its own shard (metrics, timeline, profile: load.*, cdn.edge.*,
/// transport.*, ...), merged into it in canonical cell order — byte-identical
/// output at any --jobs.
LoadResult run_load_study(const LoadStudyConfig& config,
                          core::RunObservability* observability = nullptr);

void print_load_result(std::ostream& os, const LoadResult& result);

/// Accuracy check for coreset mode: every cell's full-population p95 PLT must
/// fall inside the paired sampled cell's reported [lo, hi] rank-CI. Writes a
/// per-cell comparison to `os`; returns false on any violation (CI smoke and
/// --fleet-sample-verify hook this).
bool verify_sampling_accuracy(const LoadResult& sampled, const LoadResult& full,
                              std::ostream& os);

/// Machine-readable form (one row per cell + compact queue time series);
/// also the byte-identity surface for the --jobs determinism tests.
std::string load_result_to_csv(const LoadResult& result);

}  // namespace h3cdn::load
