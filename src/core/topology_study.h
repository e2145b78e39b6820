// Multi-hop topology experiment (h3cdn_study --experiment topology,
// docs/TOPOLOGY.md).
//
// Sweeps PathPlans (per-hop protocol choices, e.g. h3-h2 = QUIC to the relay,
// H2 upstream) × injected loss rates. Each cell runs a single probe through a
// private topology::Chain — forward proxy / mid-tier cache relays with their
// own upstream connection pools — and reports the critical-path PLT
// dissection end-to-end AND per hop. The per-hop vectors re-aggregate to the
// end-to-end dissection exactly (±1 µs; the cell checks it as an invariant).
// Single-token plans ("h3", "h2") are direct single-hop baselines, which is
// where the proxied-vs-direct deltas come from (the sweep's headline).
//
// Cells run through core::run_sweep (core/sweep.h) and merge in canonical
// (plan-major, then loss) order: every artifact is byte-identical at any
// --jobs, which CI's topology smoke step pins.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/environment.h"
#include "core/observability.h"
#include "obs/critical_path.h"
#include "topology/chain.h"
#include "web/workload.h"

namespace h3cdn::core {

struct TopologyConfig {
  web::WorkloadConfig workload;
  std::size_t sites = 6;  // pages visited per cell

  // Swept path plans (PathPlan grammar: hyphen-joined h2/h3 hop tokens).
  // A direct single-hop baseline per distinct client-facing protocol of
  // `plans` is always appended (the proxied-vs-direct comparison surface).
  std::vector<std::string> plans = {"h3-h3", "h3-h2", "h2-h3"};
  std::vector<double> loss_rates = {0.0, 0.01};

  browser::VantageConfig vantage;
  browser::BrowserConfig browser;
  // Relay template: links/cache/think knobs; `plan` is overwritten per cell.
  topology::ChainConfig chain;

  std::uint64_t seed = 7;
  int jobs = 0;  // 0 = hardware concurrency; output identical for any value
};

/// One row of the sweep: a (plan, loss) cell's end-to-end dissection
/// ("e2e") or one of its per-hop slices ("hop0" = client-facing hop,
/// "hop1"... = relay upstream fetches).
struct TopologyHopRow {
  std::string plan;
  double loss_rate = 0.0;
  std::string hop;  // "e2e", "hop0", "hop1", ...
  std::size_t pages = 0;

  double mean_plt_ms = 0.0;  // e2e rows; hop rows repeat the cell value
  double p95_plt_ms = 0.0;
  obs::PhaseVector mean_phases;  // mean attribution vector of this slice

  // e2e rows: worst |sum_hop - e2e| over phases and pages, microseconds
  // (the re-aggregation invariant; must stay <= 1).
  double reagg_residual_us = 0.0;
  double tier_hit_ratio = 0.0;  // e2e rows of chained cells (cold-start ratio)
  std::uint64_t relayed_requests = 0;
  std::uint64_t holds_killed = 0;

  std::vector<std::string> violations;  // e2e rows; empty = invariants held
};

struct TopologyResult {
  std::size_t sites = 0;
  std::vector<std::string> plans;  // swept plan names, canonical order
  std::vector<TopologyHopRow> rows;

  [[nodiscard]] bool all_passed() const;
};

/// Runs every (plan, loss) cell (parallel across cells, deterministic merge).
/// When `observability` is non-null each cell's metrics, timeline, and
/// per-page waterfalls (with their upstream_hops provenance) merge into it in
/// canonical cell order.
TopologyResult run_topology(const TopologyConfig& config,
                            RunObservability* observability = nullptr);

void print_topology_result(std::ostream& os, const TopologyResult& result);

/// Machine-readable form, one row per (plan, loss, hop); the byte-identity
/// surface for the --jobs determinism checks.
std::string topology_result_to_csv(const TopologyResult& result);

}  // namespace h3cdn::core
