#include "core/topology_study.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "browser/waterfall.h"
#include "core/sweep.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/table.h"

namespace h3cdn::core {

bool TopologyResult::all_passed() const {
  for (const TopologyHopRow& row : rows) {
    if (!row.violations.empty()) return false;
  }
  return true;
}

namespace {

struct TopoCell {
  topology::PathPlan plan;
  double loss_rate = 0.0;
};

std::string loss_label(double loss_rate) { return util::fmt(loss_rate * 100.0, 2); }

/// One (plan, loss) cell's rows: e2e first, then hop0..hopN. `sink` is the
/// cell's run_sweep shard (null when observability is off).
std::vector<TopologyHopRow> run_topology_cell(const web::Workload& workload,
                                              const TopologyConfig& config, const TopoCell& cell,
                                              RunObservability* sink) {
  std::vector<TopologyHopRow> out;
  // Every cell draws from the SAME rng root on purpose: environments, chains
  // and browsers replay identical random streams, so plan-vs-plan and
  // proxied-vs-direct deltas are paired comparisons — only the per-hop
  // protocols and the injected loss differ between cells.
  sim::Simulator sim;
  util::Rng root(util::derive_seed({config.seed, 0x70F0ULL}));

  browser::VantageConfig vantage = config.vantage;
  vantage.loss_rate = cell.loss_rate;
  browser::Environment env(sim, workload.universe, vantage, root.fork("env"));

  std::unique_ptr<topology::Chain> chain;
  if (!cell.plan.direct()) {
    topology::ChainConfig cc = config.chain;
    cc.plan = cell.plan;
    chain = std::make_unique<topology::Chain>(sim, workload.universe, cc, root.fork("chain"));
    env.set_topology(chain.get());
  }

  browser::BrowserConfig bc = config.browser;
  bc.h3_enabled = cell.plan.hop_h3(0);
  browser::Browser browser(sim, env, nullptr, bc, root.fork("browser"));

  const std::string run_label =
      "topology/" + cell.plan.name() + "/loss" + loss_label(cell.loss_rate);
  const std::size_t sites = std::min(config.sites, workload.sites.size());

  std::vector<double> plt_ms;
  obs::PhaseVector e2e_sum;
  std::vector<obs::PhaseVector> hop_sums;
  double plt_sum_ms = 0.0;
  double max_reagg_us = 0.0;
  double max_phase_residual_ms = 0.0;

  for (std::size_t si = 0; si < sites; ++si) {
    const web::WebPage& page = workload.sites[si].page;
    env.warm_page(page);
    browser::PageLoadResult load = browser.visit_and_run(page);

    obs::Waterfall wf = browser::make_waterfall(load.har, run_label);
    const obs::CriticalPathResult cp = obs::analyze_critical_path(wf);
    plt_ms.push_back(cp.plt_ms);
    plt_sum_ms += cp.plt_ms;
    e2e_sum += cp.phases;
    max_phase_residual_ms =
        std::max(max_phase_residual_ms, std::abs(cp.phases.sum() - cp.plt_ms));

    // The re-aggregation invariant, per page: the hop slices must sum back to
    // the end-to-end vector phase-for-phase.
    if (cp.by_hop.empty()) {
      if (hop_sums.empty()) hop_sums.resize(1);
      hop_sums[0] += cp.phases;
    } else {
      obs::PhaseVector reagg;
      if (hop_sums.size() < cp.by_hop.size()) hop_sums.resize(cp.by_hop.size());
      for (std::size_t h = 0; h < cp.by_hop.size(); ++h) {
        hop_sums[h] += cp.by_hop[h];
        reagg += cp.by_hop[h];
      }
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        max_reagg_us = std::max(max_reagg_us, std::abs(reagg.ms[p] - cp.phases.ms[p]) * 1e3);
      }
    }

    if (sink != nullptr) sink->add_waterfall(std::move(wf));
    // Idle gap between visits: lets relay pools close idle upstream sessions
    // the same way a paced probe client would.
    sim.schedule_in(msec(100), [] {});
    sim.run();
  }
  if (chain != nullptr) chain->close();

  std::sort(plt_ms.begin(), plt_ms.end());
  const double mean_plt = sites > 0 ? plt_sum_ms / static_cast<double>(sites) : 0.0;
  const double p95_plt = util::quantile_sorted(plt_ms, 0.95);

  TopologyHopRow e2e;
  e2e.plan = cell.plan.name();
  e2e.loss_rate = cell.loss_rate;
  e2e.hop = "e2e";
  e2e.pages = sites;
  e2e.mean_plt_ms = mean_plt;
  e2e.p95_plt_ms = p95_plt;
  e2e.mean_phases = e2e_sum;
  if (sites > 0) e2e.mean_phases /= static_cast<double>(sites);
  e2e.reagg_residual_us = max_reagg_us;
  if (chain != nullptr) {
    e2e.relayed_requests = chain->relayed_requests();
    e2e.holds_killed = chain->holds_killed();
    if (const topology::TierCache* tc = chain->tier_cache(); tc != nullptr) {
      const std::uint64_t lookups = tc->hits() + tc->misses();
      e2e.tier_hit_ratio =
          lookups > 0 ? static_cast<double>(tc->hits()) / static_cast<double>(lookups) : 0.0;
    }
  }

  // Invariants (ISSUE 10): the dissection stays additive end-to-end AND
  // across hops, and a chained cell actually routed traffic over its relays.
  if (max_reagg_us > 1.0) {
    e2e.violations.push_back("reagg-residual: " + util::fmt(max_reagg_us, 3) + " us");
  }
  if (max_phase_residual_ms > 1e-3) {
    e2e.violations.push_back("phase-sum: residual " + util::fmt(max_phase_residual_ms, 6) +
                             " ms");
  }
  if (chain != nullptr && e2e.relayed_requests == 0) {
    e2e.violations.push_back("inert-chain: no requests traversed the relays");
  }
  out.push_back(std::move(e2e));

  if (hop_sums.size() > 1) {
    for (std::size_t h = 0; h < hop_sums.size(); ++h) {
      TopologyHopRow row;
      row.plan = cell.plan.name();
      row.loss_rate = cell.loss_rate;
      row.hop = "hop" + std::to_string(h);
      row.pages = sites;
      row.mean_plt_ms = mean_plt;
      row.p95_plt_ms = p95_plt;
      row.mean_phases = hop_sums[h];
      if (sites > 0) row.mean_phases /= static_cast<double>(sites);
      out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace

TopologyResult run_topology(const TopologyConfig& config, RunObservability* observability) {
  H3CDN_EXPECTS(!config.plans.empty());
  H3CDN_EXPECTS(!config.loss_rates.empty());
  H3CDN_EXPECTS(config.sites >= 1);

  web::WorkloadConfig wc = config.workload;
  wc.site_count = std::max(wc.site_count, config.sites);
  const web::Workload workload = web::generate_workload(wc);

  // Canonical plan list: the configured plans, then one direct baseline per
  // distinct client-facing protocol, in first-appearance order, skipping
  // plans already listed.
  std::vector<topology::PathPlan> plans;
  std::vector<std::string> plan_names;
  auto add_plan = [&](const std::string& name) {
    for (const auto& existing : plan_names) {
      if (existing == name) return;
    }
    auto parsed = topology::PathPlan::parse(name);
    H3CDN_EXPECTS(parsed.has_value());
    plan_names.push_back(parsed->name());
    plans.push_back(std::move(*parsed));
  };
  for (const auto& name : config.plans) add_plan(name);
  const std::size_t configured = plans.size();
  for (std::size_t i = 0; i < configured; ++i) add_plan(plans[i].hop_h3(0) ? "h3" : "h2");

  std::vector<TopoCell> cells;
  for (const auto& plan : plans) {
    for (double loss : config.loss_rates) cells.push_back({plan, loss});
  }

  std::vector<std::vector<TopologyHopRow>> cell_rows(cells.size());
  run_sweep(cells.size(), config.jobs, observability,
            [&](std::size_t i, RunObservability* shard) {
              cell_rows[i] = run_topology_cell(workload, config, cells[i], shard);
            });

  TopologyResult result;
  result.sites = std::min(config.sites, workload.sites.size());
  result.plans = plan_names;
  for (auto& rows : cell_rows) {
    for (TopologyHopRow& row : rows) result.rows.push_back(std::move(row));
  }
  return result;
}

void print_topology_result(std::ostream& os, const TopologyResult& result) {
  os << "== topology sweep: " << result.plans.size() << " plans, " << result.sites
     << " sites per cell ==\n";
  util::AsciiTable t({"plan", "loss%", "hop", "pages", "plt mean", "plt p95", "quic_hs",
                      "tcp+tls", "ttfb", "transfer", "stalls", "idle", "resid us", "hit%",
                      "relayed", "invariants"});
  for (const TopologyHopRow& r : result.rows) {
    const obs::PhaseVector& v = r.mean_phases;
    std::string invariants = "ok";
    if (r.hop == "e2e" && !r.violations.empty()) {
      invariants.clear();
      for (std::size_t i = 0; i < r.violations.size(); ++i) {
        if (i > 0) invariants += "; ";
        invariants += r.violations[i];
      }
    } else if (r.hop != "e2e") {
      invariants = "";
    }
    t.add_row({r.plan, loss_label(r.loss_rate), r.hop, std::to_string(r.pages),
               util::fmt(r.mean_plt_ms, 1), util::fmt(r.p95_plt_ms, 1),
               util::fmt(v[obs::Phase::QuicHs], 2),
               util::fmt(v[obs::Phase::TcpConnect] + v[obs::Phase::TlsHs], 2),
               util::fmt(v[obs::Phase::TtfbWait], 2), util::fmt(v[obs::Phase::Transfer], 2),
               util::fmt(v[obs::Phase::HolStall] + v[obs::Phase::RetxWait], 2),
               util::fmt(v[obs::Phase::IdleGap], 2),
               r.hop == "e2e" ? util::fmt(r.reagg_residual_us, 3) : "",
               r.hop == "e2e" && r.relayed_requests > 0 ? util::fmt_pct(r.tier_hit_ratio) : "",
               r.hop == "e2e" ? std::to_string(r.relayed_requests) : "", invariants});
  }
  os << t.to_string();
}

std::string topology_result_to_csv(const TopologyResult& result) {
  std::ostringstream os;
  os << "plan,loss_pct,hop,pages,mean_plt_ms,p95_plt_ms,dns_ms,tcp_connect_ms,tls_hs_ms,"
        "quic_hs_ms,ttfb_wait_ms,transfer_ms,hol_stall_ms,retx_wait_ms,idle_gap_ms,"
        "phase_sum_ms,reagg_residual_us,tier_hit_ratio,relayed_requests,holds_killed,"
        "violations\n";
  for (const TopologyHopRow& r : result.rows) {
    os << r.plan << ',' << loss_label(r.loss_rate) << ',' << r.hop << ',' << r.pages << ','
       << util::fmt(r.mean_plt_ms, 4) << ',' << util::fmt(r.p95_plt_ms, 4);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      os << ',' << util::fmt(r.mean_phases.ms[p], 4);
    }
    os << ',' << util::fmt(r.mean_phases.sum(), 4) << ','
       << util::fmt(r.reagg_residual_us, 4) << ',' << util::fmt(r.tier_hit_ratio, 4) << ','
       << r.relayed_requests << ',' << r.holds_killed << ',';
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      if (i > 0) os << '|';
      os << r.violations[i];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace h3cdn::core
