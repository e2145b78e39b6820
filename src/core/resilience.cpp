#include "core/resilience.h"

#include <algorithm>
#include <span>
#include <utility>

#include "browser/browser.h"
#include "core/sweep.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"

namespace h3cdn::core {

namespace {

struct VisitOutcome {
  Duration plt{0};
  std::uint64_t connection_deaths = 0;
  std::uint64_t h3_fallbacks = 0;
  std::uint64_t requests_rescued = 0;
  std::uint64_t requests_failed = 0;
};

// One isolated page visit: fresh Simulator + Environment per page, so fault
// schedules are relative to the page start (t = 0) for every site — unlike
// the sequential-visit study loop, where simulated time accumulates across
// pages and an absolute-time outage would only ever hit the first one.
// Caches are pre-warmed, matching the paper's measured-visit methodology.
VisitOutcome run_visit(const web::Workload& workload, const web::WebPage& page,
                       const browser::VantageConfig& vantage, bool h3_enabled,
                       const ResilienceConfig& config, std::uint64_t page_salt) {
  sim::Simulator sim;
  // Same env seed across fault conditions and protocol modes: paths, loss
  // and jitter realizations pair exactly, so condition deltas isolate the
  // fault (or protocol) effect.
  util::Rng env_rng(util::derive_seed({config.seed, 0xFA17u, page_salt}));
  browser::VantageConfig v = vantage;
  v.server_noise_salt = h3_enabled ? 0x113 : 0x112;
  browser::Environment env(sim, workload.universe, v, env_rng.fork("env"));
  env.warm_page(page);

  browser::BrowserConfig bc;
  bc.h3_enabled = h3_enabled;
  bc.transport = config.transport;
  browser::Browser browser(sim, env, /*tickets=*/nullptr, bc,
                           env_rng.fork(h3_enabled ? "browser-h3" : "browser-h2"));
  browser::PageLoadResult load = browser.visit_and_run(page);

  VisitOutcome out;
  out.plt = load.har.page_load_time;
  out.connection_deaths = load.pool_stats.connection_deaths;
  out.h3_fallbacks = load.pool_stats.h3_fallbacks;
  out.requests_rescued = load.pool_stats.requests_rescued;
  out.requests_failed = load.pool_stats.requests_failed;
  return out;
}

/// One (condition, site) cell: the visit outcomes plus the link drop-reason
/// counters its visits recorded, copied out of the cell's own registry so a
/// row reads drops from the same source of truth as every other metrics
/// consumer.
struct SiteVisit {
  VisitOutcome h2;  // loss-axis conditions only
  VisitOutcome h3;
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t dropped_bernoulli = 0;
  std::uint64_t dropped_burst = 0;
  std::uint64_t dropped_outage = 0;
};

}  // namespace

ResilienceResult run_resilience(const ResilienceConfig& config) {
  H3CDN_EXPECTS(config.sites >= 1);
  web::WorkloadConfig wc = config.workload;
  wc.site_count = std::max(wc.site_count, config.sites);
  const web::Workload workload = web::generate_workload(wc);
  const std::size_t n_sites = std::min(config.sites, workload.sites.size());

  // Conditions, in fold order: the burst-vs-Bernoulli axis (H2 and H3
  // visits), the fault-free baseline, then the outage axis (H3 visits).
  std::vector<browser::VantageConfig> conditions;
  for (double rate : config.loss_rates) {
    for (bool bursty : {false, true}) {
      browser::VantageConfig vantage = config.vantage;
      // Route BOTH models through the injector so the comparison shares one
      // code path and one Rng stream; only the burst structure differs.
      vantage.fault_profile.gilbert_elliott =
          bursty ? net::GilbertElliottConfig::from_average(rate, config.mean_burst_packets)
                 : net::GilbertElliottConfig::bernoulli(rate);
      conditions.push_back(std::move(vantage));
    }
  }
  // Fault-free paired baseline: an outage-only profile makes no Rng draws,
  // so pages the outage never touches replay the baseline byte for byte and
  // their recovery penalty is exactly zero.
  const std::size_t baseline = conditions.size();
  conditions.push_back(config.vantage);
  for (Duration outage_duration : config.outage_durations) {
    browser::VantageConfig vantage = config.vantage;
    vantage.fault_profile.outages.push_back(
        net::Outage{config.outage_start, outage_duration, config.outage_kind});
    conditions.push_back(std::move(vantage));
  }

  // One sweep over (condition, site). Cells read their drop counters back,
  // so they always need shards; nobody reads the merged sink.
  RunObservability local;
  std::vector<SiteVisit> visits(conditions.size() * n_sites);
  run_sweep(visits.size(), config.jobs, &local, [&](std::size_t cell, RunObservability* shard) {
    const std::size_t condition = cell / n_sites;
    const std::size_t site = cell % n_sites;
    const web::WebPage& page = workload.sites[site].page;
    SiteVisit& v = visits[cell];
    if (condition < baseline) {
      v.h2 = run_visit(workload, page, conditions[condition], false, config, site);
    }
    v.h3 = run_visit(workload, page, conditions[condition], true, config, site);
    auto counter = [shard](const char* name) { return shard->metrics().counter(name).value(); };
    v.packets_offered = counter("net.link.packets_offered");
    v.packets_dropped = counter("net.link.packets_dropped");
    v.dropped_bernoulli = counter("net.link.dropped.bernoulli");
    v.dropped_burst = counter("net.link.dropped.burst");
    v.dropped_outage = counter("net.link.dropped.outage");
  });
  auto condition_visits = [&](std::size_t condition) {
    return std::span<const SiteVisit>(visits).subspan(condition * n_sites, n_sites);
  };

  ResilienceResult result;

  // --- Axis 1: Bernoulli vs Gilbert-Elliott at equal average loss ---------
  std::size_t condition = 0;
  for (double rate : config.loss_rates) {
    for (bool bursty : {false, true}) {
      LossTailRow row;
      row.loss_rate = rate;
      row.bursty = bursty;
      std::vector<double> h2_plts;
      std::vector<double> h3_plts;
      for (const SiteVisit& v : condition_visits(condition++)) {
        h2_plts.push_back(to_ms(v.h2.plt));
        h3_plts.push_back(to_ms(v.h3.plt));
        row.packets_offered += v.packets_offered;
        row.packets_dropped += v.packets_dropped;
        row.dropped_bernoulli += v.dropped_bernoulli;
        row.dropped_burst += v.dropped_burst;
      }
      row.pages = n_sites;
      row.h2_mean_plt_ms = util::mean(h2_plts);
      row.h2_p95_plt_ms = util::quantile(h2_plts, 0.95);
      row.h3_mean_plt_ms = util::mean(h3_plts);
      row.h3_p95_plt_ms = util::quantile(h3_plts, 0.95);
      result.loss_rows.push_back(row);
    }
  }

  // --- Axis 2: mid-transfer outage sweep (H3-enabled visits) --------------
  const auto baseline_visits = condition_visits(baseline);
  condition = baseline + 1;
  for (Duration outage_duration : config.outage_durations) {
    OutageRow row;
    row.outage = outage_duration;
    row.pages = n_sites;
    std::size_t pages_with_fallback = 0;
    std::vector<double> penalties_ms;
    const auto cells = condition_visits(condition++);
    for (std::size_t site = 0; site < n_sites; ++site) {
      const SiteVisit& v = cells[site];
      row.connection_deaths += v.h3.connection_deaths;
      row.h3_fallbacks += v.h3.h3_fallbacks;
      row.requests_rescued += v.h3.requests_rescued;
      row.requests_failed += v.h3.requests_failed;
      if (v.h3.h3_fallbacks > 0) ++pages_with_fallback;
      const double penalty = to_ms(v.h3.plt) - to_ms(baseline_visits[site].h3.plt);
      if (penalty > 0.0) penalties_ms.push_back(penalty);
      row.packets_offered += v.packets_offered;
      row.packets_dropped += v.packets_dropped;
      row.dropped_outage += v.dropped_outage;
    }
    row.fallback_page_rate =
        n_sites == 0 ? 0.0 : static_cast<double>(pages_with_fallback) / n_sites;
    if (!penalties_ms.empty()) {
      row.mean_recovery_ms = util::mean(penalties_ms);
      row.p95_recovery_ms = util::quantile(penalties_ms, 0.95);
      row.max_recovery_ms = *std::max_element(penalties_ms.begin(), penalties_ms.end());
    }
    result.outage_rows.push_back(row);
  }

  return result;
}

}  // namespace h3cdn::core
