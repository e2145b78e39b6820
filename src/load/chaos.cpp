#include "load/chaos.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>

#include "core/sweep.h"
#include "load/farm.h"
#include "load/fleet.h"
#include "net/link_profile.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "topology/chain.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/table.h"

namespace h3cdn::core {

std::vector<ChaosScenario> default_chaos_scenarios() {
  std::vector<ChaosScenario> s;

  {
    ChaosScenario sc;
    sc.name = "baseline";
    sc.description = "fault-free reference cell (recovery-time baseline)";
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "edge-outage-midpage";
    sc.description = "hard access blackout while pages are mid-flight";
    sc.access_fault.outages.push_back(
        {TimePoint{sec(1)}, msec(700), net::OutageKind::Hard});
    sc.expect_faults = true;
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "udp-blackhole-handshake";
    sc.description = "UDP-only blackhole over the QUIC handshake window";
    sc.access_fault.outages.push_back(
        {TimePoint{0}, sec(3), net::OutageKind::UdpBlackhole});
    // Die at ~3.75 s (inside the blackhole's shadow) instead of ~15.75 s, so
    // the H3->H2 fallback fires while the page still has deadline budget.
    sc.handshake_retry_cap = 3;
    sc.expect_faults = true;
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "refusal-storm";
    sc.description = "undersized edge: most dials refused at admission";
    sc.rate_per_sec = 12.0;
    sc.capacity_storm = true;
    sc.expect_faults = true;
    sc.expect_no_h3_broken = true;  // refusal is capacity, not protocol, failure
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "midtransfer-kill";
    sc.description = "every connection dies after 20 KB of response body";
    sc.kill_response_at_bytes = 20'000;
    sc.expect_faults = true;
    sc.expect_resumption = true;  // Range resume keeps the delivered prefix
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "cellular-burst";
    sc.description = "lossy cellular last mile (Gilbert-Elliott bursts + RTT spikes)";
    sc.link_profile = "cellular";
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "midtier-outage";
    sc.description = "mid-tier relay killed mid-page; clients fall back to the direct path";
    sc.path_plan = "h3-h3";
    sc.kill_midtier_at = msec(1200);
    sc.expect_faults = true;
    sc.expect_midtier_fallback = true;
    s.push_back(std::move(sc));
  }
  {
    ChaosScenario sc;
    sc.name = "dns-failover";
    sc.description = "record-0 front end hard down; health scoring reroutes";
    sc.addresses_per_record = 2;
    sc.primary_path_fault.outages.push_back(
        {TimePoint{0}, sec(30), net::OutageKind::Hard});
    sc.handshake_retry_cap = 3;  // fail fast enough to reroute inside budget
    sc.expect_faults = true;
    sc.expect_failover = true;
    s.push_back(std::move(sc));
  }
  return s;
}

obs::FaultWindowSpec scripted_fault_window(const ChaosScenario& scenario) {
  obs::FaultWindowSpec spec;
  spec.scenario = scenario.name;

  bool any_outage = false;
  double start_ms = 0.0;
  double end_ms = 0.0;
  const auto fold_outages = [&](const net::FaultProfile& profile) {
    for (const auto& o : profile.outages) {
      const double o_start = to_ms(o.start - TimePoint{0});
      const double o_end = o_start + to_ms(o.duration);
      if (!any_outage) {
        start_ms = o_start;
        end_ms = o_end;
        any_outage = true;
      } else {
        start_ms = std::min(start_ms, o_start);
        end_ms = std::max(end_ms, o_end);
      }
    }
  };
  fold_outages(scenario.access_fault);
  fold_outages(scenario.primary_path_fault);

  if (any_outage) {
    spec.faulted = true;
    spec.start_ms = start_ms;
    spec.end_ms = end_ms;
  } else if (scenario.kill_response_at_bytes > 0 || scenario.capacity_storm) {
    // Whole-run condition: the fault is armed from the first arrival on.
    spec.faulted = true;
    spec.start_ms = 0.0;
    spec.end_ms = to_ms(scenario.window);
  } else if (scenario.kill_midtier_at.count() > 0) {
    // The kill is instantaneous but the chain stays dead (refusing traffic
    // until clients fall back), so the condition spans kill -> window end.
    spec.faulted = true;
    spec.start_ms = to_ms(scenario.kill_midtier_at);
    spec.end_ms = std::max(spec.start_ms, to_ms(scenario.window));
  }
  return spec;
}

bool ChaosResult::all_passed() const {
  for (const ChaosCellRow& row : rows) {
    if (!row.violations.empty()) return false;
  }
  return true;
}

namespace {

// One cell's open-loop runaway cap (load::FleetConfig::max_visits).
constexpr std::size_t kMaxVisitsPerCell = 256;

void merge_fault_profile(net::FaultProfile& into, const net::FaultProfile& from) {
  if (from.gilbert_elliott.enabled) into.gilbert_elliott = from.gilbert_elliott;
  for (const auto& o : from.outages) into.outages.push_back(o);
  for (const auto& r : from.rtt_spikes) into.rtt_spikes.push_back(r);
}

/// `shard` is the cell's run_sweep shard (never null): the row's counters
/// and fault annotation are read from it.
ChaosCellRow run_chaos_cell(const web::Workload& workload, const ChaosConfig& config,
                            const ChaosScenario& sc, std::size_t index,
                            core::RunObservability& shard) {
  sim::Simulator sim;
  util::Rng root(util::derive_seed({config.seed, 0xC4A05ULL, index}));

  cdn::EdgeCapacityConfig capacity;  // disabled unless the scenario storms
  if (sc.capacity_storm) {
    capacity.enabled = true;
    capacity.think_cores = 1;
    capacity.accept_queue_depth = 2;
    capacity.max_concurrent_connections = 6;
  }
  load::ServerFarm farm(workload.universe, capacity, root.fork("farm"));

  load::FleetConfig fc;
  fc.arrival.kind = load::ArrivalKind::Poisson;
  fc.arrival.rate_per_sec = sc.rate_per_sec;
  fc.arrival.window = sc.window;
  fc.h3 = sc.h3;
  fc.max_visits = kMaxVisitsPerCell;
  fc.vantage = config.vantage;
  fc.vantage.edge_capacity = {};  // servers come from the shared farm
  if (!sc.link_profile.empty()) {
    const auto profile = net::LinkProfile::from_name(sc.link_profile);
    H3CDN_EXPECTS(profile.has_value());
    browser::apply_link_profile(fc.vantage, *profile);
  }
  merge_fault_profile(fc.vantage.fault_profile, sc.access_fault);
  if (sc.addresses_per_record > 1) {
    fc.vantage.dns.addresses_per_record = sc.addresses_per_record;
    merge_fault_profile(fc.vantage.primary_path_fault, sc.primary_path_fault);
  }
  fc.browser = config.browser;
  fc.browser.resilience = config.resilience;
  fc.browser.transport.kill_response_at_bytes = sc.kill_response_at_bytes;
  if (sc.handshake_retry_cap > 0) {
    fc.browser.transport.max_handshake_retries = sc.handshake_retry_cap;
  }

  // Multi-hop relay chain (docs/TOPOLOGY.md), shared by every fleet client.
  std::unique_ptr<topology::Chain> chain;
  if (!sc.path_plan.empty()) {
    auto plan = topology::PathPlan::parse(sc.path_plan);
    H3CDN_EXPECTS(plan.has_value() && plan->relay_count() >= 1);
    topology::ChainConfig cc;
    cc.plan = *plan;
    chain = std::make_unique<topology::Chain>(sim, workload.universe, cc, root.fork("chain"));
    fc.h3 = chain->client_h3();
    fc.chain = chain.get();
    // Warm the chain's terminal tier like Fleet::run warms the farm edges.
    for (std::size_t i = 0; i < config.sites && i < workload.sites.size(); ++i) {
      for (const auto& r : workload.sites[i].page.resources) {
        if (r.is_cdn && chain->handles(r.domain)) chain->warm(r.domain, r.domain + r.path);
      }
    }
    if (sc.kill_midtier_at.count() > 0) {
      topology::Chain* raw = chain.get();
      sim.schedule_in(sc.kill_midtier_at, [raw] { raw->kill_midtier(); });
    }
  }

  load::Fleet fleet(sim, workload, config.sites, farm, std::move(fc), root.fork("fleet"));
  load::FleetOutcome out = fleet.run();
  if (chain != nullptr) chain->close();

  ChaosCellRow row;
  row.scenario = sc.name;
  row.h3 = sc.h3;
  row.arrivals = out.arrivals;
  std::vector<double> plt_ms;
  std::vector<double> fcp_ms;
  double plt_sum_ms = 0.0;
  for (const load::VisitRecord& v : out.visits) {
    ++row.visits;
    plt_sum_ms += to_ms(v.plt);
    if (v.root_failed) {
      ++row.failed_visits;
      continue;
    }
    plt_ms.push_back(to_ms(v.plt));
    fcp_ms.push_back(v.fcp_ms);
  }
  std::sort(plt_ms.begin(), plt_ms.end());
  row.plt_p50_ms = util::quantile_sorted(plt_ms, 0.50);
  row.plt_p95_ms = util::quantile_sorted(plt_ms, 0.95);
  row.qoe_samples = fcp_ms.size();
  if (row.qoe_samples > 0) {
    std::sort(fcp_ms.begin(), fcp_ms.end());
    row.qoe_fcp_p95_ms = util::quantile_sorted(fcp_ms, 0.95);
  }

  auto cval = [&](const char* name) { return shard.metrics().counter(name).value(); };
  row.entries_submitted = cval("http.entries_submitted");
  row.entries_completed = cval("http.entries_completed");
  row.entries_failed = cval("http.entries_failed");
  row.retries = cval("resilience.retries");
  row.hedges_launched = cval("resilience.hedges_launched");
  row.hedges_won = cval("resilience.hedges_won");
  row.hedges_lost = cval("resilience.hedges_lost");
  row.hedges_cancelled = cval("resilience.hedges_cancelled");
  row.resumed_requests = cval("resilience.resumed_requests");
  row.resumed_bytes = cval("resilience.resumed_bytes");
  row.breaker_opened = cval("resilience.breaker.opened");
  row.breaker_demotions = cval("resilience.breaker.demotions");
  row.failover_switches = cval("dns.failover.switches");
  row.connection_deaths = cval("http.pool.connection_deaths");
  row.connections_refused = cval("http.pool.connections_refused");
  row.h3_broken_marks = cval("http.pool.h3_fallbacks");
  if (chain != nullptr) {
    row.relayed_requests = chain->relayed_requests();
    row.midtier_holds_killed = chain->holds_killed();
    row.direct_fallbacks = chain->direct_resolutions();
  }
  row.phase_residual_ms = std::abs(out.phase_sum.sum() - plt_sum_ms);

  // Fault->recovery annotation: measured against the scripted fault window.
  const obs::FaultAnnotation a =
      obs::annotate_fault_recovery(shard.timeline(), scripted_fault_window(sc));
  row.degraded_windows = a.degraded_windows;
  row.detection_ms = a.detection_ms;
  row.recovery_ms = a.recovery_ms;
  row.mttr_ms = a.mttr_ms;
  row.time_to_breaker_open_ms = a.time_to_breaker_open_ms;
  row.time_to_breaker_close_ms = a.time_to_breaker_close_ms;
  shard.add_fault_annotation(a);

  // --- Invariants (ISSUE 6): checked per cell, reported per row. ----------
  auto violate = [&](const std::string& what) { row.violations.push_back(what); };

  // Typed termination: the fleet's sim drained with every arrival's page
  // reaching onLoad — a page stuck on an unterminated entry would leave
  // visits < arrivals.
  if (row.visits != row.arrivals) {
    violate("typed-termination: " + std::to_string(row.visits) + " visits for " +
            std::to_string(row.arrivals) + " arrivals");
  }
  // Entry conservation. Each logical fetch submits once and settles exactly
  // once (a completion or a typed failure); hedge copies add at most one
  // extra physical settle each. Below the lower bound, entries leaked; above
  // the upper bound, something settled twice.
  const std::uint64_t settled = row.entries_completed + row.entries_failed;
  if (settled < row.entries_submitted ||
      settled > row.entries_submitted + row.hedges_launched) {
    violate("conservation: submitted=" + std::to_string(row.entries_submitted) +
            " completed=" + std::to_string(row.entries_completed) +
            " failed=" + std::to_string(row.entries_failed) +
            " hedged=" + std::to_string(row.hedges_launched));
  }
  // Every launched hedge settles as exactly one of won/lost/cancelled.
  if (row.hedges_won + row.hedges_lost + row.hedges_cancelled != row.hedges_launched) {
    violate("hedge-accounting: " + std::to_string(row.hedges_won) + "+" +
            std::to_string(row.hedges_lost) + "+" + std::to_string(row.hedges_cancelled) +
            " != " + std::to_string(row.hedges_launched));
  }
  // The critical-path decomposition stays exact (±1 µs per visit) even for
  // pages assembled out of retried, hedged, and resumed entries.
  const double residual_budget = 1e-3 * static_cast<double>(row.visits) + 1e-6;
  if (row.phase_residual_ms > residual_budget) {
    violate("phase-sum: residual " + std::to_string(row.phase_residual_ms) + " ms");
  }
  // Scenario signatures: a scripted fault that never fired is a harness bug.
  if (sc.expect_faults && row.connection_deaths + row.connections_refused == 0) {
    violate("inert-scenario: no deaths or refusals observed");
  }
  // The timeline must localize every expected fault: at least one window
  // carries a degraded signal, and the derived MTTR stays finite (MTTR is
  // finite by construction; this guards the timeline wiring itself).
  if (sc.expect_faults && row.degraded_windows == 0) {
    violate("timeline-blind: expected faults left no degraded window");
  }
  if (!std::isfinite(row.mttr_ms) || row.mttr_ms < 0.0) {
    violate("mttr-not-finite: " + std::to_string(row.mttr_ms));
  }
  if (sc.expect_no_h3_broken && row.h3_broken_marks != 0) {
    violate("refusal-marked-h3-broken: " + std::to_string(row.h3_broken_marks) + " marks");
  }
  // Mid-tier outage signature: the chain actually routed traffic, the kill
  // severed at least one held response, and at least one later resolve fell
  // back to the direct path (the typed-termination check above already pins
  // that every severed page still completed).
  if (sc.expect_midtier_fallback) {
    if (row.relayed_requests == 0) {
      violate("inert-chain: no requests traversed the relays");
    }
    if (row.midtier_holds_killed == 0) {
      violate("no-midtier-kill: outage severed no held responses");
    }
    if (row.direct_fallbacks == 0) {
      violate("no-fallback: no resolve fell back to the direct path");
    }
  }
  if (config.resilience.enabled) {
    if (sc.expect_resumption && row.resumed_bytes == 0) {
      violate("no-resumption: kill scenario resumed 0 bytes");
    }
    if (sc.expect_failover && row.failover_switches == 0) {
      violate("no-failover: health scoring never switched records");
    }
  }
  return row;
}

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config, core::RunObservability* observability) {
  H3CDN_EXPECTS(!config.scenarios.empty());
  H3CDN_EXPECTS(config.sites >= 1);
  web::WorkloadConfig wc = config.workload;
  wc.site_count = std::max(wc.site_count, config.sites);
  const web::Workload workload = web::generate_workload(wc);

  // Cells read their counters and timeline back, so they always need shards:
  // without a caller sink, a local one collects them.
  RunObservability local;
  ChaosResult result;
  result.sites = std::min(config.sites, workload.sites.size());
  result.resilience_enabled = config.resilience.enabled;
  result.rows.resize(config.scenarios.size());
  run_sweep(result.rows.size(), config.jobs, observability != nullptr ? observability : &local,
            [&](std::size_t cell, RunObservability* shard) {
              result.rows[cell] =
                  run_chaos_cell(workload, config, config.scenarios[cell], cell, *shard);
            });
  return result;
}

void print_chaos_result(std::ostream& os, const ChaosResult& result) {
  os << "== chaos suite: " << result.rows.size() << " scenarios, " << result.sites
     << " sites, resilience " << (result.resilience_enabled ? "on" : "off") << " ==\n";
  util::AsciiTable t({"scenario", "proto", "visits", "failed", "plt p50", "plt p95",
                      "retries", "hedges", "won", "resumed KB", "demoted", "switches",
                      "deaths", "refused", "relayed", "mttr ms", "invariants"});
  for (const ChaosCellRow& r : result.rows) {
    t.add_row({r.scenario, r.h3 ? "h3" : "h2",
               std::to_string(r.visits) + "/" + std::to_string(r.arrivals),
               std::to_string(r.failed_visits), util::fmt(r.plt_p50_ms, 1),
               util::fmt(r.plt_p95_ms, 1), std::to_string(r.retries),
               std::to_string(r.hedges_launched), std::to_string(r.hedges_won),
               util::fmt(static_cast<double>(r.resumed_bytes) / 1024.0, 1),
               std::to_string(r.breaker_demotions), std::to_string(r.failover_switches),
               std::to_string(r.connection_deaths), std::to_string(r.connections_refused),
               std::to_string(r.relayed_requests),
               util::fmt(r.mttr_ms, 1), r.violations.empty() ? "pass" : "FAIL"});
  }
  os << t.to_string();
  for (const ChaosCellRow& r : result.rows) {
    for (const std::string& v : r.violations) {
      os << "  INVARIANT VIOLATION [" << r.scenario << "] " << v << '\n';
    }
  }
}

std::string chaos_result_to_csv(const ChaosResult& result) {
  std::ostringstream os;
  os << "scenario,proto,arrivals,visits,failed_visits,plt_p50_ms,plt_p95_ms,"
        "qoe_samples,qoe_fcp_p95_ms,"
        "entries_submitted,entries_completed,entries_failed,retries,hedges_launched,"
        "hedges_won,hedges_lost,hedges_cancelled,resumed_requests,resumed_bytes,"
        "breaker_opened,breaker_demotions,failover_switches,connection_deaths,"
        "connections_refused,h3_broken_marks,relayed_requests,midtier_holds_killed,"
        "direct_fallbacks,phase_residual_ms,degraded_windows,"
        "detection_ms,recovery_ms,mttr_ms,breaker_open_ms,breaker_close_ms,violations\n";
  for (const ChaosCellRow& r : result.rows) {
    os << r.scenario << ',' << (r.h3 ? "h3" : "h2") << ',' << r.arrivals << ','
       << r.visits << ',' << r.failed_visits << ',' << util::fmt(r.plt_p50_ms, 3) << ','
       << util::fmt(r.plt_p95_ms, 3) << ',' << r.qoe_samples << ','
       << util::fmt(r.qoe_samples > 0 ? r.qoe_fcp_p95_ms : 0.0, 3) << ','
       << r.entries_submitted << ','
       << r.entries_completed << ',' << r.entries_failed << ',' << r.retries << ','
       << r.hedges_launched << ',' << r.hedges_won << ',' << r.hedges_lost << ','
       << r.hedges_cancelled << ',' << r.resumed_requests << ',' << r.resumed_bytes << ','
       << r.breaker_opened << ',' << r.breaker_demotions << ',' << r.failover_switches
       << ',' << r.connection_deaths << ',' << r.connections_refused << ','
       << r.h3_broken_marks << ',' << r.relayed_requests << ',' << r.midtier_holds_killed
       << ',' << r.direct_fallbacks << ',' << util::fmt(r.phase_residual_ms, 6) << ','
       << r.degraded_windows << ',' << util::fmt(r.detection_ms, 3) << ','
       << util::fmt(r.recovery_ms, 3) << ',' << util::fmt(r.mttr_ms, 3) << ','
       << util::fmt(r.time_to_breaker_open_ms, 3) << ','
       << util::fmt(r.time_to_breaker_close_ms, 3) << ',';
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      if (i > 0) os << '|';
      os << r.violations[i];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace h3cdn::core
