#include "load/study.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/sweep.h"
#include "load/farm.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/table.h"

namespace h3cdn::load {

namespace {

// One cell's open-loop runaway cap (load::FleetConfig::max_visits).
constexpr std::size_t kMaxVisitsPerCell = 2048;

LoadCellRow run_cell(const web::Workload& workload, const LoadStudyConfig& config,
                     double rate, std::size_t rate_index, bool h3) {
  sim::Simulator sim;
  // Both protocol modes of a rate share one seed root, so arrival schedules
  // and client path draws pair exactly; only the farm salt (server-side
  // noise) differs, per the probe-run convention.
  util::Rng root(util::derive_seed({config.seed, 0x10adULL, rate_index}));
  const std::uint64_t salt = h3 ? 0x113 : 0x112;
  ServerFarm farm(workload.universe, config.capacity, root.fork("farm").fork(salt));

  FleetConfig fc;
  fc.arrival.kind = config.arrival;
  fc.arrival.window = config.window;
  fc.arrival.peak_ratio = config.peak_ratio;
  fc.arrival.think_mean = config.think_mean;
  if (config.arrival == ArrivalKind::ClosedLoop) {
    fc.arrival.users = static_cast<std::size_t>(rate);  // sweep = population
  } else {
    fc.arrival.rate_per_sec = rate;
  }
  fc.h3 = h3;
  fc.max_visits = kMaxVisitsPerCell;
  fc.queue_sample_interval = config.queue_sample_interval;
  fc.vantage = config.vantage;
  fc.vantage.edge_capacity = {};  // servers come from the shared farm
  fc.vantage.server_noise_salt = salt;
  fc.browser = config.browser;
  fc.link_mix = config.link_mix;
  fc.sampling = config.sampling;

  Fleet fleet(sim, workload, config.sites, farm, std::move(fc), root.fork("fleet"));
  FleetOutcome out = fleet.run();

  LoadCellRow row;
  row.offered_rate = rate;
  row.h3 = h3;
  row.arrivals = out.arrivals;
  row.clients = out.clients_used;
  row.population = out.population;
  row.sampled = out.plan.active ? out.plan.chosen.size() : 0;
  row.est_arrivals = out.weight_sum;
  row.sim_events = sim.events_executed();
  std::vector<double> plt_ms;
  std::vector<double> ttfb_ms;
  std::vector<double> fcp_ms;
  std::vector<std::pair<double, double>> plt_w;   // (value, weight)
  std::vector<std::pair<double, double>> ttfb_w;
  std::vector<std::pair<double, double>> fcp_w;
  for (const VisitRecord& v : out.visits) {
    ++row.visits;
    row.connections_created += v.connections_created;
    row.connections_refused += v.connections_refused;
    row.refusal_retries += v.refusal_retries;
    row.requests_failed += v.requests_failed;
    if (v.root_failed) {
      ++row.failed_visits;
      continue;
    }
    plt_ms.push_back(to_ms(v.plt));
    ttfb_ms.push_back(to_ms(v.ttfb));
    fcp_ms.push_back(v.fcp_ms);
    plt_w.emplace_back(to_ms(v.plt), v.weight);
    ttfb_w.emplace_back(to_ms(v.ttfb), v.weight);
    fcp_w.emplace_back(v.fcp_ms, v.weight);
  }
  row.qoe_samples = fcp_ms.size();
  if (out.plan.active) {
    // Weighted estimators extrapolate the coreset to the population; the p95
    // rank-CI is the reported error bound (docs/SCALING.md §4).
    const double z = kConfidenceZ;
    row.plt_p50_ms = weighted_quantile(plt_w, 0.50, z).value;
    const QuantileEstimate p95 = weighted_quantile(plt_w, 0.95, z);
    row.plt_p95_ms = p95.value;
    row.plt_p95_lo_ms = p95.lo;
    row.plt_p95_hi_ms = p95.hi;
    row.n_eff = p95.n_eff;
    row.plt_p99_ms = weighted_quantile(plt_w, 0.99, z).value;
    row.ttfb_p50_ms = weighted_quantile(ttfb_w, 0.50, z).value;
    row.ttfb_p95_ms = weighted_quantile(ttfb_w, 0.95, z).value;
    if (row.qoe_samples > 0) row.qoe_fcp_p95_ms = weighted_quantile(fcp_w, 0.95, z).value;
  } else {
    std::sort(plt_ms.begin(), plt_ms.end());
    std::sort(ttfb_ms.begin(), ttfb_ms.end());
    row.plt_p50_ms = util::quantile_sorted(plt_ms, 0.50);
    row.plt_p95_ms = util::quantile_sorted(plt_ms, 0.95);
    row.plt_p95_lo_ms = row.plt_p95_ms;
    row.plt_p95_hi_ms = row.plt_p95_ms;
    row.n_eff = static_cast<double>(plt_ms.size());
    row.plt_p99_ms = util::quantile_sorted(plt_ms, 0.99);
    row.ttfb_p50_ms = util::quantile_sorted(ttfb_ms, 0.50);
    row.ttfb_p95_ms = util::quantile_sorted(ttfb_ms, 0.95);
    if (row.qoe_samples > 0) {
      std::sort(fcp_ms.begin(), fcp_ms.end());
      row.qoe_fcp_p95_ms = util::quantile_sorted(fcp_ms, 0.95);
    }
  }
  row.refusal_rate = row.connections_created == 0
                         ? 0.0
                         : static_cast<double>(row.connections_refused) /
                               static_cast<double>(row.connections_created);

  double backlog_sum = 0.0;
  double busy_sum = 0.0;
  for (const QueueSample& qs : out.queue_series) {
    backlog_sum += static_cast<double>(qs.accept_backlog);
    busy_sum += static_cast<double>(qs.busy_cores);
    row.max_queue_depth = std::max(row.max_queue_depth, qs.accept_backlog);
    row.max_concurrent = std::max(row.max_concurrent, qs.concurrent_connections);
  }
  if (!out.queue_series.empty()) {
    row.mean_queue_depth = backlog_sum / static_cast<double>(out.queue_series.size());
    row.mean_busy_cores = busy_sum / static_cast<double>(out.queue_series.size());
  }
  // Weight-summed phases over weight_sum = extrapolated per-visit mean (in
  // full runs every weight is 1.0, so this is exactly the plain mean).
  row.mean_phases = out.phase_sum;
  if (out.weight_sum > 0.0) row.mean_phases /= out.weight_sum;
  row.queue_series = std::move(out.queue_series);
  return row;
}

}  // namespace

LoadResult run_load_study(const LoadStudyConfig& config,
                          core::RunObservability* observability) {
  H3CDN_EXPECTS(!config.offered_rates.empty());
  H3CDN_EXPECTS(config.sites >= 1);
  web::WorkloadConfig wc = config.workload;
  wc.site_count = std::max(wc.site_count, config.sites);
  const web::Workload workload = web::generate_workload(wc);

  // One cell per (rate, protocol), rate-major with H2 before H3.
  LoadResult result;
  result.sites = std::min(config.sites, workload.sites.size());
  result.arrival = config.arrival;
  result.window = config.window;
  result.rows.resize(config.offered_rates.size() * 2);
  core::run_sweep(result.rows.size(), config.jobs, observability,
                  [&](std::size_t cell, core::RunObservability*) {
                    const std::size_t rate_index = cell / 2;
                    result.rows[cell] = run_cell(workload, config,
                                                 config.offered_rates[rate_index], rate_index,
                                                 (cell % 2) == 1);
                  });
  return result;
}

void print_load_result(std::ostream& os, const LoadResult& result) {
  os << "== load sweep: " << to_string(result.arrival) << " arrivals, " << result.sites
     << " sites, window " << util::fmt(to_ms(result.window) / 1000.0, 1) << " s ==\n";
  util::AsciiTable t({"rate", "proto", "visits", "plt p50", "plt p95", "plt p99",
                      "ttfb p50", "ttfb p95", "fcp p95", "refused", "retries", "failed",
                      "refuse%", "q mean", "q max", "conc max"});
  for (const LoadCellRow& r : result.rows) {
    t.add_row({util::fmt(r.offered_rate, 1), r.h3 ? "h3" : "h2", std::to_string(r.visits),
               util::fmt(r.plt_p50_ms, 1), util::fmt(r.plt_p95_ms, 1),
               util::fmt(r.plt_p99_ms, 1), util::fmt(r.ttfb_p50_ms, 1),
               util::fmt(r.ttfb_p95_ms, 1), util::fmt(r.qoe_fcp_p95_ms, 1),
               std::to_string(r.connections_refused),
               std::to_string(r.refusal_retries), std::to_string(r.requests_failed),
               util::fmt_pct(r.refusal_rate), util::fmt(r.mean_queue_depth, 2),
               std::to_string(r.max_queue_depth), std::to_string(r.max_concurrent)});
  }
  os << t.to_string();

  bool any_sampled = false;
  for (const LoadCellRow& r : result.rows) any_sampled |= r.sampled > 0;
  if (any_sampled) {
    os << "\ncoreset sampling (weighted estimates; p95 bound is the rank-CI):\n";
    util::AsciiTable s({"rate", "proto", "population", "sampled", "n_eff", "est visits",
                        "plt p95", "p95 lo", "p95 hi"});
    for (const LoadCellRow& r : result.rows) {
      s.add_row({util::fmt(r.offered_rate, 1), r.h3 ? "h3" : "h2",
                 std::to_string(r.population), std::to_string(r.sampled),
                 util::fmt(r.n_eff, 1), util::fmt(r.est_arrivals, 1),
                 util::fmt(r.plt_p95_ms, 1), util::fmt(r.plt_p95_lo_ms, 1),
                 util::fmt(r.plt_p95_hi_ms, 1)});
    }
    os << s.to_string();
  }

  os << "\nper-cell critical-path attribution (mean ms per visit):\n";
  std::vector<std::string> header = {"rate", "proto"};
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    header.emplace_back(obs::to_string(static_cast<obs::Phase>(i)));
  }
  util::AsciiTable a(header);
  for (const LoadCellRow& r : result.rows) {
    std::vector<std::string> cells = {util::fmt(r.offered_rate, 1), r.h3 ? "h3" : "h2"};
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      cells.push_back(util::fmt(r.mean_phases[static_cast<obs::Phase>(i)], 1));
    }
    a.add_row(cells);
  }
  os << a.to_string();
}

bool verify_sampling_accuracy(const LoadResult& sampled, const LoadResult& full,
                              std::ostream& os) {
  H3CDN_EXPECTS(sampled.rows.size() == full.rows.size());
  bool ok = true;
  util::AsciiTable t({"rate", "proto", "sampled", "population", "p95 lo", "p95 est",
                      "p95 hi", "full p95", "verdict"});
  for (std::size_t i = 0; i < sampled.rows.size(); ++i) {
    const LoadCellRow& s = sampled.rows[i];
    const LoadCellRow& f = full.rows[i];
    const bool inside = f.plt_p95_ms >= s.plt_p95_lo_ms && f.plt_p95_ms <= s.plt_p95_hi_ms;
    ok &= inside;
    t.add_row({util::fmt(s.offered_rate, 1), s.h3 ? "h3" : "h2",
               std::to_string(s.sampled), std::to_string(s.population),
               util::fmt(s.plt_p95_lo_ms, 1), util::fmt(s.plt_p95_ms, 1),
               util::fmt(s.plt_p95_hi_ms, 1), util::fmt(f.plt_p95_ms, 1),
               inside ? "within bound" : "OUTSIDE BOUND"});
  }
  os << "coreset accuracy vs full population (p95 PLT must sit in the rank-CI):\n"
     << t.to_string();
  return ok;
}

std::string load_result_to_csv(const LoadResult& result) {
  std::ostringstream os;
  os << "rate,proto,arrivals,visits,failed_visits,clients,population,sampled,"
        "est_arrivals,n_eff,plt_p50_ms,plt_p95_ms,plt_p95_lo_ms,plt_p95_hi_ms,"
        "plt_p99_ms,ttfb_p50_ms,ttfb_p95_ms,qoe_samples,qoe_fcp_p95_ms,"
        "connections_created,connections_refused,"
        "refusal_retries,requests_failed,refusal_rate,mean_queue_depth,max_queue_depth,"
        "mean_busy_cores,max_concurrent,sim_events";
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    os << ",cp_" << obs::to_string(static_cast<obs::Phase>(i)) << "_ms";
  }
  os << ",queue_series\n";
  for (const LoadCellRow& r : result.rows) {
    os << util::fmt(r.offered_rate, 3) << ',' << (r.h3 ? "h3" : "h2") << ',' << r.arrivals
       << ',' << r.visits << ',' << r.failed_visits << ',' << r.clients << ','
       << r.population << ',' << r.sampled << ',' << util::fmt(r.est_arrivals, 1) << ','
       << util::fmt(r.n_eff, 1) << ','
       << util::fmt(r.plt_p50_ms, 3) << ',' << util::fmt(r.plt_p95_ms, 3) << ','
       << util::fmt(r.plt_p95_lo_ms, 3) << ',' << util::fmt(r.plt_p95_hi_ms, 3) << ','
       << util::fmt(r.plt_p99_ms, 3) << ',' << util::fmt(r.ttfb_p50_ms, 3) << ','
       << util::fmt(r.ttfb_p95_ms, 3) << ',' << r.qoe_samples << ','
       << util::fmt(r.qoe_samples > 0 ? r.qoe_fcp_p95_ms : 0.0, 3) << ','
       << r.connections_created << ','
       << r.connections_refused << ',' << r.refusal_retries << ',' << r.requests_failed
       << ',' << util::fmt(r.refusal_rate, 4) << ',' << util::fmt(r.mean_queue_depth, 3)
       << ',' << r.max_queue_depth << ',' << util::fmt(r.mean_busy_cores, 3) << ','
       << r.max_concurrent << ',' << r.sim_events;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      os << ',' << util::fmt(r.mean_phases[static_cast<obs::Phase>(i)], 3);
    }
    os << ',';
    for (std::size_t i = 0; i < r.queue_series.size(); ++i) {
      const QueueSample& qs = r.queue_series[i];
      if (i > 0) os << '|';
      os << util::fmt(to_ms(qs.at), 1) << ':'
         << qs.accept_backlog << ':' << qs.concurrent_connections << ':' << qs.busy_cores;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace h3cdn::load
