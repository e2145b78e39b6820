// Ablations of the design choices DESIGN.md calls out: each run disables one
// mechanism and reports how the headline metric (mean PLT reduction) moves,
// attributing the H3-CDN synergy to its individual ingredients.
//
//   baseline          — everything on (the Fig. 6 configuration)
//   tls12-everywhere  — all TCP origins forced to TLS 1.2 (3-RTT H2 connects;
//                       H3's fast-connect advantage widens)
//   no-coalescing     — H2 connection coalescing off (removes H2's reuse
//                       edge on complicated pages; §VI-C)
//   no-0rtt           — QUIC 0-RTT disabled in consecutive mode (resumption
//                       differential shrinks; §VI-D)
//   cubic-cc          — CUBIC instead of NewReno on both transports (CC is
//                       deliberately symmetric; reductions should barely move)
//
// A First vs Repeat view (browser HTTP cache on) comes first. 150 of the
// paper's 325 sites x 3 vantages x 2 probes (about 13 s on a 4-vCPU host).
//
//   ./build/examples/ablations
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "core/experiments.h"
#include "core/study.h"
#include "util/stats.h"
#include "util/table.h"

using namespace h3cdn;

namespace {

struct AblationOutcome {
  std::string name;
  double mean_reduction_ms = 0.0;
  double median_reduction_ms = 0.0;
  double mean_resumed = 0.0;
};

AblationOutcome measure(const std::string& name, core::StudyConfig cfg,
                        std::shared_ptr<const web::Workload> workload) {
  const auto result = core::MeasurementStudy(cfg).run(std::move(workload));
  std::vector<double> reductions;
  double resumed = 0.0;
  const auto sites = core::site_pair_metrics(result);
  for (const auto& s : sites) {
    reductions.push_back(s.plt_reduction_ms);
    resumed += s.resumed_connections;
  }
  AblationOutcome o;
  o.name = name;
  o.mean_reduction_ms = util::mean(reductions);
  o.median_reduction_ms = util::median(reductions);
  o.mean_resumed = sites.empty() ? 0.0 : resumed / static_cast<double>(sites.size());
  return o;
}

void print_first_vs_repeat(std::ostream& os, const web::Workload& workload,
                           const browser::BrowserConfig& base_browser) {
  const std::size_t n = std::min<std::size_t>(60, workload.sites.size());
  double first_ms[2] = {0, 0}, repeat_ms[2] = {0, 0};
  double cached_entries = 0, total_entries = 0;
  for (int mode = 0; mode < 2; ++mode) {
    sim::Simulator sim;
    browser::Environment env(sim, workload.universe, browser::default_vantage_points()[0],
                             util::Rng(404));
    browser::BrowserConfig bc = base_browser;
    bc.h3_enabled = mode == 1;
    bc.http_cache_enabled = true;
    browser::Browser chrome(sim, env, nullptr, bc, util::Rng(405));
    for (std::size_t si = 0; si < n; ++si) {
      const auto& page = workload.sites[si].page;
      env.warm_page(page);
      first_ms[mode] += to_ms(chrome.visit_and_run(page).har.page_load_time);
      const auto repeat = chrome.visit_and_run(page);
      repeat_ms[mode] += to_ms(repeat.har.page_load_time);
      if (mode == 1) {
        for (const auto& e : repeat.har.entries) {
          cached_entries += e.from_cache;
          ++total_entries;
        }
      }
      chrome.clear_http_cache();
    }
  }
  util::AsciiTable fr({"View", "Mean H2 PLT (ms)", "Mean H3 PLT (ms)", "Reduction (ms)"});
  const double dn = static_cast<double>(n);
  fr.add_row({"First", util::fmt(first_ms[0] / dn, 1), util::fmt(first_ms[1] / dn, 1),
              util::fmt((first_ms[0] - first_ms[1]) / dn, 1)});
  fr.add_row({"Repeat", util::fmt(repeat_ms[0] / dn, 1), util::fmt(repeat_ms[1] / dn, 1),
              util::fmt((repeat_ms[0] - repeat_ms[1]) / dn, 1)});
  os << "First vs Repeat view (browser HTTP cache on; "
     << util::fmt_pct(cached_entries / total_entries) << " of repeat entries from cache):\n";
  os << fr.to_string(2) << "\n";
}

}  // namespace

int main() {
  core::StudyConfig base;
  base.workload.site_count = 325;
  base.max_sites = 150;
  base.probes_per_vantage = 2;

  auto workload = std::make_shared<web::Workload>(web::generate_workload(base.workload));

  std::vector<AblationOutcome> rows;
  rows.push_back(measure("baseline", base, workload));

  {
    // Force TLS 1.2 on every domain (3-RTT H2 connects).
    auto tls12 = std::make_shared<web::Workload>(*workload);
    for (const auto& name : tls12->universe.all_domain_names()) {
      tls12->universe.mutable_get(name).tls_version = tls::TlsVersion::Tls12;
    }
    rows.push_back(measure("tls12-everywhere", base, tls12));
  }

  {
    core::StudyConfig cfg = base;
    for (auto& v : cfg.vantages) v.h2_coalescing_enabled = false;
    rows.push_back(measure("no-coalescing", cfg, workload));
  }

  {
    core::StudyConfig cfg = base;
    cfg.consecutive = true;
    rows.push_back(measure("consecutive baseline", cfg, workload));
    cfg.browser.allow_zero_rtt = false;
    rows.push_back(measure("consecutive no-0rtt", cfg, workload));
  }

  {
    core::StudyConfig cfg = base;
    cfg.browser.transport.cc.algorithm = transport::CcAlgorithm::Cubic;
    rows.push_back(measure("cubic-cc", cfg, workload));
  }

  // First vs Repeat view (Saverimoutou et al., paper ref [21]).
  print_first_vs_repeat(std::cout, *workload, base.browser);

  util::AsciiTable t({"Ablation", "Mean PLT reduction (ms)", "Median (ms)",
                      "Mean resumed conns"});
  for (const auto& r : rows) {
    t.add_row({r.name, util::fmt(r.mean_reduction_ms, 1), util::fmt(r.median_reduction_ms, 1),
               util::fmt(r.mean_resumed, 1)});
  }
  std::cout << "Expected directions: tls12-everywhere > baseline; no-coalescing >= baseline\n"
               "(H2 loses its reuse edge); consecutive no-0rtt < consecutive baseline;\n"
               "cubic-cc ~ baseline (congestion control is symmetric by design).\n";
  std::cout << t.to_string(2);
  return 0;
}
