// The measurement study driver: the paper's methodology (§III) as a library.
//
// A study visits every target page from every probe twice — once with an
// H2-only browser and once with an H3-enabled browser (separate "Chrome
// instances") — warming CDN edge caches first, terminating connections and
// clearing caches between pages, and collecting a HAR archive per visit.
// The consecutive mode (§VI-D) additionally keeps the TLS session-ticket
// store alive across pages within a probe run, enabling resumption.
//
// Execution is a sweep: every (vantage, probe, mode) run is an independent
// ProbeRunTask (own Simulator, Environment and Rng fork) executed by
// core::run_sweep (core/sweep.h), which supplies per-cell observability
// shards and merges in canonical cell order, so results are byte-identical
// for any `jobs` value. docs/PARALLELISM.md documents the contract.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/page_metrics.h"
#include "browser/browser.h"
#include "browser/environment.h"
#include "browser/har.h"
#include "web/workload.h"

namespace h3cdn::core {

class RunObservability;

struct StudyConfig {
  web::WorkloadConfig workload;
  std::vector<browser::VantageConfig> vantages = browser::default_vantage_points();
  int probes_per_vantage = 1;  // paper deploys 3 per site
  double loss_rate = 0.0;      // injected tc/netem loss (Fig. 9 sweeps)
  // Last-mile preset applied to every vantage ("" = leave as configured):
  // any net::LinkProfile name, e.g. "cellular" for the Gilbert-Elliott bursty
  // lossy mobile link of arXiv 1707.05836 (see net/link_profile.h).
  std::string link_profile;
  bool consecutive = false;    // keep session tickets across pages (§VI-D)
  std::size_t max_sites = 0;   // 0 = all workload sites; else truncate
  std::uint64_t seed = 7;
  // Worker threads for shard execution: 0 = hardware_concurrency, 1 = one
  // worker (still the sharded code path, so output is identical either way).
  int jobs = 0;
  browser::BrowserConfig browser;  // h3_enabled is overridden per mode
  // Optional observability sink (must outlive run()). When set, the study
  // installs its metrics registry and profiler for the duration of the run,
  // traces every connection plus a per-run pool event bus into its
  // aggregator, and records one waterfall per page visit.
  RunObservability* observability = nullptr;
};

struct PageVisitRecord {
  std::size_t site_index = 0;
  std::string vantage;
  int probe = 0;
  bool h3_enabled = false;
  browser::HarPage har;
  // LocEdge's verdicts over `har`, computed once in the visit's sweep cell;
  // every table and figure reads these instead of classifying again.
  analysis::PageMetrics metrics;
};

/// One probe's paired observation of one site.
struct VisitPair {
  std::size_t site_index = 0;
  std::string vantage;
  int probe = 0;
  const PageVisitRecord* h2 = nullptr;
  const PageVisitRecord* h3 = nullptr;
};

struct StudyResult {
  StudyConfig config;
  std::shared_ptr<const web::Workload> workload;
  std::vector<PageVisitRecord> visits;

  /// All (site, vantage, probe) H2/H3 pairings.
  [[nodiscard]] std::vector<VisitPair> pairs() const;

  /// Number of sites actually measured (after max_sites truncation).
  [[nodiscard]] std::size_t site_count() const;
};

class MeasurementStudy {
 public:
  explicit MeasurementStudy(StudyConfig config);

  /// Runs the whole study. Deterministic: same config => identical result.
  [[nodiscard]] StudyResult run() const;

  /// Runs against an externally generated workload (lets several experiments
  /// share one workload instance).
  [[nodiscard]] StudyResult run(std::shared_ptr<const web::Workload> workload) const;

 private:
  StudyConfig config_;
};

}  // namespace h3cdn::core
