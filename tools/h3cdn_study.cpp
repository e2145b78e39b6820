// h3cdn_study — command-line driver for the measurement study.
//
// Runs a configurable study and prints any of the paper's tables/figures as
// text, CSV, or a JSON summary.
//
//   h3cdn_study [options]
//     --sites N          number of websites (default 325)
//     --probes N         probes per vantage point (default 1)
//     --loss RATE        injected loss, e.g. 0.01 (default 0)
//     --consecutive      keep session tickets across pages (Fig. 8/Table III)
//     --seed N           study seed (default 7)
//     --jobs N           worker threads for shard execution (default: all
//                        hardware threads; output is byte-identical for any N)
//     --experiment NAME  table1|table2|table3|fig2..fig9|dissection|summary|all
//                        (default all; dissection = critical-path PLT
//                        attribution of the H2-vs-H3 delta) — plus `load`,
//                        the fleet-scale capacity sweep, `chaos`, the
//                        scripted fault-scenario suite with invariant
//                        checking, `clusters`, workload-archetype
//                        discovery over the attribution vectors, and
//                        `topology`, the multi-hop path-plan sweep with
//                        per-hop PLT attribution (none of the four is part
//                        of `all`; see docs/LOAD.md, docs/RESILIENCE.md,
//                        docs/OBSERVABILITY.md, docs/TOPOLOGY.md)
//     --link-profile P   last-mile preset for every vantage (wired|cellular)
//     --no-resilience    run the chaos suite with the resilience engine off
//     --load-rates LIST  comma-separated offered rates, pages/sec (open
//                        loop) or users (closed loop); default 2,8,32
//     --load-window SEC  arrival window in seconds (default 10)
//     --load-arrival K   fixed|poisson|ramp|closed (default poisson)
//     --plans LIST       topology: comma-separated PathPlans to sweep
//                        (hyphen-joined h2/h3 hop tokens; default
//                        h3-h3,h3-h2,h2-h3; direct baselines are appended)
//     --topo-loss LIST   topology: comma-separated loss rates (default 0,0.01)
//     --shards N         split each page's CDN resources across N sharded
//                        hostnames per domain (H1-era domain sharding; 1 =
//                        off, byte-identical to the unsharded workload)
//     --format FMT       text|csv (default text; summary is always JSON)
//     --out PATH         write to a file instead of stdout
//     --obs DIR          record run-wide observability artifacts into DIR
//                        (metrics.{json,csv,prom}, timeline.{json,csv},
//                        slo.json, qlog.json, waterfalls.json,
//                        attribution.json, trace.perfetto.json,
//                        profile.json, fault_recovery.json for chaos, and
//                        clusters.json for clusters — inspect with
//                        h3cdn_obs_report)
//
// A numeric flag outside its range (or not a number) exits 2 with a message
// naming the flag.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/clusters.h"
#include "core/export.h"
#include "core/observability.h"
#include "core/report.h"
#include "core/topology_study.h"
#include "load/chaos.h"
#include "load/study.h"
#include "net/link_profile.h"
#include "numeric_flag.h"
#include "web/workload_io.h"

using namespace h3cdn;

namespace {

struct Options {
  core::StudyConfig study;
  std::string experiment = "all";
  std::string format = "text";
  std::string out_path;
  std::string workload_in;   // load pages from a workload JSON file
  std::string workload_out;  // dump the generated workload and exit
  std::string obs_dir;       // write observability artifacts here
  // --experiment load knobs.
  std::vector<double> load_rates = {2.0, 8.0, 32.0};
  double load_window_s = 10.0;
  load::ArrivalKind load_arrival = load::ArrivalKind::Poisson;
  std::size_t fleet_sample = 0;      // coreset target per cell; 0 = full run
  bool fleet_sample_verify = false;  // also run full, check the p95 rank-CI
  std::vector<load::LinkMixEntry> link_mix;  // heterogeneous access links
  bool sites_set = false;  // load defaults to a small rotation unless --sites
  bool no_resilience = false;  // chaos: disable the engine under test
  // --experiment topology knobs.
  std::vector<std::string> topo_plans = {"h3-h3", "h3-h2", "h2-h3"};
  std::vector<double> topo_loss = {0.0, 0.01};
  // --experiment clusters knobs.
  std::string cluster_algo = "dbscan";  // dbscan|kmeans
  double cluster_eps = 0.0;             // 0 = auto (median k-dist)
  std::size_t cluster_min_pts = 4;
  std::size_t cluster_k_min = 2;  // kmeans silhouette sweep range
  std::size_t cluster_k_max = 6;
  bool cluster_qoe = false;    // append QoE ratio features
  bool cluster_no_ab = false;  // skip the selector A/B replay
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--sites N] [--probes N] [--loss RATE] [--consecutive] [--seed N] [--jobs N]\n"
               "       [--experiment table1|table2|table3|fig2|...|fig9|dissection|summary|load|chaos|clusters|topology|all]\n"
               "       [--plans P1,P2,...] [--topo-loss R1,R2,...] [--shards N]\n"
               "       [--load-rates R1,R2,...] [--load-window SEC] [--load-arrival fixed|poisson|ramp|closed]\n"
               "       [--fleet-sample N] [--fleet-sample-verify] [--link-mix NAME:W,NAME:W,...]\n"
               "       [--link-profile wired|cellular] [--no-resilience]\n"
               "       [--cluster-algo dbscan|kmeans] [--cluster-eps E] [--cluster-min-pts N]\n"
               "       [--cluster-k-min K] [--cluster-k-max K] [--cluster-qoe] [--cluster-no-ab]\n"
               "       [--format text|csv] [--out PATH] [--obs DIR]\n"
               "       [--workload-in FILE.json] [--workload-out FILE.json]\n";
  std::exit(2);
}

using tools::kAtLeastOne;
using tools::kLossRate;
using tools::kNonNegative;
using tools::kPositive;
using tools::Range;

// Every numeric flag is read here: the whole text must parse as a T inside
// `range`, else usage() follows a message naming the flag.
template <typename T>
T parse_number(const char* argv0, const std::string& flag, const std::string& text, Range range) {
  const std::optional<T> value = tools::parse_number<T>(flag, text, range);
  if (!value) usage(argv0);
  return *value;
}

Options parse(int argc, char** argv) {
  Options o;
  o.study.workload.site_count = 325;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out, Range range) {
      out = parse_number<T>(argv[0], arg, next(), range);
    };
    // Comma-separated list of numbers, each in `range`; at least one.
    auto numbers = [&](std::vector<double>& out, Range range) {
      out.clear();
      std::stringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) {
        if (!item.empty()) out.push_back(parse_number<double>(argv[0], arg, item, range));
      }
      if (out.empty()) usage(argv[0]);
    };
    if (arg == "--sites") {
      number(o.study.max_sites, kAtLeastOne);
      o.sites_set = true;
    } else if (arg == "--probes") {
      number(o.study.probes_per_vantage, kAtLeastOne);
    } else if (arg == "--loss") {
      number(o.study.loss_rate, kLossRate);
    } else if (arg == "--consecutive") {
      o.study.consecutive = true;
    } else if (arg == "--seed") {
      number(o.study.seed, kNonNegative);
    } else if (arg == "--jobs") {
      number(o.study.jobs, kNonNegative);
    } else if (arg == "--experiment") {
      o.experiment = next();
    } else if (arg == "--load-rates") {
      numbers(o.load_rates, kPositive);
    } else if (arg == "--load-window") {
      number(o.load_window_s, kPositive);
    } else if (arg == "--load-arrival") {
      bool ok = true;
      o.load_arrival = load::arrival_kind_from_string(next(), &ok);
      if (!ok) usage(argv[0]);
    } else if (arg == "--plans") {
      o.topo_plans.clear();
      std::stringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) {
        if (item.empty()) continue;
        if (!topology::PathPlan::parse(item)) usage(argv[0]);
        o.topo_plans.push_back(item);
      }
      if (o.topo_plans.empty()) usage(argv[0]);
    } else if (arg == "--topo-loss") {
      numbers(o.topo_loss, kLossRate);
    } else if (arg == "--shards") {
      number(o.study.workload.domain_shards, kAtLeastOne);
    } else if (arg == "--fleet-sample") {
      number(o.fleet_sample, kNonNegative);
    } else if (arg == "--fleet-sample-verify") {
      o.fleet_sample_verify = true;
    } else if (arg == "--link-mix") {
      // NAME:WEIGHT pairs, e.g. wired:0.7,cellular:0.3
      std::stringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) {
        if (item.empty()) continue;
        const std::size_t colon = item.find(':');
        load::LinkMixEntry entry;
        entry.profile = item.substr(0, colon);
        if (colon != std::string::npos) {
          entry.weight = parse_number<double>(argv[0], arg, item.substr(colon + 1), kPositive);
        }
        if (!net::LinkProfile::from_name(entry.profile)) usage(argv[0]);
        o.link_mix.push_back(entry);
      }
      if (o.link_mix.empty()) usage(argv[0]);
    } else if (arg == "--link-profile") {
      o.study.link_profile = next();
      if (!net::LinkProfile::from_name(o.study.link_profile)) usage(argv[0]);
    } else if (arg == "--no-resilience") {
      o.no_resilience = true;
    } else if (arg == "--cluster-algo") {
      o.cluster_algo = next();
      if (o.cluster_algo != "dbscan" && o.cluster_algo != "kmeans") usage(argv[0]);
    } else if (arg == "--cluster-eps") {
      number(o.cluster_eps, kNonNegative);
    } else if (arg == "--cluster-min-pts") {
      number(o.cluster_min_pts, kAtLeastOne);
    } else if (arg == "--cluster-k-min") {
      number(o.cluster_k_min, kAtLeastOne);
    } else if (arg == "--cluster-k-max") {
      number(o.cluster_k_max, kAtLeastOne);
    } else if (arg == "--cluster-qoe") {
      o.cluster_qoe = true;
    } else if (arg == "--cluster-no-ab") {
      o.cluster_no_ab = true;
    } else if (arg == "--format") {
      o.format = next();
    } else if (arg == "--out") {
      o.out_path = next();
    } else if (arg == "--workload-in") {
      o.workload_in = next();
    } else if (arg == "--workload-out") {
      o.workload_out = next();
    } else if (arg == "--obs") {
      o.obs_dir = next();
    } else {
      usage(argv[0]);
    }
  }
  if (o.cluster_k_min > o.cluster_k_max) {
    std::cerr << argv[0] << ": --cluster-k-min " << o.cluster_k_min
              << " exceeds --cluster-k-max " << o.cluster_k_max << "\n";
    usage(argv[0]);
  }
  return o;
}

bool wants(const Options& o, const char* name) {
  return o.experiment == "all" || o.experiment == name;
}

// Returns a process exit status: nonzero when a chaos invariant failed.
int emit(const Options& o, std::ostream& os) {
  const bool csv = o.format == "csv";

  // The chaos suite drives scripted fault scenarios through the resilience
  // engine and checks run invariants per cell (docs/RESILIENCE.md). Not part
  // of "all"; a violated invariant fails the invocation (CI smoke hooks this).
  if (o.experiment == "chaos") {
    core::ChaosConfig cfg;
    cfg.workload = o.study.workload;
    if (o.sites_set) cfg.sites = o.study.max_sites;
    cfg.seed = o.study.seed;
    cfg.jobs = o.study.jobs;
    cfg.resilience.enabled = !o.no_resilience;
    if (!o.study.link_profile.empty()) {
      const auto profile = net::LinkProfile::from_name(o.study.link_profile);
      browser::apply_link_profile(cfg.vantage, *profile);
    }
    const core::ChaosResult result = core::run_chaos(cfg, o.study.observability);
    if (csv) {
      os << core::chaos_result_to_csv(result);
    } else {
      core::print_chaos_result(os, result);
    }
    if (!result.all_passed()) {
      std::cerr << "chaos: invariant violations detected\n";
      return 1;
    }
    return 0;
  }

  // The load sweep is its own experiment (and deliberately not part of
  // "all": it measures a loaded fleet, not the paper's idle-edge probes).
  if (o.experiment == "load") {
    load::LoadStudyConfig cfg;
    cfg.workload = o.study.workload;
    if (o.sites_set) cfg.sites = o.study.max_sites;
    cfg.seed = o.study.seed;
    cfg.jobs = o.study.jobs;
    cfg.arrival = o.load_arrival;
    cfg.offered_rates = o.load_rates;
    cfg.window = from_ms(o.load_window_s * 1000.0);
    cfg.link_mix = o.link_mix;
    cfg.sampling.target = o.fleet_sample;
    const load::LoadResult result = load::run_load_study(cfg, o.study.observability);
    if (csv) {
      os << load::load_result_to_csv(result);
    } else {
      load::print_load_result(os, result);
    }
    if (o.fleet_sample_verify) {
      if (o.fleet_sample == 0) {
        std::cerr << "--fleet-sample-verify requires --fleet-sample N\n";
        return 2;
      }
      // Re-run the identical sweep with sampling off; the sampled run's p95
      // rank-CI must cover every full-population cell.
      load::LoadStudyConfig full_cfg = cfg;
      full_cfg.sampling.target = 0;
      const load::LoadResult full = load::run_load_study(full_cfg, nullptr);
      if (!load::verify_sampling_accuracy(result, full, std::cerr)) {
        std::cerr << "fleet-sample: full-population p95 outside the reported bound\n";
        return 1;
      }
    }
    return 0;
  }
  // The multi-hop topology sweep (docs/TOPOLOGY.md): chained relay paths with
  // per-hop protocol choice, reported as end-to-end + per-hop PLT dissections.
  // Not part of "all"; a violated additivity invariant fails the invocation.
  if (o.experiment == "topology") {
    core::TopologyConfig cfg;
    cfg.workload = o.study.workload;
    if (o.sites_set) cfg.sites = o.study.max_sites;
    cfg.plans = o.topo_plans;
    cfg.loss_rates = o.topo_loss;
    cfg.seed = o.study.seed;
    cfg.jobs = o.study.jobs;
    if (!o.study.link_profile.empty()) {
      const auto profile = net::LinkProfile::from_name(o.study.link_profile);
      browser::apply_link_profile(cfg.vantage, *profile);
    }
    const core::TopologyResult result = core::run_topology(cfg, o.study.observability);
    if (csv) {
      os << core::topology_result_to_csv(result);
    } else {
      core::print_topology_result(os, result);
    }
    if (!result.all_passed()) {
      std::cerr << "topology: per-hop attribution invariant violations detected\n";
      return 1;
    }
    return 0;
  }

  const bool needs_consecutive =
      wants(o, "fig8") || wants(o, "table3") || o.experiment == "all";

  if (wants(o, "table1")) {
    if (csv) {
      os << "provider,release_year\n";
      for (const auto& r : core::compute_table1()) os << r.provider << ',' << r.release_year << '\n';
    } else {
      core::print_table1(os, core::compute_table1());
    }
  }

  // Everything below needs a study run.
  const bool needs_standard = wants(o, "table2") || wants(o, "fig2") || wants(o, "fig3") ||
                              wants(o, "fig4") || wants(o, "fig5") || wants(o, "fig6") ||
                              wants(o, "fig7") || wants(o, "dissection") || wants(o, "summary");
  std::shared_ptr<const web::Workload> external;
  if (!o.workload_in.empty()) {
    std::ifstream file(o.workload_in);
    if (!file) {
      std::cerr << "cannot open " << o.workload_in << "\n";
      std::exit(1);
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    web::WorkloadIoError werr;
    auto loaded = web::workload_from_json(buffer.str(), &werr);
    if (!loaded) {
      std::cerr << "workload load failed: " << werr.message << "\n";
      std::exit(1);
    }
    external = std::make_shared<web::Workload>(std::move(*loaded));
  }

  // Workload-archetype discovery (docs/OBSERVABILITY.md "Archetypes & QoE").
  // Not part of "all": it runs its own standard study, clusters the per-pair
  // attribution vectors, replays the selector A/B, and — when --obs is set —
  // writes the clusters.json artifact next to the other run artifacts.
  if (o.experiment == "clusters") {
    core::StudyConfig cfg = o.study;
    cfg.consecutive = false;
    const core::StudyResult study = external ? core::MeasurementStudy(cfg).run(external)
                                             : core::MeasurementStudy(cfg).run();
    core::ClustersConfig ccfg;
    ccfg.archetype.algo = o.cluster_algo == "kmeans" ? analysis::ArchetypeAlgo::KMeans
                                                     : analysis::ArchetypeAlgo::Dbscan;
    ccfg.archetype.dbscan.eps = o.cluster_eps;
    ccfg.archetype.dbscan.min_pts = o.cluster_min_pts;
    ccfg.archetype.k_min = o.cluster_k_min;
    ccfg.archetype.k_max = o.cluster_k_max;
    ccfg.archetype.seed = o.study.seed;
    ccfg.include_qoe = o.cluster_qoe;
    ccfg.run_ab = !o.cluster_no_ab;
    const core::ClustersResult result = core::compute_clusters(study, ccfg);
    if (csv) {
      os << core::clusters_to_csv(result);
    } else {
      core::print_clusters(os, result);
    }
    if (!o.obs_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(o.obs_dir, ec);
      const std::string path = o.obs_dir + "/clusters.json";
      std::ofstream file(path);
      if (!file) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
      }
      file << core::clusters_to_json(result) << '\n';
      std::cerr << "wrote " << result.archetypes.size() << " archetype(s) over "
                << result.pages.size() << " pages to " << path << "\n";
    }
    return 0;
  }

  std::optional<core::StudyResult> standard;
  if (needs_standard) {
    core::StudyConfig cfg = o.study;
    cfg.consecutive = false;
    standard = external ? core::MeasurementStudy(cfg).run(external)
                        : core::MeasurementStudy(cfg).run();
  }
  std::optional<core::StudyResult> consecutive;
  if (needs_consecutive && (wants(o, "fig8") || wants(o, "table3"))) {
    core::StudyConfig cfg = o.study;
    cfg.consecutive = true;
    auto workload = standard ? standard->workload
                             : std::shared_ptr<const web::Workload>(external);
    consecutive = workload ? core::MeasurementStudy(cfg).run(workload)
                           : core::MeasurementStudy(cfg).run();
  }

  auto text_or_csv = [&](const char* name, auto compute, auto print, auto to_csv) {
    if (!wants(o, name)) return;
    const auto result = compute();
    if (csv) {
      os << to_csv(result);
    } else {
      print(os, result);
    }
  };

  if (standard) {
    const auto& study = *standard;
    text_or_csv(
        "table2", [&] { return core::compute_table2(study); },
        [](std::ostream& s, const auto& r) { core::print_table2(s, r); }, core::table2_to_csv);
    text_or_csv(
        "fig2", [&] { return core::compute_fig2(study); },
        [](std::ostream& s, const auto& r) { core::print_fig2(s, r); }, core::fig2_to_csv);
    text_or_csv(
        "fig3", [&] { return core::compute_fig3(study); },
        [](std::ostream& s, const auto& r) { core::print_fig3(s, r); }, core::fig3_to_csv);
    text_or_csv(
        "fig4", [&] { return core::compute_fig4(study); },
        [](std::ostream& s, const auto& r) { core::print_fig4(s, r); }, core::fig4_to_csv);
    text_or_csv(
        "fig5", [&] { return core::compute_fig5(study); },
        [](std::ostream& s, const auto& r) { core::print_fig5(s, r); }, core::fig5_to_csv);
    text_or_csv(
        "fig6", [&] { return core::compute_fig6(study); },
        [](std::ostream& s, const auto& r) { core::print_fig6(s, r); }, core::fig6_to_csv);
    text_or_csv(
        "fig7", [&] { return core::compute_fig7(study); },
        [](std::ostream& s, const auto& r) { core::print_fig7(s, r); }, core::fig7_to_csv);
    text_or_csv(
        "dissection", [&] { return core::compute_plt_dissection(study); },
        [](std::ostream& s, const auto& r) { core::print_plt_dissection(s, r); },
        core::dissection_to_csv);
    if (wants(o, "summary")) os << core::summary_to_json(study) << '\n';
  }

  if (consecutive) {
    const auto& study = *consecutive;
    text_or_csv(
        "fig8", [&] { return core::compute_fig8(study); },
        [](std::ostream& s, const auto& r) { core::print_fig8(s, r); }, core::fig8_to_csv);
    text_or_csv(
        "table3", [&] { return core::compute_table3(study); },
        [](std::ostream& s, const auto& r) { core::print_table3(s, r); }, core::table3_to_csv);
  }

  if (wants(o, "fig9")) {
    core::StudyConfig cfg = o.study;
    cfg.consecutive = false;
    const auto fig9 = core::compute_fig9(cfg, {0.0, 0.005, 0.01});
    if (csv) {
      os << core::fig9_to_csv(fig9);
    } else {
      core::print_fig9(os, fig9);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (o.format != "text" && o.format != "csv") usage(argv[0]);

  // Every study run in this invocation shares one observability sink, so the
  // artifacts describe the invocation as a whole.
  std::optional<core::RunObservability> observability;
  if (!o.obs_dir.empty()) {
    observability.emplace();
    o.study.observability = &*observability;
  }
  auto flush_observability = [&]() -> int {
    if (!observability) return 0;
    std::string error;
    if (!observability->write_artifacts(o.obs_dir, &error)) {
      std::cerr << "observability export failed: " << error << "\n";
      return 1;
    }
    std::cerr << "wrote observability artifacts ("
              << observability->metrics().series_count() << " series, "
              << observability->traces().event_count() << " trace events, "
              << observability->waterfalls().size() << " waterfalls) to " << o.obs_dir << "\n";
    return 0;
  };

  if (!o.workload_out.empty()) {
    web::WorkloadConfig wcfg = o.study.workload;
    const auto workload = web::generate_workload(wcfg);
    std::ofstream file(o.workload_out);
    if (!file) {
      std::cerr << "cannot open " << o.workload_out << " for writing\n";
      return 1;
    }
    file << web::workload_to_json(workload);
    std::cerr << "wrote " << workload.sites.size() << " sites to " << o.workload_out << "\n";
    return 0;
  }

  if (o.out_path.empty()) {
    const int status = emit(o, std::cout);
    const int obs_status = flush_observability();
    return status != 0 ? status : obs_status;
  }
  std::ofstream file(o.out_path);
  if (!file) {
    std::cerr << "cannot open " << o.out_path << " for writing\n";
    return 1;
  }
  const int status = emit(o, file);
  const int obs_status = flush_observability();
  return status != 0 ? status : obs_status;
}
