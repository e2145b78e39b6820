#include "core/clusters.h"

#include <algorithm>
#include <sstream>

#include "analysis/page_metrics.h"
#include "analysis/vector_math.h"
#include "browser/waterfall.h"
#include "util/json.h"
#include "util/table.h"

namespace h3cdn::core {

namespace {

std::vector<std::string> phase_names() {
  std::vector<std::string> names;
  names.reserve(obs::kPhaseCount);
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    names.emplace_back(obs::to_string(static_cast<obs::Phase>(i)));
  }
  return names;
}

/// Accumulates one archetype's (or the global) diff summary.
struct RowAcc {
  std::size_t pages = 0;
  double h2_plt = 0.0, h3_plt = 0.0;
  double h2_fcp = 0.0, h3_fcp = 0.0;
  double h2_si = 0.0, h3_si = 0.0;
  obs::PhaseVector h2;
  obs::PhaseVector h3;

  void add(const ClusterPage& p, const obs::PhaseVector& h2_phases,
           const obs::PhaseVector& h3_phases) {
    ++pages;
    h2_plt += p.h2_plt_ms;
    h3_plt += p.h3_plt_ms;
    h2_fcp += p.h2_fcp_ms;
    h3_fcp += p.h3_fcp_ms;
    h2_si += p.h2_si_ms;
    h3_si += p.h3_si_ms;
    h2 += h2_phases;
    h3 += h3_phases;
  }

  void finish(ClusterArchetypeRow& row) const {
    row.pages = pages;
    if (pages == 0) return;
    const auto n = static_cast<double>(pages);
    row.mean_h2_plt_ms = h2_plt / n;
    row.mean_h3_plt_ms = h3_plt / n;
    row.mean_h2_fcp_ms = h2_fcp / n;
    row.mean_h3_fcp_ms = h3_fcp / n;
    row.mean_h2_si_ms = h2_si / n;
    row.mean_h3_si_ms = h3_si / n;
    row.mean_h2 = h2;
    row.mean_h2 /= n;
    row.mean_h3 = h3;
    row.mean_h3 /= n;
    row.mean_delta = row.mean_h2 - row.mean_h3;
  }
};

SelectorAbResult run_selector_ab(const std::vector<ClusterPage>& pages,
                                 SelectorConfig selector_config, std::uint64_t seed) {
  using http::HttpVersion;
  SelectorAbResult ab;
  ab.pairs = pages.size();
  if (pages.empty()) return ab;

  // Exploration is for live traffic; the replay wants the deterministic
  // exploit policy both arms would settle on.
  selector_config.explore_rate = 0.0;
  AdaptiveProtocolSelector global(selector_config, util::Rng(seed));
  AdaptiveProtocolSelector conditioned(selector_config, util::Rng(seed + 1));

  const auto context_of = [](const ClusterPage& p) {
    return p.archetype >= 0 ? p.archetype : AdaptiveProtocolSelector::kGlobalContext;
  };

  // Train: both arms see both protocols' measured PLT for every pair.
  for (const auto& p : pages) {
    global.observe(p.site, HttpVersion::H2, p.h2_plt_ms);
    global.observe(p.site, HttpVersion::H3, p.h3_plt_ms);
    conditioned.observe(context_of(p), p.site, HttpVersion::H2, p.h2_plt_ms);
    conditioned.observe(context_of(p), p.site, HttpVersion::H3, p.h3_plt_ms);
  }

  // Evaluate: realized PLT is the measured PLT of the recommended protocol
  // (H3 when an arm defers to the pool default, matching protocol_for).
  for (const auto& p : pages) {
    const HttpVersion pick_g = global.recommend(p.site).value_or(HttpVersion::H3);
    const HttpVersion pick_c =
        conditioned.recommend(context_of(p), p.site).value_or(HttpVersion::H3);
    if (pick_g == HttpVersion::H2) ++ab.global_h2_picks;
    if (pick_c == HttpVersion::H2) ++ab.conditioned_h2_picks;
    ab.global_mean_plt_ms += pick_g == HttpVersion::H2 ? p.h2_plt_ms : p.h3_plt_ms;
    ab.conditioned_mean_plt_ms += pick_c == HttpVersion::H2 ? p.h2_plt_ms : p.h3_plt_ms;
    ab.oracle_mean_plt_ms += std::min(p.h2_plt_ms, p.h3_plt_ms);
  }
  const auto n = static_cast<double>(pages.size());
  ab.global_mean_plt_ms /= n;
  ab.conditioned_mean_plt_ms /= n;
  ab.oracle_mean_plt_ms /= n;
  return ab;
}

}  // namespace

ClustersResult compute_clusters(const StudyResult& study, const ClustersConfig& config) {
  ClustersResult r;
  r.algo = config.archetype.algo == analysis::ArchetypeAlgo::Dbscan ? "dbscan" : "kmeans";
  r.qoe_features = config.include_qoe;
  r.feature_names = phase_names();
  if (config.include_qoe) {
    r.feature_names.emplace_back("qoe_fcp_ratio");
    r.feature_names.emplace_back("qoe_si_ratio");
  }

  // One point per H2/H3 pair, in the study engine's canonical order.
  const auto pairs = study.pairs();
  std::vector<obs::PhaseVector> h2_phases, h3_phases;
  std::vector<std::vector<double>> phase_rows;
  for (const auto& p : pairs) {
    const std::string label = p.vantage + "/p" + std::to_string(p.probe);
    const auto h2 = obs::analyze_critical_path(browser::make_waterfall(p.h2->har, label + "/h2"));
    const auto h3 = obs::analyze_critical_path(browser::make_waterfall(p.h3->har, label + "/h3"));

    ClusterPage page;
    page.site_index = p.site_index;
    page.site = p.h2->har.site;
    page.vantage = p.vantage;
    page.probe = p.probe;
    page.h2_plt_ms = h2.plt_ms;
    page.h3_plt_ms = h3.plt_ms;
    page.h2_fcp_ms = h2.qoe.fcp_ms;
    page.h3_fcp_ms = h3.qoe.fcp_ms;
    page.h2_si_ms = h2.qoe.speed_index_ms;
    page.h3_si_ms = h3.qoe.speed_index_ms;

    page.provider = p.h3->metrics.dominant_provider();

    // The combined H2+H3 critical-path time per phase; normalized below so
    // the clustered shape is scale-free.
    std::vector<double> row(obs::kPhaseCount, 0.0);
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      row[i] = h2.phases.ms[i] + h3.phases.ms[i];
    }
    phase_rows.push_back(std::move(row));
    h2_phases.push_back(h2.phases);
    h3_phases.push_back(h3.phases);
    r.pages.push_back(std::move(page));
  }

  r.global.id = -2;
  r.global.name = "all";
  if (r.pages.empty()) return r;

  std::vector<std::vector<double>> features = analysis::normalize_rows(phase_rows);
  if (config.include_qoe) {
    for (std::size_t i = 0; i < features.size(); ++i) {
      const ClusterPage& p = r.pages[i];
      const double fcp_ratio =
          0.5 * ((p.h2_plt_ms > 0.0 ? p.h2_fcp_ms / p.h2_plt_ms : 0.0) +
                 (p.h3_plt_ms > 0.0 ? p.h3_fcp_ms / p.h3_plt_ms : 0.0));
      const double si_ratio = 0.5 * ((p.h2_plt_ms > 0.0 ? p.h2_si_ms / p.h2_plt_ms : 0.0) +
                                     (p.h3_plt_ms > 0.0 ? p.h3_si_ms / p.h3_plt_ms : 0.0));
      features[i].push_back(fcp_ratio);
      features[i].push_back(si_ratio);
    }
  }

  const analysis::ArchetypeResult discovered =
      analysis::discover_archetypes(features, phase_names(), config.archetype);
  r.cluster_count = discovered.cluster_count;
  r.eps_used = discovered.eps_used;
  r.chosen_k = discovered.chosen_k;
  r.silhouette = discovered.silhouette;
  for (std::size_t i = 0; i < r.pages.size(); ++i) {
    r.pages[i].archetype = discovered.labels[i];
    r.pages[i].features = features[i];
  }

  RowAcc global_acc;
  for (std::size_t i = 0; i < r.pages.size(); ++i) {
    global_acc.add(r.pages[i], h2_phases[i], h3_phases[i]);
  }
  global_acc.finish(r.global);
  r.global.centroid = analysis::mean_row(features);

  for (const auto& a : discovered.archetypes) {
    ClusterArchetypeRow row;
    row.id = a.id;
    row.name = a.name;
    row.centroid = a.centroid;
    RowAcc acc;
    for (std::size_t m : a.members) acc.add(r.pages[m], h2_phases[m], h3_phases[m]);
    acc.finish(row);
    r.archetypes.push_back(std::move(row));
  }

  if (config.run_ab) r.ab = run_selector_ab(r.pages, config.selector, study.config.seed);
  return r;
}

namespace {

void write_archetype_row(util::JsonWriter& w, const ClusterArchetypeRow& row) {
  w.begin_object();
  w.kv("id", static_cast<std::int64_t>(row.id));
  w.kv("name", row.name);
  w.kv("pages", row.pages);
  w.key("centroid").begin_array();
  for (double v : row.centroid) w.value(v);
  w.end_array();
  w.kv("mean_h2_plt_ms", row.mean_h2_plt_ms);
  w.kv("mean_h3_plt_ms", row.mean_h3_plt_ms);
  w.kv("mean_plt_delta_ms", row.mean_plt_delta_ms());
  w.kv("mean_h2_fcp_ms", row.mean_h2_fcp_ms);
  w.kv("mean_h3_fcp_ms", row.mean_h3_fcp_ms);
  w.kv("mean_h2_si_ms", row.mean_h2_si_ms);
  w.kv("mean_h3_si_ms", row.mean_h3_si_ms);
  const auto phases = [&](const char* key, const obs::PhaseVector& v) {
    w.key(key).begin_object();
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      w.kv(obs::to_string(static_cast<obs::Phase>(i)), v.ms[i]);
    }
    w.end_object();
  };
  phases("mean_h2_ms", row.mean_h2);
  phases("mean_h3_ms", row.mean_h3);
  phases("mean_delta_ms", row.mean_delta);
  w.end_object();
}

}  // namespace

std::string clusters_to_json(const ClustersResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", static_cast<std::int64_t>(1));
  w.kv("algo", r.algo);
  w.kv("qoe_features", r.qoe_features);
  w.kv("cluster_count", r.cluster_count);
  w.kv("eps_used", r.eps_used);
  w.kv("chosen_k", r.chosen_k);
  w.kv("silhouette", r.silhouette);
  w.kv("pages", r.pages.size());
  w.key("feature_names").begin_array();
  for (const auto& name : r.feature_names) w.value(name);
  w.end_array();
  w.key("global");
  write_archetype_row(w, r.global);
  w.key("archetypes").begin_array();
  for (const auto& row : r.archetypes) write_archetype_row(w, row);
  w.end_array();
  w.key("assignments").begin_array();
  for (const auto& p : r.pages) {
    w.begin_object();
    w.kv("site_index", p.site_index);
    w.kv("site", p.site);
    w.kv("vantage", p.vantage);
    w.kv("probe", p.probe);
    w.kv("provider", p.provider);
    w.kv("archetype", static_cast<std::int64_t>(p.archetype));
    w.kv("h2_plt_ms", p.h2_plt_ms);
    w.kv("h3_plt_ms", p.h3_plt_ms);
    w.kv("h2_fcp_ms", p.h2_fcp_ms);
    w.kv("h3_fcp_ms", p.h3_fcp_ms);
    w.kv("h2_si_ms", p.h2_si_ms);
    w.kv("h3_si_ms", p.h3_si_ms);
    w.key("features").begin_array();
    for (double v : p.features) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("ab").begin_object();
  w.kv("pairs", r.ab.pairs);
  w.kv("global_mean_plt_ms", r.ab.global_mean_plt_ms);
  w.kv("conditioned_mean_plt_ms", r.ab.conditioned_mean_plt_ms);
  w.kv("oracle_mean_plt_ms", r.ab.oracle_mean_plt_ms);
  w.kv("mean_delta_ms", r.ab.mean_delta_ms());
  w.kv("global_h2_picks", r.ab.global_h2_picks);
  w.kv("conditioned_h2_picks", r.ab.conditioned_h2_picks);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string clusters_to_csv(const ClustersResult& r) {
  std::ostringstream os;
  os << "archetype,name,pages,mean_h2_plt_ms,mean_h3_plt_ms,mean_plt_delta_ms"
        ",mean_h2_fcp_ms,mean_h3_fcp_ms,mean_h2_si_ms,mean_h3_si_ms";
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    os << ",delta_" << obs::to_string(static_cast<obs::Phase>(i)) << "_ms";
  }
  os << '\n';
  const auto row = [&](const ClusterArchetypeRow& g) {
    if (g.id == -2) {
      os << "all";
    } else if (g.id < 0) {
      os << "noise";
    } else {
      os << g.id;
    }
    os << ',' << g.name << ',' << g.pages << ',' << g.mean_h2_plt_ms << ',' << g.mean_h3_plt_ms
       << ',' << g.mean_plt_delta_ms() << ',' << g.mean_h2_fcp_ms << ',' << g.mean_h3_fcp_ms
       << ',' << g.mean_h2_si_ms << ',' << g.mean_h3_si_ms;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) os << ',' << g.mean_delta.ms[i];
    os << '\n';
  };
  row(r.global);
  for (const auto& g : r.archetypes) row(g);
  return os.str();
}

void print_clusters(std::ostream& os, const ClustersResult& r) {
  using util::AsciiTable;
  using util::fmt;

  os << "Workload archetypes: " << r.algo << " over normalized phase shares";
  if (r.qoe_features) os << " + QoE ratios";
  os << '\n';
  if (r.algo == "dbscan") {
    os << "  eps " << fmt(r.eps_used, 4) << ", " << r.cluster_count << " cluster(s), silhouette "
       << fmt(r.silhouette, 3) << '\n';
  } else {
    os << "  chosen k " << r.chosen_k << " (silhouette sweep, score " << fmt(r.silhouette, 3)
       << ")\n";
  }

  std::vector<std::string> headers{"Archetype", "Name", "Pages", "H2 PLT", "H3 PLT", "dPLT",
                                   "H2 FCP", "H3 FCP"};
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    headers.emplace_back(obs::to_string(static_cast<obs::Phase>(i)));
  }
  AsciiTable t(headers);
  const auto add = [&](const ClusterArchetypeRow& row) {
    std::string id = row.id == -2 ? "all" : row.id < 0 ? "noise" : std::to_string(row.id);
    std::vector<std::string> cells{std::move(id),
                                   row.name,
                                   std::to_string(row.pages),
                                   fmt(row.mean_h2_plt_ms, 1),
                                   fmt(row.mean_h3_plt_ms, 1),
                                   fmt(row.mean_plt_delta_ms(), 1),
                                   fmt(row.mean_h2_fcp_ms, 1),
                                   fmt(row.mean_h3_fcp_ms, 1)};
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      cells.push_back(fmt(row.mean_delta.ms[i], 1));
    }
    t.add_row(cells);
  };
  add(r.global);
  for (const auto& row : r.archetypes) add(row);
  os << t.to_string(2);

  if (r.ab.pairs > 0) {
    os << "Selector A/B over " << r.ab.pairs << " pairs: global "
       << fmt(r.ab.global_mean_plt_ms, 2) << " ms, archetype-conditioned "
       << fmt(r.ab.conditioned_mean_plt_ms, 2) << " ms (delta "
       << fmt(r.ab.mean_delta_ms(), 2) << " ms, oracle " << fmt(r.ab.oracle_mean_plt_ms, 2)
       << " ms; H2 picks " << r.ab.global_h2_picks << " vs " << r.ab.conditioned_h2_picks
       << ")\n";
  }
}

}  // namespace h3cdn::core
