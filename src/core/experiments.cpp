#include "core/experiments.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <unordered_map>

#include "analysis/bootstrap.h"
#include "analysis/kmeans.h"
#include "browser/waterfall.h"
#include "util/check.h"
#include "util/rng.h"

namespace h3cdn::core {

std::vector<SitePairMetrics> site_pair_metrics(const StudyResult& study) {
  // pairs() is ordered by site, so each site's pairs are one run.
  const auto pairs = study.pairs();
  std::vector<SitePairMetrics> out;
  for (std::size_t begin = 0, end = 0; begin < pairs.size(); begin = end) {
    SitePairMetrics s;
    s.site_index = pairs[begin].site_index;
    for (end = begin; end < pairs.size() && pairs[end].site_index == s.site_index; ++end) {
      const analysis::PageMetrics& h2 = pairs[end].h2->metrics;
      const analysis::PageMetrics& h3 = pairs[end].h3->metrics;
      s.plt_reduction_ms += h2.plt_ms - h3.plt_ms;
      s.h3_cdn_resources += static_cast<double>(h3.h3_cdn_entries);
      s.cdn_resources += static_cast<double>(h3.cdn_entries);
      s.reused_h2 += static_cast<double>(h2.reused_connections);
      s.reused_h3 += static_cast<double>(h3.reused_connections);
      s.providers += static_cast<double>(h3.giant_provider_count());
      s.resumed_connections += static_cast<double>(h3.resumed_connections);
      s.cdn_domains.insert(h3.cdn_domains.begin(), h3.cdn_domains.end());
    }
    const double n = static_cast<double>(end - begin);
    s.plt_reduction_ms /= n;
    s.h3_cdn_resources /= n;
    s.cdn_resources /= n;
    s.reused_h2 /= n;
    s.reused_h3 /= n;
    s.providers /= n;
    s.resumed_connections /= n;
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

/// Page composition is probe-invariant, and the paper's 36,057-request
/// dataset counts each page's requests once: the first H3-mode visit of each
/// site stands for the page, in site order.
std::vector<const analysis::PageMetrics*> first_h3_visits(const StudyResult& study) {
  std::map<std::size_t, const analysis::PageMetrics*> by_site;
  for (const auto& v : study.visits) {
    if (v.h3_enabled) by_site.emplace(v.site_index, &v.metrics);
  }
  std::vector<const analysis::PageMetrics*> out;
  out.reserve(by_site.size());
  for (const auto& [site, m] : by_site) out.push_back(m);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<Table1Row> compute_table1() {
  std::vector<Table1Row> rows;
  for (const auto& t : cdn::ProviderRegistry::all()) {
    if (t.id == cdn::ProviderId::Other) continue;
    rows.push_back({t.name, t.h3_release_year, t.performance_report});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Table1Row& a, const Table1Row& b) { return a.release_year < b.release_year; });
  return rows;
}

Table2Result compute_table2(const StudyResult& study) {
  Table2Result r;
  for (const analysis::PageMetrics* m : first_h3_visits(study)) {
    r.cdn_h2 += m->h2_cdn_entries;
    r.cdn_h3 += m->h3_cdn_entries;
    r.cdn_other += m->other_cdn_entries;
    r.noncdn_h2 += m->h2_entries - m->h2_cdn_entries;
    r.noncdn_h3 += m->h3_entries - m->h3_cdn_entries;
    r.noncdn_other += m->other_entries - m->other_cdn_entries;
  }
  return r;
}

std::vector<Fig2Row> compute_fig2(const StudyResult& study) {
  std::map<cdn::ProviderId, Fig2Row> rows;
  std::size_t total_h3 = 0;
  std::size_t total_cdn = 0;
  for (const analysis::PageMetrics* m : first_h3_visits(study)) {
    for (const auto& [provider, count] : m->provider_counts) {
      auto& row = rows[provider];
      row.provider = provider;
      std::size_t h3 = 0;
      if (auto it = m->provider_h3_counts.find(provider); it != m->provider_h3_counts.end()) {
        h3 = it->second;
      }
      row.h3_requests += h3;
      row.h2_requests += count - h3;
      total_h3 += h3;
      total_cdn += count;
    }
  }
  std::vector<Fig2Row> out;
  for (auto& [provider, row] : rows) {
    const std::size_t total = row.h3_requests + row.h2_requests;
    row.h3_share_within_provider =
        total == 0 ? 0.0 : static_cast<double>(row.h3_requests) / static_cast<double>(total);
    row.share_of_all_h3_cdn = total_h3 == 0 ? 0.0
                                            : static_cast<double>(row.h3_requests) /
                                                  static_cast<double>(total_h3);
    row.market_share =
        total_cdn == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(total_cdn);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const Fig2Row& a, const Fig2Row& b) { return a.h3_requests > b.h3_requests; });
  return out;
}

Fig3Result compute_fig3(const StudyResult& study) {
  std::vector<double> pcts;
  for (const analysis::PageMetrics* m : first_h3_visits(study)) {
    pcts.push_back(100.0 * m->cdn_fraction());
  }

  Fig3Result r;
  r.fraction_above_50pct = util::fraction_above(pcts, 50.0);
  r.ccdf = util::ccdf(std::move(pcts));
  return r;
}

Fig4Result compute_fig4(const StudyResult& study) {
  const auto pages = first_h3_visits(study);
  const double n_pages = static_cast<double>(pages.size());

  Fig4Result r;
  std::map<cdn::ProviderId, std::size_t> appears_on;
  std::map<std::size_t, std::size_t> count_hist;
  std::size_t ge2 = 0;
  for (const analysis::PageMetrics* m : pages) {
    for (const auto& [provider, cnt] : m->provider_counts) ++appears_on[provider];
    ++count_hist[m->provider_count()];
    if (m->provider_count() >= 2) ++ge2;
  }
  for (const auto& [provider, cnt] : appears_on) {
    r.presence.emplace_back(provider, static_cast<double>(cnt) / n_pages);
  }
  std::sort(r.presence.begin(), r.presence.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [k, cnt] : count_hist) r.pages_by_provider_count.emplace_back(k, cnt);
  r.fraction_pages_ge2_providers = n_pages == 0.0 ? 0.0 : static_cast<double>(ge2) / n_pages;
  return r;
}

Fig5Result compute_fig5(const StudyResult& study) {
  const auto pages = first_h3_visits(study);
  Fig5Result r;
  for (cdn::ProviderId provider : cdn::ProviderRegistry::fig5_providers()) {
    std::vector<double> counts;  // over pages *using* the provider, per Fig. 5
    for (const analysis::PageMetrics* m : pages) {
      auto it = m->provider_counts.find(provider);
      if (it != m->provider_counts.end()) counts.push_back(static_cast<double>(it->second));
    }
    r.fraction_pages_gt10[provider] = util::fraction_above(counts, 10.0);
    r.ccdf[provider] = util::ccdf(std::move(counts));
  }
  return r;
}

namespace {

std::vector<analysis::QuartileGroup> h3_resource_groups(
    const std::vector<SitePairMetrics>& sites) {
  std::vector<double> keys;
  keys.reserve(sites.size());
  for (const auto& s : sites) keys.push_back(s.h3_cdn_resources);
  return analysis::quartile_groups(keys);
}

}  // namespace

Fig6Result compute_fig6(const StudyResult& study) {
  Fig6Result r;
  const auto sites = site_pair_metrics(study);
  const auto groups = h3_resource_groups(sites);

  for (int g = 0; g < 4; ++g) {
    Fig6GroupRow row;
    row.group = static_cast<analysis::QuartileGroup>(g);
    std::vector<double> reductions;
    double h3_resources = 0.0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (static_cast<int>(groups[i]) != g) continue;
      reductions.push_back(sites[i].plt_reduction_ms);
      h3_resources += sites[i].h3_cdn_resources;
    }
    row.pages = reductions.size();
    row.mean_plt_reduction_ms = util::mean(reductions);
    row.median_plt_reduction_ms = util::median(reductions);
    row.mean_h3_cdn_resources =
        row.pages == 0 ? 0.0 : h3_resources / static_cast<double>(row.pages);
    const auto ci = analysis::bootstrap_mean_ci(reductions, 0.95, 1000,
                                                util::Rng(0xC1 + static_cast<unsigned>(g)));
    row.ci_lo_ms = ci.lo;
    row.ci_hi_ms = ci.hi;
    r.groups.push_back(row);
  }

  // Per-entry phase reductions across every pair. Connect is compared over
  // entries that initiated a connection in both visits (see PhaseReduction).
  std::vector<double> connect, wait, receive;
  for (const auto& p : study.pairs()) {
    for (const auto& pr : analysis::entry_phase_reductions(p.h2->har, p.h3->har)) {
      if (pr.connect_valid) connect.push_back(pr.connect_ms);
      wait.push_back(pr.wait_ms);
      receive.push_back(pr.receive_ms);
    }
  }
  r.median_connect_reduction_ms = util::median(connect);
  r.median_wait_reduction_ms = util::median(wait);
  r.median_receive_reduction_ms = util::median(receive);
  r.connect_reduction_cdf = util::cdf(std::move(connect));
  r.wait_reduction_cdf = util::cdf(std::move(wait));
  r.receive_reduction_cdf = util::cdf(std::move(receive));
  return r;
}

Fig7Result compute_fig7(const StudyResult& study) {
  Fig7Result r;
  const auto sites = site_pair_metrics(study);
  const auto groups = h3_resource_groups(sites);

  for (int g = 0; g < 4; ++g) {
    Fig7GroupRow row;
    row.group = static_cast<analysis::QuartileGroup>(g);
    std::vector<double> h2s, h3s, diffs;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (static_cast<int>(groups[i]) != g) continue;
      h2s.push_back(sites[i].reused_h2);
      h3s.push_back(sites[i].reused_h3);
      diffs.push_back(sites[i].reused_h2 - sites[i].reused_h3);
    }
    row.mean_reused_h2 = util::mean(h2s);
    row.mean_reused_h3 = util::mean(h3s);
    row.mean_reused_diff = util::mean(diffs);
    r.groups.push_back(row);
  }

  // (c): PLT reduction binned by reused-connection difference.
  std::vector<double> diffs, reductions;
  for (const auto& s : sites) {
    diffs.push_back(s.reused_h2 - s.reused_h3);
    reductions.push_back(s.plt_reduction_ms);
  }
  r.correlation_diff_vs_reduction = util::pearson(diffs, reductions);

  constexpr double kBinWidth = 5.0;
  const auto bins = analysis::fixed_width_bins(diffs, kBinWidth);
  std::map<int, std::pair<double, std::size_t>> acc;  // bin -> (sum, n)
  for (std::size_t i = 0; i < bins.size(); ++i) {
    acc[bins[i]].first += reductions[i];
    acc[bins[i]].second += 1;
  }
  for (const auto& [bin, sum_n] : acc) {
    if (sum_n.second < 3) continue;  // skip noise bins with too few pages
    Fig7DiffBin b;
    b.diff_bin_center = (bin + 0.5) * kBinWidth;
    b.mean_plt_reduction_ms = sum_n.first / static_cast<double>(sum_n.second);
    b.pages = sum_n.second;
    r.reduction_by_diff.push_back(b);
  }
  return r;
}

Fig8Result compute_fig8(const StudyResult& consecutive_study) {
  H3CDN_EXPECTS(consecutive_study.config.consecutive);
  Fig8Result r;
  const auto sites = site_pair_metrics(consecutive_study);

  std::map<std::size_t, std::vector<std::pair<double, double>>> by_count;  // (red, resumed)
  std::vector<double> xs, red, res;
  for (const auto& s : sites) {
    const auto k = static_cast<std::size_t>(std::llround(s.providers));
    by_count[k].emplace_back(s.plt_reduction_ms, s.resumed_connections);
    xs.push_back(s.providers);
    red.push_back(s.plt_reduction_ms);
    res.push_back(s.resumed_connections);
  }
  for (const auto& [k, vals] : by_count) {
    Fig8Row row;
    row.providers = k;
    row.pages = vals.size();
    for (const auto& [a, b] : vals) {
      row.mean_plt_reduction_ms += a;
      row.mean_resumed_connections += b;
    }
    row.mean_plt_reduction_ms /= static_cast<double>(vals.size());
    row.mean_resumed_connections /= static_cast<double>(vals.size());
    r.by_provider_count.push_back(row);
  }
  r.correlation_providers_vs_reduction = util::pearson(xs, red);
  r.correlation_providers_vs_resumed = util::pearson(xs, res);

  // Condition on the origin-protocol lottery (see Fig8Result comment).
  std::vector<double> prov_h3, red_h3, prov_h2, red_h2;
  for (const auto& s : sites) {
    const auto& page = consecutive_study.workload->sites[s.site_index].page;
    const bool origin_h3 =
        consecutive_study.workload->universe.get(page.origin_domain).supports_h3;
    (origin_h3 ? prov_h3 : prov_h2).push_back(s.providers);
    (origin_h3 ? red_h3 : red_h2).push_back(s.plt_reduction_ms);
  }
  r.corr_reduction_origin_h3_pages = util::pearson(prov_h3, red_h3);
  r.corr_reduction_origin_h2_pages = util::pearson(prov_h2, red_h2);
  r.mean_reduction_origin_h3_pages = util::mean(red_h3);
  r.mean_reduction_origin_h2_pages = util::mean(red_h2);
  return r;
}

Table3Result compute_table3(const StudyResult& consecutive_study, std::uint64_t seed) {
  H3CDN_EXPECTS(consecutive_study.config.consecutive);
  auto sites = site_pair_metrics(consecutive_study);

  // Domain vocabulary: every CDN domain observed on >= 2 pages (the paper
  // removes webpages whose domains are used by no other webpage).
  std::map<std::string, std::size_t> domain_pages;
  for (const auto& s : sites) {
    for (const auto& d : s.cdn_domains) ++domain_pages[d];
  }
  std::vector<std::string> vocab;
  for (const auto& [d, n] : domain_pages) {
    if (n >= 2) vocab.push_back(d);
  }
  std::sort(vocab.begin(), vocab.end());
  std::unordered_map<std::string, std::size_t> vocab_index;
  for (std::size_t i = 0; i < vocab.size(); ++i) vocab_index[vocab[i]] = i;

  // Binary vectors; drop outlier pages with no shared domain at all.
  std::vector<std::vector<double>> points;
  std::vector<std::size_t> kept;  // indices into `sites`
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::vector<double> vec(vocab.size(), 0.0);
    bool any = false;
    for (const auto& d : sites[i].cdn_domains) {
      auto it = vocab_index.find(d);
      if (it != vocab_index.end()) {
        vec[it->second] = 1.0;
        any = true;
      }
    }
    if (!any) {
      ++outliers;
      continue;
    }
    points.push_back(std::move(vec));
    kept.push_back(i);
  }

  Table3Result r;
  r.vector_dimension = vocab.size();
  r.outliers_removed = outliers;

  // Fewer kept pages than clusters (a tiny study) leaves both groups empty.
  std::array<Table3Group, 2> groups;
  std::array<std::vector<double>, 2> reductions;
  analysis::KMeansConfig kc;
  kc.k = 2;
  if (points.size() >= kc.k) {
    const auto km = analysis::kmeans(points, kc, util::Rng(seed));
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const auto c = km.assignment[i];
      const auto& s = sites[kept[i]];
      groups[c].pages += 1;
      groups[c].avg_providers += s.providers;
      groups[c].avg_resumed_connections += s.resumed_connections;
      reductions[c].push_back(s.plt_reduction_ms);
    }
  }
  for (std::size_t c = 0; c < 2; ++c) {
    if (groups[c].pages > 0) {
      groups[c].avg_providers /= static_cast<double>(groups[c].pages);
      groups[c].avg_resumed_connections /= static_cast<double>(groups[c].pages);
      groups[c].plt_reduction_ms = util::mean(reductions[c]);
    }
  }
  const std::size_t hi = groups[0].avg_providers >= groups[1].avg_providers ? 0 : 1;
  r.high = groups[hi];
  r.high.name = "C_H (high sharing)";
  r.low = groups[1 - hi];
  r.low.name = "C_L (low sharing)";
  return r;
}

Fig9Series compute_fig9_series(const StudyResult& study) {
  Fig9Series s;
  s.loss_rate = study.config.loss_rate;
  std::vector<double> xs, ys;
  for (const auto& sp : site_pair_metrics(study)) {
    s.points.emplace_back(sp.cdn_resources, sp.plt_reduction_ms);
    xs.push_back(sp.cdn_resources);
    ys.push_back(sp.plt_reduction_ms);
  }
  s.fit = util::fit_line_binned(xs, ys, 8);
  return s;
}

PltDissectionResult compute_plt_dissection(const StudyResult& study) {
  struct Acc {
    std::size_t pages = 0;
    double h2_plt = 0.0;
    double h3_plt = 0.0;
    obs::PhaseVector h2;
    obs::PhaseVector h3;
  };
  Acc overall;
  std::map<std::string, Acc> by_vantage;
  std::map<std::string, Acc> by_provider;

  for (const auto& p : study.pairs()) {
    // Same run-labelling convention as the study engine, so the dissection
    // and the waterfalls.json artifact describe identical runs.
    const std::string label = p.vantage + "/p" + std::to_string(p.probe);
    const auto h2 =
        obs::analyze_critical_path(browser::make_waterfall(p.h2->har, label + "/h2"));
    const auto h3 =
        obs::analyze_critical_path(browser::make_waterfall(p.h3->har, label + "/h3"));
    const auto add = [&](Acc& a) {
      ++a.pages;
      a.h2_plt += h2.plt_ms;
      a.h3_plt += h3.plt_ms;
      a.h2 += h2.phases;
      a.h3 += h3.phases;
    };
    add(overall);
    add(by_vantage[p.vantage]);
    add(by_provider[p.h3->metrics.dominant_provider()]);
  }

  const auto finish = [](const std::string& name, const Acc& a) {
    PltDissectionRow row;
    row.group = name;
    row.pages = a.pages;
    if (a.pages > 0) {
      const auto n = static_cast<double>(a.pages);
      row.mean_h2_plt_ms = a.h2_plt / n;
      row.mean_h3_plt_ms = a.h3_plt / n;
      row.mean_h2 = a.h2;
      row.mean_h2 /= n;
      row.mean_h3 = a.h3;
      row.mean_h3 /= n;
      row.mean_delta = row.mean_h2 - row.mean_h3;
    }
    return row;
  };

  PltDissectionResult r;
  r.overall = finish("all", overall);
  // Vantage rows follow the config's vantage order, not map order.
  for (const auto& v : study.config.vantages) {
    auto it = by_vantage.find(v.name);
    if (it != by_vantage.end()) r.by_vantage.push_back(finish(it->first, it->second));
  }
  for (const auto& [name, acc] : by_provider) {
    r.by_provider.push_back(finish(name, acc));
  }
  return r;
}

Fig9Result compute_fig9(const StudyConfig& base, const std::vector<double>& loss_rates) {
  Fig9Result r;
  auto workload = std::make_shared<web::Workload>(web::generate_workload(base.workload));
  for (double loss : loss_rates) {
    StudyConfig cfg = base;
    cfg.loss_rate = loss;
    MeasurementStudy study(cfg);
    r.series.push_back(compute_fig9_series(study.run(workload)));
  }
  return r;
}

}  // namespace h3cdn::core
