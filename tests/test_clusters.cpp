// Workload-archetype clustering over study pages (core::compute_clusters)
// and the archetype-conditioned selector context API. Pins the invariants
// the --archetypes --check gate enforces on the exported artifact: exact
// page coverage, centroid share normalization, and per-archetype diffs that
// re-aggregate to the global dissection.
#include "core/clusters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/selector.h"
#include "core/study.h"
#include "obs/critical_path.h"

namespace h3cdn::core {
namespace {

StudyConfig small_config(int jobs) {
  StudyConfig cfg;
  cfg.workload.site_count = 4;
  cfg.max_sites = 4;
  cfg.vantages = browser::default_vantage_points();
  cfg.probes_per_vantage = 2;
  cfg.jobs = jobs;
  return cfg;
}

TEST(Clusters, AssignmentsCoverEveryPairExactlyOnce) {
  const auto study = MeasurementStudy(small_config(1)).run();
  const auto r = compute_clusters(study);
  ASSERT_GT(r.pages.size(), 0u);
  EXPECT_EQ(r.global.pages, r.pages.size());
  std::set<std::string> seen;
  for (const auto& p : r.pages) {
    EXPECT_TRUE(seen.insert(p.vantage + "/p" + std::to_string(p.probe) + "/" +
                            std::to_string(p.site_index))
                    .second);
  }
  std::size_t covered = 0;
  for (const auto& a : r.archetypes) covered += a.pages;
  EXPECT_EQ(covered, r.pages.size());
}

TEST(Clusters, CentroidSharesSumToOne) {
  const auto study = MeasurementStudy(small_config(1)).run();
  const auto r = compute_clusters(study);
  const auto share_sum = [](const std::vector<double>& centroid) {
    double sum = 0.0;
    for (std::size_t i = 0; i < obs::kPhaseCount && i < centroid.size(); ++i) sum += centroid[i];
    return sum;
  };
  EXPECT_NEAR(share_sum(r.global.centroid), 1.0, 1e-9);
  for (const auto& a : r.archetypes) {
    if (a.pages == 0) continue;
    EXPECT_NEAR(share_sum(a.centroid), 1.0, 1e-9) << "archetype " << a.name;
  }
}

TEST(Clusters, DiffsReaggregateToGlobalDissection) {
  const auto study = MeasurementStudy(small_config(1)).run();
  const auto r = compute_clusters(study);
  const double n = static_cast<double>(r.global.pages);
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    double sum = 0.0;
    for (const auto& a : r.archetypes) {
      sum += static_cast<double>(a.pages) * a.mean_delta.ms[i];
    }
    EXPECT_NEAR(sum, n * r.global.mean_delta.ms[i], 1e-6 * std::max(1.0, n));
  }
  double plt_sum = 0.0;
  for (const auto& a : r.archetypes) {
    plt_sum += static_cast<double>(a.pages) * a.mean_plt_delta_ms();
  }
  EXPECT_NEAR(plt_sum, n * r.global.mean_plt_delta_ms(), 1e-6 * std::max(1.0, n));
}

TEST(Clusters, JsonIsByteIdenticalAcrossJobCounts) {
  const auto one = compute_clusters(MeasurementStudy(small_config(1)).run());
  const auto four = compute_clusters(MeasurementStudy(small_config(4)).run());
  EXPECT_EQ(clusters_to_json(one), clusters_to_json(four));
  EXPECT_EQ(clusters_to_csv(one), clusters_to_csv(four));
}

TEST(Clusters, KMeansAlternativeSweepsK) {
  ClustersConfig cfg;
  cfg.archetype.algo = analysis::ArchetypeAlgo::KMeans;
  cfg.run_ab = false;
  const auto r = compute_clusters(MeasurementStudy(small_config(1)).run(), cfg);
  EXPECT_EQ(r.algo, "kmeans");
  EXPECT_GE(r.chosen_k, cfg.archetype.k_min);
  EXPECT_LE(r.chosen_k, cfg.archetype.k_max);
  EXPECT_EQ(r.cluster_count, r.chosen_k);
  EXPECT_EQ(r.ab.pairs, 0u);  // disabled
}

TEST(Clusters, QoeFeaturesExtendTheFeatureSpace) {
  ClustersConfig plain;
  plain.run_ab = false;
  ClustersConfig with_qoe = plain;
  with_qoe.include_qoe = true;
  const auto study = MeasurementStudy(small_config(1)).run();
  const auto a = compute_clusters(study, plain);
  const auto b = compute_clusters(study, with_qoe);
  EXPECT_EQ(a.feature_names.size(), obs::kPhaseCount);
  EXPECT_EQ(b.feature_names.size(), obs::kPhaseCount + 2);
  ASSERT_FALSE(b.pages.empty());
  EXPECT_EQ(b.pages[0].features.size(), obs::kPhaseCount + 2);
  // Per-page QoE rides along either way: FCP never exceeds PLT's proxy, and
  // the Speed-Index integral is positive for byte-carrying pages.
  for (const auto& p : a.pages) {
    EXPECT_GT(p.h2_fcp_ms, 0.0);
    EXPECT_GT(p.h3_si_ms, 0.0);
  }
}

TEST(Clusters, AbReplayIsConsistentAndConditionedNeverLosesBadly) {
  const auto study = MeasurementStudy(small_config(1)).run();
  const auto r = compute_clusters(study);
  ASSERT_EQ(r.ab.pairs, r.pages.size());
  EXPECT_NEAR(r.ab.mean_delta_ms(), r.ab.global_mean_plt_ms - r.ab.conditioned_mean_plt_ms, 1e-9);
  // The oracle lower-bounds both arms by construction.
  EXPECT_LE(r.ab.oracle_mean_plt_ms, r.ab.global_mean_plt_ms + 1e-9);
  EXPECT_LE(r.ab.oracle_mean_plt_ms, r.ab.conditioned_mean_plt_ms + 1e-9);
}

TEST(Clusters, PaperWorkloadFindsAnArchetypeAndConditioningDoesNotLose) {
  // 12 sites of the paper's 325-site universe x 3 vantages x 2 probes.
  StudyConfig cfg;
  cfg.workload.site_count = 325;
  cfg.max_sites = 12;
  cfg.probes_per_vantage = 2;
  cfg.jobs = 0;
  const auto r = compute_clusters(MeasurementStudy(cfg).run());
  EXPECT_GT(r.pages.size(), 0u);
  EXPECT_GE(r.cluster_count, 1u);
  // A conditioned selector that loses to the global one would mean the
  // archetype split carries no signal.
  EXPECT_GE(r.ab.mean_delta_ms(), 0.0);
}

TEST(SelectorContexts, ContextEvidenceOverridesTheGlobalMarginal) {
  SelectorConfig cfg;
  cfg.explore_rate = 0.0;
  AdaptiveProtocolSelector selector(cfg, util::Rng(1));
  // Context 0: H2 is decisively faster. Context 1: H3 is. The global
  // marginal sees both and lands wherever the mix says.
  for (int i = 0; i < 5; ++i) {
    selector.observe(0, "origin", http::HttpVersion::H2, 100.0);
    selector.observe(0, "origin", http::HttpVersion::H3, 300.0);
    selector.observe(1, "origin", http::HttpVersion::H2, 300.0);
    selector.observe(1, "origin", http::HttpVersion::H3, 100.0);
  }
  EXPECT_EQ(selector.recommend(0, "origin"), http::HttpVersion::H2);
  EXPECT_EQ(selector.recommend(1, "origin"), http::HttpVersion::H3);
  // Context estimates stay separate; the global marginal pools both.
  EXPECT_NEAR(*selector.estimate(0, "origin", http::HttpVersion::H2), 100.0, 1e-6);
  EXPECT_NEAR(*selector.estimate(1, "origin", http::HttpVersion::H2), 300.0, 1e-6);
  const auto global_h2 =
      selector.estimate(AdaptiveProtocolSelector::kGlobalContext, "origin", http::HttpVersion::H2);
  ASSERT_TRUE(global_h2.has_value());
  EXPECT_GT(*global_h2, 100.0);
  EXPECT_LT(*global_h2, 300.0);
}

TEST(SelectorContexts, ImmatureContextFallsBackToGlobal) {
  SelectorConfig cfg;
  cfg.explore_rate = 0.0;
  AdaptiveProtocolSelector selector(cfg, util::Rng(2));
  for (int i = 0; i < 5; ++i) {
    selector.observe("origin", http::HttpVersion::H2, 100.0);
    selector.observe("origin", http::HttpVersion::H3, 300.0);
  }
  // Context 7 has never been observed: its recommendation must match the
  // mature global one rather than deferring to the pool default.
  EXPECT_EQ(selector.recommend(7, "origin"), http::HttpVersion::H2);
  EXPECT_EQ(selector.recommend(7, "origin"), selector.recommend("origin"));
}

}  // namespace
}  // namespace h3cdn::core
