// End-to-end experiment sanity at reduced scale: every compute_* driver must
// produce the paper's qualitative shape. The full-scale runs are the
// h3cdn_study commands in EXPERIMENTS.md (with paper-vs-measured values);
// test_pinned_headlines pins Fig. 6 and Fig. 9 values at 12 sites.
#include "core/experiments.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/export.h"
#include "core/report.h"

namespace h3cdn::core {
namespace {

// One shared mid-sized study for all experiment tests (computed once).
class ExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig cfg;
    cfg.max_sites = 60;
    cfg.probes_per_vantage = 1;
    study_ = new StudyResult(MeasurementStudy(cfg).run());

    StudyConfig ccfg = cfg;
    ccfg.consecutive = true;
    consecutive_ = new StudyResult(MeasurementStudy(ccfg).run());
  }
  static void TearDownTestSuite() {
    delete study_;
    delete consecutive_;
    study_ = nullptr;
    consecutive_ = nullptr;
  }
  static const StudyResult& study() { return *study_; }
  static const StudyResult& consecutive() { return *consecutive_; }

 private:
  static StudyResult* study_;
  static StudyResult* consecutive_;
};

StudyResult* ExperimentsTest::study_ = nullptr;
StudyResult* ExperimentsTest::consecutive_ = nullptr;

TEST_F(ExperimentsTest, Table1CoversAllProvidersChronologically) {
  const auto rows = compute_table1();
  EXPECT_EQ(rows.size(), 7u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].release_year, rows[i].release_year);
  }
  EXPECT_EQ(rows.front().provider, "Cloudflare");  // 2019, the earliest
}

TEST_F(ExperimentsTest, Table2CdnDominatesAndH3Substantial) {
  const auto t2 = compute_table2(study());
  // Each page counted once (the paper's dataset convention): ~90 reqs/site.
  EXPECT_GT(t2.total(), 4'000u);
  // Table II shape: CDN ~67% of requests; H3 ~33% overall; H1 "Others" small.
  const double cdn_share = static_cast<double>(t2.cdn_total()) / t2.total();
  EXPECT_NEAR(cdn_share, 0.67, 0.08);
  const double h3_share = static_cast<double>(t2.cdn_h3 + t2.noncdn_h3) / t2.total();
  EXPECT_NEAR(h3_share, 0.33, 0.10);
  const double others = static_cast<double>(t2.cdn_other + t2.noncdn_other) / t2.total();
  EXPECT_LT(others, 0.12);
  EXPECT_LT(t2.cdn_other, t2.noncdn_other + 1);  // "Others" nearly absent on CDNs
}

TEST_F(ExperimentsTest, Fig2GoogleAndCloudflareCarryH3) {
  const auto rows = compute_fig2(study());
  ASSERT_GE(rows.size(), 4u);
  // Google and Cloudflare jointly dominate H3 CDN traffic (Fig. 2); which of
  // the two leads can flip at reduced sample sizes.
  const Fig2Row* google = nullptr;
  const Fig2Row* cloudflare = nullptr;
  for (const auto& r : rows) {
    if (r.provider == cdn::ProviderId::Google) google = &r;
    if (r.provider == cdn::ProviderId::Cloudflare) cloudflare = &r;
  }
  ASSERT_NE(google, nullptr);
  ASSERT_NE(cloudflare, nullptr);
  EXPECT_GT(google->share_of_all_h3_cdn + cloudflare->share_of_all_h3_cdn, 0.75);
  EXPECT_GT(google->share_of_all_h3_cdn, 0.30);
  EXPECT_GT(cloudflare->share_of_all_h3_cdn, 0.25);
  EXPECT_GT(google->h3_share_within_provider, 0.85);          // nearly fully shifted
  EXPECT_NEAR(cloudflare->h3_share_within_provider, 0.5, 0.25);  // comparable H3/H2
  double share_sum = 0;
  for (const auto& r : rows) share_sum += r.share_of_all_h3_cdn;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST_F(ExperimentsTest, Fig3MostPagesCdnDominated) {
  const auto f3 = compute_fig3(study());
  EXPECT_NEAR(f3.fraction_above_50pct, 0.75, 0.15);
  ASSERT_FALSE(f3.ccdf.empty());
  for (std::size_t i = 1; i < f3.ccdf.size(); ++i) {
    EXPECT_GE(f3.ccdf[i - 1].y, f3.ccdf[i].y);  // CCDF non-increasing
  }
}

TEST_F(ExperimentsTest, Fig4PresenceAndProviderCounts) {
  const auto f4 = compute_fig4(study());
  ASSERT_GE(f4.presence.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(f4.presence[i].second, 0.5);
  EXPECT_GT(f4.fraction_pages_ge2_providers, 0.85);
  std::size_t pages = 0;
  for (const auto& [k, n] : f4.pages_by_provider_count) pages += n;
  EXPECT_EQ(pages, study().site_count());
}

TEST_F(ExperimentsTest, Fig5GiantsServeManyResourcesPerPage) {
  const auto f5 = compute_fig5(study());
  EXPECT_EQ(f5.ccdf.size(), 4u);
  EXPECT_NEAR(f5.fraction_pages_gt10.at(cdn::ProviderId::Cloudflare), 0.5, 0.25);
  EXPECT_NEAR(f5.fraction_pages_gt10.at(cdn::ProviderId::Google), 0.5, 0.25);
  // Amazon/Fastly host fewer resources per page than Cloudflare (Fig. 5).
  EXPECT_LT(f5.fraction_pages_gt10.at(cdn::ProviderId::Fastly),
            f5.fraction_pages_gt10.at(cdn::ProviderId::Cloudflare));
}

TEST_F(ExperimentsTest, Fig6GroupsAndPhaseMedians) {
  const auto f6 = compute_fig6(study());
  ASSERT_EQ(f6.groups.size(), 4u);
  // Equal group sizes; group key means increase.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(f6.groups[i].pages),
                static_cast<double>(f6.groups[0].pages), 1.0);
    EXPECT_GT(f6.groups[i].mean_h3_cdn_resources, f6.groups[i - 1].mean_h3_cdn_resources);
  }
  // Fig. 6b signs: connection > 0, wait < 0, receive ~ 0.
  EXPECT_GT(f6.median_connect_reduction_ms, 0.0);
  EXPECT_LT(f6.median_wait_reduction_ms, 0.0);
  EXPECT_NEAR(f6.median_receive_reduction_ms, 0.0, 1.0);
}

TEST_F(ExperimentsTest, Fig7ReuseRisesWithGroupAndH2LeadsH3) {
  const auto f7 = compute_fig7(study());
  ASSERT_EQ(f7.groups.size(), 4u);
  // Reuse rises with group level.
  EXPECT_GT(f7.groups[3].mean_reused_h2, f7.groups[0].mean_reused_h2 * 1.5);
  // H2 reuses more than H3, the gap widest in High (Fig. 7a/b).
  for (const auto& g : f7.groups) EXPECT_GE(g.mean_reused_diff, 0.0);
  EXPECT_GT(f7.groups[3].mean_reused_diff, f7.groups[0].mean_reused_diff);
}

TEST_F(ExperimentsTest, Fig8ResumptionScalesWithProviders) {
  const auto f8 = compute_fig8(consecutive());
  EXPECT_GT(f8.correlation_providers_vs_resumed, 0.5);
  ASSERT_GE(f8.by_provider_count.size(), 3u);
  // Resumed connections grow with provider count (Fig. 8b) — endpoints
  // compared; single buckets may wobble at this sample size.
  EXPECT_GT(f8.by_provider_count.back().mean_resumed_connections,
            f8.by_provider_count.front().mean_resumed_connections * 1.5);
}

TEST_F(ExperimentsTest, Table3SplitsBySharingDegree) {
  const auto t3 = compute_table3(consecutive());
  EXPECT_GT(t3.vector_dimension, 30u);
  EXPECT_LE(t3.vector_dimension, 58u);
  EXPECT_GT(t3.high.pages, 0u);
  EXPECT_GT(t3.low.pages, 0u);
  // C_H uses more providers and resumes more connections than C_L.
  EXPECT_GT(t3.high.avg_providers, t3.low.avg_providers);
  EXPECT_GT(t3.high.avg_resumed_connections, t3.low.avg_resumed_connections);
}

TEST_F(ExperimentsTest, Table3WithFewerPagesThanClustersLeavesBothGroupsEmpty) {
  StudyConfig cfg;
  cfg.max_sites = 1;
  cfg.consecutive = true;
  const auto t3 = compute_table3(MeasurementStudy(cfg).run());
  EXPECT_EQ(t3.high.pages, 0u);
  EXPECT_EQ(t3.low.pages, 0u);
  // One page shares no domain with another page, so it is the one outlier.
  EXPECT_EQ(t3.vector_dimension, 0u);
  EXPECT_EQ(t3.outliers_removed, 1u);
  std::ostringstream os;
  print_table3(os, t3);
  os << table3_to_csv(t3);
  EXPECT_EQ(os.str().find("nan"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("C_H,0,0,0,0"), std::string::npos) << os.str();
}

TEST_F(ExperimentsTest, Fig9SeriesFromExistingStudy) {
  const auto series = compute_fig9_series(study());
  EXPECT_DOUBLE_EQ(series.loss_rate, 0.0);
  EXPECT_EQ(series.points.size(), study().site_count());
}

TEST_F(ExperimentsTest, ReportsRenderNonEmpty) {
  std::ostringstream os;
  print_table1(os, compute_table1());
  print_table2(os, compute_table2(study()));
  print_fig2(os, compute_fig2(study()));
  print_fig3(os, compute_fig3(study()));
  print_fig4(os, compute_fig4(study()));
  print_fig5(os, compute_fig5(study()));
  print_fig6(os, compute_fig6(study()));
  print_fig7(os, compute_fig7(study()));
  print_fig8(os, compute_fig8(consecutive()));
  print_table3(os, compute_table3(consecutive()));
  const std::string out = os.str();
  EXPECT_GT(out.size(), 2000u);
  EXPECT_NE(out.find("Table II"), std::string::npos);
  EXPECT_NE(out.find("Table III"), std::string::npos);
  EXPECT_NE(out.find("Fig. 8"), std::string::npos);
}

TEST(ExperimentsStandalone, Fig9SlopesIncreaseWithLoss) {
  // Reduced-scale version of the Fig. 9 bench; the ordering must hold even
  // at modest sample sizes with multi-probe averaging.
  StudyConfig cfg;
  cfg.max_sites = 60;
  cfg.probes_per_vantage = 2;
  const auto f9 = compute_fig9(cfg, {0.0, 0.01});
  ASSERT_EQ(f9.series.size(), 2u);
  EXPECT_GT(f9.series[1].fit.slope, f9.series[0].fit.slope);
}

}  // namespace
}  // namespace h3cdn::core
