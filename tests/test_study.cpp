// Integration tests of the whole measurement pipeline at reduced scale.
#include "core/study.h"

#include <gtest/gtest.h>

#include "core/experiments.h"

namespace h3cdn::core {
namespace {

StudyConfig small_config(std::size_t sites = 10, bool consecutive = false) {
  StudyConfig cfg;
  cfg.workload.site_count = sites;
  cfg.max_sites = sites;
  cfg.probes_per_vantage = 1;
  cfg.vantages = {browser::default_vantage_points()[0]};
  cfg.consecutive = consecutive;
  return cfg;
}

TEST(Study, ProducesTwoVisitsPerSitePerProbe) {
  const auto result = MeasurementStudy(small_config(6)).run();
  EXPECT_EQ(result.visits.size(), 12u);
  EXPECT_EQ(result.site_count(), 6u);
  const auto pairs = result.pairs();
  EXPECT_EQ(pairs.size(), 6u);
  for (const auto& p : pairs) {
    ASSERT_NE(p.h2, nullptr);
    ASSERT_NE(p.h3, nullptr);
    EXPECT_FALSE(p.h2->har.h3_enabled);
    EXPECT_TRUE(p.h3->har.h3_enabled);
    EXPECT_EQ(p.h2->har.entries.size(), p.h3->har.entries.size());
  }
}

TEST(Study, MultiVantageMultiProbe) {
  StudyConfig cfg = small_config(3);
  cfg.vantages = browser::default_vantage_points();
  cfg.probes_per_vantage = 2;
  const auto result = MeasurementStudy(cfg).run();
  EXPECT_EQ(result.visits.size(), 3u * 3u * 2u * 2u);
  EXPECT_EQ(result.pairs().size(), 3u * 3u * 2u);
}

TEST(Study, DeterministicAcrossRuns) {
  const auto a = MeasurementStudy(small_config(4)).run();
  const auto b = MeasurementStudy(small_config(4)).run();
  ASSERT_EQ(a.visits.size(), b.visits.size());
  for (std::size_t i = 0; i < a.visits.size(); ++i) {
    EXPECT_EQ(a.visits[i].har.page_load_time, b.visits[i].har.page_load_time);
    EXPECT_EQ(a.visits[i].har.connections_created, b.visits[i].har.connections_created);
  }
}

TEST(Study, SharedWorkloadAcrossStudies) {
  auto workload = std::make_shared<web::Workload>(web::generate_workload([] {
    web::WorkloadConfig cfg;
    cfg.site_count = 5;
    return cfg;
  }()));
  const auto a = MeasurementStudy(small_config(5)).run(workload);
  EXPECT_EQ(a.workload.get(), workload.get());
  EXPECT_EQ(a.pairs().size(), 5u);
}

TEST(Study, NonConsecutiveHasNoResumption) {
  const auto result = MeasurementStudy(small_config(5)).run();
  for (const auto& v : result.visits) EXPECT_EQ(v.har.resumed_connections, 0u);
}

TEST(Study, ConsecutiveModeResumesAcrossPages) {
  const auto result = MeasurementStudy(small_config(6, /*consecutive=*/true)).run();
  // The first page of a probe run has no tickets; later pages must resume.
  std::uint64_t total_resumed = 0;
  for (const auto& v : result.visits) {
    if (v.site_index > 0) total_resumed += v.har.resumed_connections;
  }
  EXPECT_GT(total_resumed, 0u);
}

TEST(Study, ConsecutiveResumptionGrowsOverTheSequence) {
  const auto result = MeasurementStudy(small_config(8, true)).run();
  double early = 0, late = 0;
  for (const auto& v : result.visits) {
    if (!v.h3_enabled) continue;
    if (v.site_index < 2) early += static_cast<double>(v.har.resumed_connections);
    if (v.site_index >= 6) late += static_cast<double>(v.har.resumed_connections);
  }
  EXPECT_GT(late, early);
}

TEST(Study, MaxSitesTruncates) {
  StudyConfig cfg = small_config(10);
  cfg.workload.site_count = 10;
  cfg.max_sites = 4;
  const auto result = MeasurementStudy(cfg).run();
  EXPECT_EQ(result.pairs().size(), 4u);
}

TEST(Study, LossRatePropagatesToVisits) {
  StudyConfig clean = small_config(3);
  StudyConfig lossy = small_config(3);
  lossy.loss_rate = 0.02;
  const auto a = MeasurementStudy(clean).run();
  const auto b = MeasurementStudy(lossy).run();
  double clean_plt = 0, lossy_plt = 0;
  for (const auto& v : a.visits) clean_plt += to_ms(v.har.page_load_time);
  for (const auto& v : b.visits) lossy_plt += to_ms(v.har.page_load_time);
  EXPECT_GT(lossy_plt, clean_plt);
}

TEST(Study, SitePairMetricsAveragesProbes) {
  StudyConfig cfg = small_config(4);
  cfg.probes_per_vantage = 2;
  const auto result = MeasurementStudy(cfg).run();
  const auto sites = site_pair_metrics(result);
  EXPECT_EQ(sites.size(), 4u);
  for (const auto& s : sites) {
    EXPECT_GT(s.cdn_resources, 0.0);
    EXPECT_GE(s.reused_h2, 0.0);
    EXPECT_FALSE(s.cdn_domains.empty());
  }
}

}  // namespace
}  // namespace h3cdn::core
