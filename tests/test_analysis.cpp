#include "analysis/page_metrics.h"

#include <gtest/gtest.h>

#include "browser/browser.h"
#include "web/workload.h"

namespace h3cdn::analysis {
namespace {

struct Fixture {
  web::Workload workload;
  locedge::Classifier classifier;

  Fixture() {
    web::WorkloadConfig cfg;
    cfg.site_count = 6;
    workload = web::generate_workload(cfg);
  }

  browser::PageLoadResult load(std::size_t site, bool h3) {
    sim::Simulator sim;
    browser::VantageConfig vantage;
    vantage.server_noise_salt = h3 ? 1 : 2;
    browser::Environment env(sim, workload.universe, vantage, util::Rng(77));
    env.warm_page(workload.sites[site].page);
    browser::BrowserConfig config;
    config.h3_enabled = h3;
    browser::Browser browser(sim, env, nullptr, config, util::Rng(5));
    return browser.visit_and_run(workload.sites[site].page);
  }
};

TEST(PageMetrics, CountsMatchGroundTruth) {
  Fixture f;
  const auto r = f.load(0, true);
  const auto m = compute_page_metrics(r.har, f.classifier);
  const auto& page = f.workload.sites[0].page;
  EXPECT_EQ(m.total_entries, page.total_requests());
  EXPECT_EQ(m.cdn_entries, page.cdn_resource_count());
  EXPECT_EQ(m.provider_counts.size(), page.cdn_providers().size());
  EXPECT_EQ(m.cdn_domains, page.cdn_domains());
  EXPECT_NEAR(m.cdn_fraction(), page.cdn_fraction(), 1e-12);
}

TEST(PageMetrics, VersionSplitsAddUp) {
  Fixture f;
  const auto r = f.load(1, true);
  const auto m = compute_page_metrics(r.har, f.classifier);
  EXPECT_EQ(m.h2_entries + m.h3_entries + m.other_entries, m.total_entries);
  EXPECT_EQ(m.h2_cdn_entries + m.h3_cdn_entries + m.other_cdn_entries, m.cdn_entries);
  EXPECT_EQ(m.plt_ms, to_ms(r.har.page_load_time));
}

TEST(PageMetrics, H3CdnCountsZeroInH2Mode) {
  Fixture f;
  const auto r = f.load(1, false);
  const auto m = compute_page_metrics(r.har, f.classifier);
  EXPECT_EQ(m.h3_entries, 0u);
  EXPECT_EQ(m.h3_cdn_entries, 0u);
  EXPECT_TRUE(m.provider_h3_counts.empty());
}

TEST(PageMetrics, ProviderH3CountsBoundedByProviderCounts) {
  Fixture f;
  const auto r = f.load(2, true);
  const auto m = compute_page_metrics(r.har, f.classifier);
  for (const auto& [provider, h3] : m.provider_h3_counts) {
    ASSERT_TRUE(m.provider_counts.count(provider));
    EXPECT_LE(h3, m.provider_counts.at(provider));
  }
}

TEST(PageMetrics, DominantProviderIsTheFirstMaximumInIdOrder) {
  PageMetrics m;
  m.provider_counts[cdn::ProviderId::Fastly] = 3;
  m.provider_counts[cdn::ProviderId::Amazon] = 7;
  m.provider_counts[cdn::ProviderId::Cloudflare] = 7;
  // Amazon and Cloudflare tie; Cloudflare comes first in id order.
  ASSERT_LT(cdn::ProviderId::Cloudflare, cdn::ProviderId::Amazon);
  EXPECT_EQ(m.dominant_provider(), cdn::to_string(cdn::ProviderId::Cloudflare));
  m.provider_counts[cdn::ProviderId::Fastly] = 8;
  EXPECT_EQ(m.dominant_provider(), cdn::to_string(cdn::ProviderId::Fastly));
}

TEST(PageMetrics, DominantProviderIsNoneOnlyWithoutCdnEntries) {
  Fixture f;
  const auto r = f.load(0, true);
  const auto m = compute_page_metrics(r.har, f.classifier);
  ASSERT_GT(m.cdn_entries, 0u);
  EXPECT_NE(m.dominant_provider(), "none");
  EXPECT_EQ(PageMetrics{}.dominant_provider(), "none");
}

TEST(PhaseReductions, MatchedByResourceId) {
  Fixture f;
  const auto h2 = f.load(3, false);
  const auto h3 = f.load(3, true);
  const auto phases = entry_phase_reductions(h2.har, h3.har);
  EXPECT_EQ(phases.size(), h2.har.entries.size());
}

TEST(PhaseReductions, ConnectValidOnlyForDualInitiators) {
  Fixture f;
  const auto h2 = f.load(3, false);
  const auto h3 = f.load(3, true);
  const auto phases = entry_phase_reductions(h2.har, h3.har);
  std::size_t valid = 0;
  for (const auto& p : phases) valid += p.connect_valid;
  EXPECT_GT(valid, 0u);
  EXPECT_LT(valid, phases.size());  // most entries are reused at least once
}

TEST(PhaseReductions, DisjointArchivesYieldNothing) {
  browser::HarPage a, b;
  browser::HarEntry ea;
  ea.resource_id = 1;
  a.entries.push_back(ea);
  browser::HarEntry eb;
  eb.resource_id = 2;
  b.entries.push_back(eb);
  EXPECT_TRUE(entry_phase_reductions(a, b).empty());
}

TEST(PhaseReductions, IdenticalArchivesGiveZeroReductions) {
  Fixture f;
  const auto r = f.load(4, true);
  const auto phases = entry_phase_reductions(r.har, r.har);
  for (const auto& p : phases) {
    EXPECT_DOUBLE_EQ(p.connect_ms, 0.0);
    EXPECT_DOUBLE_EQ(p.wait_ms, 0.0);
    EXPECT_DOUBLE_EQ(p.receive_ms, 0.0);
  }
}

}  // namespace
}  // namespace h3cdn::analysis
