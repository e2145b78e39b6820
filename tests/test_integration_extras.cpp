// Cross-module integration of the extension features: protocol-hint steering,
// DNS inside page loads, selector + browser wiring.
#include <gtest/gtest.h>

#include "browser/browser.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "web/workload.h"

namespace h3cdn {
namespace {

web::Workload small_workload() {
  web::WorkloadConfig cfg;
  cfg.site_count = 5;
  return web::generate_workload(cfg);
}

TEST(ProtocolHint, ForcesH2OnCapableOrigins) {
  const auto workload = small_workload();
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  env.warm_page(workload.sites[0].page);
  browser::BrowserConfig config;
  config.h3_enabled = true;
  config.protocol_hint = [](const std::string&) { return http::HttpVersion::H2; };
  browser::Browser chrome(sim, env, nullptr, config, util::Rng(4));
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  EXPECT_EQ(result.har.count_version(http::HttpVersion::H3), 0u);
}

TEST(ProtocolHint, CannotForceH3OntoIncapableOrigins) {
  const auto workload = small_workload();
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  env.warm_page(workload.sites[0].page);
  browser::BrowserConfig config;
  config.h3_enabled = true;
  config.protocol_hint = [](const std::string&) { return http::HttpVersion::H3; };
  browser::Browser chrome(sim, env, nullptr, config, util::Rng(4));
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  const auto& u = workload.universe;
  for (const auto& e : result.har.entries) {
    if (e.timings.version == http::HttpVersion::H3) {
      EXPECT_TRUE(u.get(e.domain).supports_h3) << e.domain;
    }
  }
}

TEST(ProtocolHint, SelectorSteersThePool) {
  const auto workload = small_workload();
  core::SelectorConfig sc;
  sc.min_observations = 1;
  sc.explore_rate = 0.0;
  core::AdaptiveProtocolSelector selector(sc, util::Rng(9));
  // Pretend H2 measured far faster everywhere.
  for (const auto& name : workload.universe.all_domain_names()) {
    selector.observe(name, http::HttpVersion::H2, 10.0);
    selector.observe(name, http::HttpVersion::H3, 500.0);
  }
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  env.warm_page(workload.sites[0].page);
  browser::BrowserConfig config;
  config.h3_enabled = true;
  config.protocol_hint = [&selector](const std::string& d) { return selector.recommend(d); };
  browser::Browser chrome(sim, env, nullptr, config, util::Rng(4));
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  EXPECT_EQ(result.har.count_version(http::HttpVersion::H3), 0u);
}

TEST(BrowserDns, WarmedVisitsResolveInstantly) {
  const auto workload = small_workload();
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  env.warm_page(workload.sites[0].page);
  browser::Browser chrome(sim, env, nullptr, browser::BrowserConfig{}, util::Rng(4));
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  for (const auto& e : result.har.entries) {
    EXPECT_EQ(e.timings.dns, Duration::zero()) << e.domain;
  }
}

TEST(BrowserDns, ColdVisitsPayResolution) {
  const auto workload = small_workload();
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  // No warm_page: every first contact with a domain resolves over the wire.
  browser::Browser chrome(sim, env, nullptr, browser::BrowserConfig{}, util::Rng(4));
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  std::size_t paid = 0;
  for (const auto& e : result.har.entries) paid += e.timings.dns > Duration::zero();
  EXPECT_GT(paid, 0u);
  // Repeated entries to the same domain hit the stub cache.
  EXPECT_LT(paid, result.har.entries.size());
}

TEST(BrowserDns, DisabledDnsSkipsResolution) {
  const auto workload = small_workload();
  sim::Simulator sim;
  browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
  browser::BrowserConfig config;
  config.dns_enabled = false;
  browser::Browser chrome(sim, env, nullptr, config, util::Rng(4));
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  const auto result = chrome.visit_and_run(workload.sites[0].page);
  for (const auto& e : result.har.entries) EXPECT_EQ(e.timings.dns, Duration::zero());
  EXPECT_EQ(metrics.counter("dns.queries").value(), 0u);
}

TEST(BrowserDns, ColdDnsSlowsTheLoad) {
  const auto workload = small_workload();
  auto plt = [&](bool warm) {
    sim::Simulator sim;
    browser::Environment env(sim, workload.universe, browser::VantageConfig{}, util::Rng(3));
    if (warm) env.warm_page(workload.sites[0].page);
    browser::Browser chrome(sim, env, nullptr, browser::BrowserConfig{}, util::Rng(4));
    return chrome.visit_and_run(workload.sites[0].page).har.page_load_time;
  };
  EXPECT_GT(plt(false), plt(true));
}

}  // namespace
}  // namespace h3cdn
