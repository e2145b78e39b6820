// Chaos harness tests (docs/RESILIENCE.md): the shipped scenario suite holds
// every run invariant, the shard merge is byte-identical at any job count,
// and the midtransfer-kill scenario demonstrates Range resumption — pages
// that fail outright without the resilience engine complete with it.
#include "load/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/observability.h"

namespace h3cdn::core {
namespace {

ChaosConfig small_config() {
  ChaosConfig cfg;
  cfg.sites = 2;
  return cfg;
}

const ChaosCellRow* row_of(const ChaosResult& result, const std::string& name) {
  for (const auto& row : result.rows) {
    if (row.scenario == name) return &row;
  }
  return nullptr;
}

std::string violations_of(const ChaosResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& v : row.violations) out += row.scenario + ": " + v + "\n";
  }
  return out;
}

TEST(Chaos, DefaultSuiteHoldsEveryInvariant) {
  const ChaosResult result = run_chaos(small_config());
  ASSERT_EQ(result.rows.size(), default_chaos_scenarios().size());
  EXPECT_TRUE(result.all_passed()) << violations_of(result);

  // Scenario signatures actually fired (an inert schedule would be caught by
  // the harness itself, but pin the headline ones here too).
  const ChaosCellRow* kill = row_of(result, "midtransfer-kill");
  ASSERT_NE(kill, nullptr);
  EXPECT_GT(kill->resumed_bytes, 0u) << "Range resumption never saved a byte";
  EXPECT_GT(kill->connection_deaths, 0u);

  const ChaosCellRow* storm = row_of(result, "refusal-storm");
  ASSERT_NE(storm, nullptr);
  EXPECT_GT(storm->connections_refused, 0u);
  EXPECT_EQ(storm->h3_broken_marks, 0u) << "a refusal must never mark H3 broken";

  const ChaosCellRow* failover = row_of(result, "dns-failover");
  ASSERT_NE(failover, nullptr);
  EXPECT_GT(failover->failover_switches, 0u);
  EXPECT_EQ(failover->failed_visits, 0u) << "record-1 should carry every page";
}

TEST(Chaos, ShardMergeIsByteIdenticalAcrossJobs) {
  // Three cells is enough for jobs=1 vs jobs=3 to schedule differently.
  ChaosConfig cfg = small_config();
  std::vector<ChaosScenario> keep;
  for (const auto& sc : cfg.scenarios) {
    if (sc.name == "baseline" || sc.name == "midtransfer-kill" || sc.name == "dns-failover") {
      keep.push_back(sc);
    }
  }
  ASSERT_EQ(keep.size(), 3u);
  cfg.scenarios = keep;

  cfg.jobs = 1;
  const ChaosResult serial = run_chaos(cfg);
  cfg.jobs = 3;
  const ChaosResult parallel = run_chaos(cfg);
  EXPECT_TRUE(serial.all_passed()) << violations_of(serial);
  EXPECT_EQ(chaos_result_to_csv(serial), chaos_result_to_csv(parallel));
}

TEST(Chaos, MidTransferKillNeedsTheEngineToCompletePages) {
  ChaosConfig cfg = small_config();
  std::vector<ChaosScenario> keep;
  for (const auto& sc : cfg.scenarios) {
    if (sc.name == "midtransfer-kill") keep.push_back(sc);
  }
  ASSERT_EQ(keep.size(), 1u);
  cfg.scenarios = keep;

  const ChaosResult with_engine = run_chaos(cfg);
  cfg.resilience.enabled = false;
  const ChaosResult without = run_chaos(cfg);
  // The universal invariants (typed termination, conservation, phase sums)
  // hold either way; the resumption expectation is gated on the engine.
  EXPECT_TRUE(with_engine.all_passed()) << violations_of(with_engine);
  EXPECT_TRUE(without.all_passed()) << violations_of(without);

  const ChaosCellRow* on = row_of(with_engine, "midtransfer-kill");
  const ChaosCellRow* off = row_of(without, "midtransfer-kill");
  ASSERT_NE(on, nullptr);
  ASSERT_NE(off, nullptr);
  EXPECT_GT(on->resumed_bytes, 0u);
  EXPECT_EQ(off->resumed_bytes, 0u) << "legacy rescue must not send Range requests";
  EXPECT_LT(on->failed_visits, off->failed_visits)
      << "resumption should complete pages the legacy rescue loses";
}

TEST(Chaos, OrphanFailureThatFinishesThePageStopsTouchingItsPool) {
  // In this suite's midtransfer-kill cell, failing one orphan of a killed
  // session completes the page, which destroys the pool while its death
  // handler is still looping over the remaining orphans. The loop must stop
  // there: reading the freed pool is a use-after-free (AddressSanitizer
  // reports it) and stamps timeline points at garbage sim times.
  ChaosConfig cfg = small_config();
  std::vector<ChaosScenario> keep;
  for (const auto& sc : cfg.scenarios) {
    if (sc.name == "baseline" || sc.name == "edge-outage-midpage" ||
        sc.name == "midtransfer-kill") {
      keep.push_back(sc);
    }
  }
  ASSERT_EQ(keep.size(), 3u);
  cfg.scenarios = keep;
  RunObservability obs;
  const ChaosResult result = run_chaos(cfg, &obs);
  EXPECT_TRUE(result.all_passed()) << violations_of(result);
  // Cells drain within seconds of their 4 s window; garbage times land
  // ~10^8 windows out.
  EXPECT_LT(obs.timeline().span_buckets(), 1000);
}

TEST(Chaos, EveryCellYieldsAFiniteMttrConsistentWithItsScriptedWindow) {
  // The fault->recovery annotation contract (docs/OBSERVABILITY.md): MTTR is
  // finite for every scenario, ties out against the scripted fault window,
  // and detection implies degradation (and vice versa).
  const ChaosConfig cfg = small_config();
  const ChaosResult result = run_chaos(cfg);
  EXPECT_TRUE(result.all_passed()) << violations_of(result);
  for (const auto& row : result.rows) {
    SCOPED_TRACE(row.scenario);
    ASSERT_TRUE(std::isfinite(row.mttr_ms));
    EXPECT_GE(row.mttr_ms, 0.0);
    EXPECT_EQ(row.degraded_windows > 0, row.detection_ms >= 0.0);
    EXPECT_EQ(row.degraded_windows > 0, row.recovery_ms >= 0.0);
    if (row.degraded_windows == 0) {
      EXPECT_DOUBLE_EQ(row.mttr_ms, 0.0);  // nothing degraded: instant recovery
      continue;
    }
    EXPECT_GE(row.recovery_ms, row.detection_ms);
    const ChaosScenario* scenario = nullptr;
    for (const auto& sc : cfg.scenarios) {
      if (sc.name == row.scenario) scenario = &sc;
    }
    ASSERT_NE(scenario, nullptr);
    const obs::FaultWindowSpec spec = scripted_fault_window(*scenario);
    const double fault_start = spec.faulted ? spec.start_ms : 0.0;
    EXPECT_DOUBLE_EQ(row.mttr_ms, std::max(0.0, row.recovery_ms - fault_start));
    if (scenario->expect_faults) {
      EXPECT_GT(row.degraded_windows, 0u) << "scripted fault left no timeline trace";
    }
  }

  // The scripted windows themselves: a scenario with an explicit schedule —
  // outages, a kill offset, a capacity storm — carries a positive interval;
  // cells whose only stressor is a link profile (cellular-burst) or nothing
  // at all (baseline) are unfaulted specs measured from t=0.
  for (const auto& sc : cfg.scenarios) {
    const obs::FaultWindowSpec spec = scripted_fault_window(sc);
    SCOPED_TRACE(sc.name);
    const bool scripted = !sc.access_fault.outages.empty() ||
                          !sc.primary_path_fault.outages.empty() ||
                          sc.kill_response_at_bytes > 0 || sc.capacity_storm ||
                          sc.kill_midtier_at.count() > 0;
    EXPECT_EQ(spec.faulted, scripted);
    if (scripted) {
      EXPECT_GE(spec.start_ms, 0.0);
      EXPECT_GT(spec.end_ms, spec.start_ms);
    }
  }
}

TEST(Chaos, CsvCarriesOneRowPerScenarioWithStableHeader) {
  ChaosConfig cfg = small_config();
  cfg.scenarios = {cfg.scenarios.front()};  // baseline only
  const ChaosResult result = run_chaos(cfg);
  const std::string csv = chaos_result_to_csv(result);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 2) << csv;  // header + one scenario row
  EXPECT_EQ(csv.rfind("scenario,proto,arrivals,visits,failed_visits,", 0), 0u) << csv;
}

}  // namespace
}  // namespace h3cdn::core
