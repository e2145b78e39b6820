// Pinned headline values of five deterministic sweeps: Fig. 6 and Fig. 9 at
// 12 sites x 1 probe, and the fault-recovery, load and topology sweeps at 4
// sites. Each case recomputes its sweep at that fixed config and compares
// every pinned metric with the value recorded when the output last changed
// on purpose.
//
// The simulation is seed-deterministic, so a value that leaves its band means
// the output changed. The band only absorbs last-digit floating-point
// differences between toolchains: a value passes iff |delta| <= 1e-9, or the
// pinned value is nonzero and |delta| / |pinned| <= 5%. A pinned metric the
// code no longer produces fails. Unlike the golden digests
// (tests/golden/README), these cases run on every toolchain.
//
// A change meant to move these numbers updates the tables below in the same
// commit and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/resilience.h"
#include "core/study.h"
#include "core/topology_study.h"
#include "load/chaos.h"
#include "load/study.h"
#include "topology/path_plan.h"

namespace h3cdn {
namespace {

using Metrics = std::map<std::string, double>;

struct Pinned {
  const char* metric;
  double value;
};

constexpr double kAbsFloor = 1e-9;
constexpr double kRelBand = 0.05;

bool within_band(double pinned, double current) {
  const double delta = std::abs(current - pinned);
  if (delta <= kAbsFloor) return true;
  return pinned != 0.0 && delta / std::abs(pinned) <= kRelBand;
}

/// One message per pinned metric that `produced` lacks or holds outside
/// the band; empty when every pinned value holds.
std::vector<std::string> band_failures(const Metrics& produced,
                                       std::span<const Pinned> pinned) {
  std::vector<std::string> failures;
  for (const Pinned& p : pinned) {
    const auto it = produced.find(p.metric);
    std::ostringstream msg;
    msg.precision(15);
    if (it == produced.end()) {
      msg << p.metric << ": pinned " << p.value << ", no longer produced";
    } else if (!within_band(p.value, it->second)) {
      msg << p.metric << ": pinned " << p.value << ", now " << it->second;
    } else {
      continue;
    }
    failures.push_back(msg.str());
  }
  return failures;
}

std::string permille_tag(double rate) {
  return "loss" + std::to_string(static_cast<int>(rate * 1000.0 + 0.5)) + "permille";
}

std::string underscored(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// ---------------------------------------------------------------------------
// The sweeps
// ---------------------------------------------------------------------------

/// The paper's setup (325-site universe, 3 vantages) cut to 12 sites x 1 probe.
core::StudyConfig paper_config_12_sites() {
  core::StudyConfig cfg;
  cfg.workload.site_count = 325;
  cfg.max_sites = 12;
  cfg.probes_per_vantage = 1;
  return cfg;
}

Metrics fig6_metrics() {
  const auto fig6 = core::compute_fig6(core::MeasurementStudy(paper_config_12_sites()).run());
  Metrics m;
  for (const auto& g : fig6.groups) {
    const std::string group = analysis::to_string(g.group);
    m["mean_plt_reduction_" + group] = g.mean_plt_reduction_ms;
    m["pages_" + group] = static_cast<double>(g.pages);
  }
  m["median_connect_reduction"] = fig6.median_connect_reduction_ms;
  m["median_wait_reduction"] = fig6.median_wait_reduction_ms;
  m["median_receive_reduction"] = fig6.median_receive_reduction_ms;
  return m;
}

Metrics fig9_metrics() {
  const auto fig9 = core::compute_fig9(paper_config_12_sites(), {0.0, 0.005, 0.01});
  Metrics m;
  for (const auto& s : fig9.series) {
    m["fit_slope_" + permille_tag(s.loss_rate)] = s.fit.slope;
    m["fit_r2_" + permille_tag(s.loss_rate)] = s.fit.r2;
  }
  if (fig9.series.size() >= 2 && fig9.series.front().fit.slope != 0.0) {
    m["slope_ratio_maxloss_vs_lossless"] =
        fig9.series.back().fit.slope / fig9.series.front().fit.slope;
  }
  return m;
}

/// The chaos suite's recovery subset: the fault-free baseline cell plus the
/// two scenarios whose recovery path the resilience engine owns end to end.
core::ChaosConfig chaos_recovery_config(bool resilience_on) {
  core::ChaosConfig cfg;
  cfg.sites = 2;
  cfg.resilience.enabled = resilience_on;
  std::vector<core::ChaosScenario> keep;
  for (const auto& sc : cfg.scenarios) {
    if (sc.name == "baseline" || sc.name == "edge-outage-midpage" ||
        sc.name == "midtransfer-kill") {
      keep.push_back(sc);
    }
  }
  cfg.scenarios = std::move(keep);
  return cfg;
}

const core::ChaosCellRow* chaos_row(const core::ChaosResult& result, const char* name) {
  for (const auto& row : result.rows) {
    if (row.scenario == name) return &row;
  }
  return nullptr;
}

Metrics fault_recovery_metrics() {
  core::ResilienceConfig cfg;
  cfg.sites = 4;
  cfg.workload.site_count = 4;
  const auto result = core::run_resilience(cfg);
  Metrics m;
  for (const auto& row : result.loss_rows) {
    const std::string tag =
        std::string(row.bursty ? "burst" : "iid") + "_" + permille_tag(row.loss_rate);
    m["h2_p95_plt_" + tag] = row.h2_p95_plt_ms;
    m["h3_p95_plt_" + tag] = row.h3_p95_plt_ms;
  }
  for (const auto& row : result.outage_rows) {
    const std::string tag = "outage" + std::to_string(row.outage.count() / 1000) + "ms";
    m["fallback_page_rate_" + tag] = row.fallback_page_rate;
    m["mean_recovery_penalty_" + tag] = row.mean_recovery_ms;
    m["requests_failed_" + tag] = static_cast<double>(row.requests_failed);
  }

  const auto chaos_on = core::run_chaos(chaos_recovery_config(true));
  const auto chaos_off = core::run_chaos(chaos_recovery_config(false));
  const auto* base_on = chaos_row(chaos_on, "baseline");
  const auto* kill_on = chaos_row(chaos_on, "midtransfer-kill");
  const auto* kill_off = chaos_row(chaos_off, "midtransfer-kill");
  if (base_on != nullptr && kill_on != nullptr && kill_off != nullptr) {
    m["chaos_midkill_recovery_p95"] = kill_on->plt_p95_ms - base_on->plt_p95_ms;
    m["chaos_midkill_resumed_bytes"] = static_cast<double>(kill_on->resumed_bytes);
    m["chaos_midkill_failed_visits"] = static_cast<double>(kill_on->failed_visits);
    m["chaos_midkill_failed_visits_noengine"] = static_cast<double>(kill_off->failed_visits);
  }
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  for (const auto& row : chaos_on.rows) {
    const std::string tag = underscored(row.scenario);
    m["chaos_mttr_" + tag] = row.mttr_ms;
    m["chaos_degraded_windows_" + tag] = static_cast<double>(row.degraded_windows);
    if (row.time_to_breaker_open_ms >= 0.0) {
      m["chaos_breaker_open_" + tag] = row.time_to_breaker_open_ms;
    }
    hedges_launched += row.hedges_launched;
    hedges_won += row.hedges_won;
  }
  m["chaos_hedge_win_rate"] = hedges_launched == 0 ? 0.0
                                                   : static_cast<double>(hedges_won) /
                                                         static_cast<double>(hedges_launched);
  return m;
}

Metrics load_metrics() {
  load::LoadStudyConfig cfg;
  cfg.sites = 4;
  cfg.offered_rates = {2.0, 8.0, 32.0};
  cfg.window = sec(8);
  cfg.jobs = 0;
  const load::LoadResult result = load::run_load_study(cfg);
  Metrics m;
  for (const load::LoadCellRow& row : result.rows) {
    const std::string prefix = "r" + std::to_string(static_cast<int>(row.offered_rate)) +
                               "." + (row.h3 ? "h3" : "h2") + ".";
    m[prefix + "plt_p50_ms"] = row.plt_p50_ms;
    m[prefix + "plt_p95_ms"] = row.plt_p95_ms;
    m[prefix + "ttfb_p95_ms"] = row.ttfb_p95_ms;
    m[prefix + "refusal_rate"] = row.refusal_rate;
    m[prefix + "mean_queue_depth"] = row.mean_queue_depth;
    m[prefix + "requests_failed"] = static_cast<double>(row.requests_failed);
    m[prefix + "qoe_fcp_p95_ms"] = row.qoe_fcp_p95_ms;
  }
  // How much the p95 degrades from the lowest to the highest offered load;
  // rows run rate-major, H2 before H3.
  const auto& rows = result.rows;
  if (rows.size() >= 2) {
    if (rows[1].plt_p95_ms > 0) {
      m["h3_p95_degradation"] = rows[rows.size() - 1].plt_p95_ms / rows[1].plt_p95_ms;
    }
    if (rows[0].plt_p95_ms > 0) {
      m["h2_p95_degradation"] = rows[rows.size() - 2].plt_p95_ms / rows[0].plt_p95_ms;
    }
  }
  return m;
}

const core::TopologyHopRow* e2e_row(const core::TopologyResult& result,
                                    const std::string& plan, double loss) {
  for (const auto& row : result.rows) {
    if (row.plan == plan && row.loss_rate == loss && row.hop == "e2e") return &row;
  }
  return nullptr;
}

Metrics topology_metrics() {
  core::TopologyConfig cfg;
  cfg.sites = 4;
  cfg.workload.site_count = 4;
  const core::TopologyResult result = core::run_topology(cfg);
  Metrics m;
  double worst_residual_us = 0.0;
  for (const std::string& plan : cfg.plans) {
    // The direct baseline with the same client-facing protocol ("h3-h2" -> "h3").
    const auto parsed = topology::PathPlan::parse(plan);
    const std::string direct_plan = (parsed.has_value() && parsed->hop_h3(0)) ? "h3" : "h2";
    for (const double loss : cfg.loss_rates) {
      const auto* chained = e2e_row(result, plan, loss);
      const auto* direct = e2e_row(result, direct_plan, loss);
      if (chained == nullptr || direct == nullptr) continue;
      const std::string tag = underscored(plan) + "_" + permille_tag(loss);
      m["p95_plt_delta_" + tag] = chained->p95_plt_ms - direct->p95_plt_ms;
      m["p95_plt_" + tag] = chained->p95_plt_ms;
      worst_residual_us = std::max(worst_residual_us, chained->reagg_residual_us);
    }
  }
  m["worst_reagg_residual_us"] = worst_residual_us;
  m["all_invariants_passed"] = result.all_passed() ? 1.0 : 0.0;
  if (const auto* row = e2e_row(result, "h3-h3", 0.0); row != nullptr) {
    m["tier_hit_ratio_h3_h3_loss0"] = row->tier_hit_ratio;
    m["relayed_requests_h3_h3_loss0"] = static_cast<double>(row->relayed_requests);
  }
  return m;
}

// ---------------------------------------------------------------------------
// The pinned values
// ---------------------------------------------------------------------------

constexpr Pinned kFig6[] = {
    {"mean_plt_reduction_Low", 13.2586666666666},
    {"pages_Low", 3},
    {"mean_plt_reduction_Medium-Low", 41.1934444444444},
    {"pages_Medium-Low", 3},
    {"mean_plt_reduction_Medium-High", 19.4675555555556},
    {"pages_Medium-High", 3},
    {"mean_plt_reduction_High", 76.5145555555556},
    {"pages_High", 3},
    {"median_connect_reduction", 0.51700000000001},
    {"median_wait_reduction", -0.57},
    {"median_receive_reduction", 0},
};

constexpr Pinned kFig9[] = {
    {"fit_slope_loss0permille", -0.0110105618353894},
    {"fit_r2_loss0permille", 6.0272174784215e-05},
    {"fit_slope_loss5permille", 0.898098059947329},
    {"fit_r2_loss5permille", 0.0557211450988845},
    {"fit_slope_loss10permille", 2.20059713775186},
    {"fit_r2_loss10permille", 0.425628156509379},
    {"slope_ratio_maxloss_vs_lossless", -199.862384013761},
};

constexpr Pinned kFaultRecovery[] = {
    {"h2_p95_plt_iid_loss5permille", 1298.4418},
    {"h3_p95_plt_iid_loss5permille", 2691.6675},
    {"h2_p95_plt_burst_loss5permille", 1067.0983},
    {"h3_p95_plt_burst_loss5permille", 1047.1861},
    {"h2_p95_plt_iid_loss10permille", 2350.5718},
    {"h3_p95_plt_iid_loss10permille", 2867.61705},
    {"h2_p95_plt_burst_loss10permille", 1305.4162},
    {"h3_p95_plt_burst_loss10permille", 1277.46115},
    {"h2_p95_plt_iid_loss20permille", 3627.38015},
    {"h3_p95_plt_iid_loss20permille", 3140.45275},
    {"h2_p95_plt_burst_loss20permille", 1923.24895},
    {"h3_p95_plt_burst_loss20permille", 9759.69955},
    {"fallback_page_rate_outage200ms", 0.25},
    {"mean_recovery_penalty_outage200ms", 3510.64333333333},
    {"requests_failed_outage200ms", 0},
    {"fallback_page_rate_outage500ms", 0.25},
    {"mean_recovery_penalty_outage500ms", 3843.97666666667},
    {"requests_failed_outage500ms", 0},
    {"fallback_page_rate_outage1000ms", 0.25},
    {"mean_recovery_penalty_outage1000ms", 1743.55833333333},
    {"requests_failed_outage1000ms", 0},
    {"chaos_midkill_recovery_p95", 4112.54875},
    {"chaos_midkill_resumed_bytes", 28750140},
    {"chaos_midkill_failed_visits", 14},
    {"chaos_midkill_failed_visits_noengine", 28},
    {"chaos_mttr_baseline", 0},
    {"chaos_degraded_windows_baseline", 0},
    {"chaos_mttr_edge_outage_midpage", 8000},
    {"chaos_degraded_windows_edge_outage_midpage", 6},
    {"chaos_mttr_midtransfer_kill", 9500},
    {"chaos_degraded_windows_midtransfer_kill", 37},
    {"chaos_breaker_open_midtransfer_kill", 1500},
    {"chaos_hedge_win_rate", 0.308797127468582},
};

constexpr Pinned kLoad[] = {
    {"r2.h2.plt_p50_ms", 825.0145},
    {"r2.h2.plt_p95_ms", 1201.91835},
    {"r2.h2.ttfb_p95_ms", 235.0246},
    {"r2.h2.refusal_rate", 0},
    {"r2.h2.mean_queue_depth", 0},
    {"r2.h2.requests_failed", 0},
    {"r2.h2.qoe_fcp_p95_ms", 877.65785},
    {"r2.h3.plt_p50_ms", 842.9285},
    {"r2.h3.plt_p95_ms", 1384.1878},
    {"r2.h3.ttfb_p95_ms", 242.688},
    {"r2.h3.refusal_rate", 0},
    {"r2.h3.mean_queue_depth", 0},
    {"r2.h3.requests_failed", 0},
    {"r2.h3.qoe_fcp_p95_ms", 825.47665},
    {"r8.h2.plt_p50_ms", 731.534},
    {"r8.h2.plt_p95_ms", 1044.75075},
    {"r8.h2.ttfb_p95_ms", 245.07875},
    {"r8.h2.refusal_rate", 0},
    {"r8.h2.mean_queue_depth", 0},
    {"r8.h2.requests_failed", 0},
    {"r8.h2.qoe_fcp_p95_ms", 770.7945},
    {"r8.h3.plt_p50_ms", 698.6785},
    {"r8.h3.plt_p95_ms", 942.306},
    {"r8.h3.ttfb_p95_ms", 238.2385},
    {"r8.h3.refusal_rate", 0},
    {"r8.h3.mean_queue_depth", 0},
    {"r8.h3.requests_failed", 0},
    {"r8.h3.qoe_fcp_p95_ms", 782.99275},
    {"r32.h2.plt_p50_ms", 1814.42},
    {"r32.h2.plt_p95_ms", 22135.239},
    {"r32.h2.ttfb_p95_ms", 253.5808},
    {"r32.h2.refusal_rate", 0.204743320324227},
    {"r32.h2.mean_queue_depth", 0.00813008130081301},
    {"r32.h2.requests_failed", 1606},
    {"r32.h2.qoe_fcp_p95_ms", 8757.09499999999},
    {"r32.h3.plt_p50_ms", 1574.449},
    {"r32.h3.plt_p95_ms", 24668.3964},
    {"r32.h3.ttfb_p95_ms", 252.9666},
    {"r32.h3.refusal_rate", 0.36260053619303},
    {"r32.h3.mean_queue_depth", 0.0236220472440945},
    {"r32.h3.requests_failed", 3370},
    {"r32.h3.qoe_fcp_p95_ms", 8863.984},
    {"h3_p95_degradation", 17.8215675647481},
    {"h2_p95_degradation", 18.4165912767702},
};

constexpr Pinned kTopology[] = {
    {"p95_plt_delta_h3_h3_loss0permille", -12.1432499999999},
    {"p95_plt_h3_h3_loss0permille", 851.53045},
    {"p95_plt_delta_h3_h3_loss10permille", -23.3180499999999},
    {"p95_plt_h3_h3_loss10permille", 1473.0073},
    {"p95_plt_delta_h3_h2_loss0permille", -16.9448999999998},
    {"p95_plt_h3_h2_loss0permille", 846.7288},
    {"p95_plt_delta_h3_h2_loss10permille", -24.8820500000002},
    {"p95_plt_h3_h2_loss10permille", 1471.4433},
    {"p95_plt_delta_h2_h3_loss0permille", 120.8157},
    {"p95_plt_h2_h3_loss0permille", 1032.3768},
    {"p95_plt_delta_h2_h3_loss10permille", 65.54945},
    {"p95_plt_h2_h3_loss10permille", 1616.2906},
    {"worst_reagg_residual_us", 1.13686837721616e-10},
    {"all_invariants_passed", 1},
    {"tier_hit_ratio_h3_h3_loss0", 0},
    {"relayed_requests_h3_h3_loss0", 263},
};

struct Table {
  const char* name;
  std::span<const Pinned> pinned;
};

const Table kTables[] = {
    {"fig6_plt_reduction", kFig6},
    {"fig9_loss_multiplexing", kFig9},
    {"fault_recovery", kFaultRecovery},
    {"load", kLoad},
    {"topology", kTopology},
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

void expect_within_band(const Metrics& produced, std::span<const Pinned> pinned) {
  for (const std::string& failure : band_failures(produced, pinned)) ADD_FAILURE() << failure;
}

TEST(PinnedHeadlines, Fig6PltReduction) { expect_within_band(fig6_metrics(), kFig6); }

TEST(PinnedHeadlines, Fig9LossMultiplexing) { expect_within_band(fig9_metrics(), kFig9); }

TEST(PinnedHeadlines, FaultRecovery) {
  expect_within_band(fault_recovery_metrics(), kFaultRecovery);
}

TEST(PinnedHeadlines, Load) { expect_within_band(load_metrics(), kLoad); }

TEST(PinnedHeadlines, Topology) { expect_within_band(topology_metrics(), kTopology); }

Metrics as_produced(std::span<const Pinned> pinned, double scale, double offset) {
  Metrics m;
  for (const Pinned& p : pinned) m[p.metric] = p.value * scale + offset;
  return m;
}

TEST(PinnedBand, ValueInsideTheBandPasses) {
  EXPECT_TRUE(within_band(100.0, 100.0));
  EXPECT_TRUE(within_band(100.0, 104.9));
  EXPECT_TRUE(within_band(100.0, 95.1));
  EXPECT_TRUE(within_band(-0.57, -0.59));
  EXPECT_FALSE(within_band(100.0, 105.1));
  EXPECT_FALSE(within_band(-0.57, -0.5));
  // Every table holds against itself.
  for (const Table& table : kTables) {
    EXPECT_TRUE(band_failures(as_produced(table.pinned, 1.0, 0.0), table.pinned).empty())
        << table.name;
  }
}

TEST(PinnedBand, FiftyPercentPerturbationFailsEveryValue) {
  // +50%, and +1 so that a pinned zero moves too.
  for (const Table& table : kTables) {
    EXPECT_EQ(band_failures(as_produced(table.pinned, 1.5, 1.0), table.pinned).size(),
              table.pinned.size())
        << table.name;
  }
}

TEST(PinnedBand, ZeroPinPassesOnlyAMatchWithinTheAbsoluteFloor) {
  EXPECT_TRUE(within_band(0.0, 0.0));
  EXPECT_TRUE(within_band(0.0, 1e-10));
  EXPECT_FALSE(within_band(0.0, 1e-6));
  EXPECT_FALSE(within_band(0.0, -0.01));
  EXPECT_FALSE(within_band(0.0, 1.0));
}

TEST(PinnedBand, MetricNoLongerProducedFails) {
  Metrics produced = as_produced(kFig6, 1.0, 0.0);
  produced.erase("median_wait_reduction");
  const auto failures = band_failures(produced, kFig6);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("median_wait_reduction"), std::string::npos);
  EXPECT_NE(failures[0].find("no longer produced"), std::string::npos);
}

}  // namespace
}  // namespace h3cdn
