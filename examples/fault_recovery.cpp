// Fault recovery — the resilience extension beyond the paper's Fig. 9 sweep
// (docs/FAULTS.md §5):
//   (a) equal-average-rate loss, i.i.d. Bernoulli vs Gilbert-Elliott bursts.
//     Bursty loss wipes out whole congestion windows, so H2's in-order wall
//     turns each burst into a connection-wide stall; expect the H2 PLT tail
//     (p95) to separate far more than the mean, and more than H3's.
//   (b) a mid-transfer UDP blackhole of varying duration: how often pages
//     needed the H3->H2 fallback, how many requests were transparently
//     rescued, and the PLT penalty versus the same-seed fault-free run.
//   (c) the chaos harness's recovery cells (docs/RESILIENCE.md): the
//     baseline / edge-outage / midtransfer-kill scenarios with the
//     resilience engine on vs off — Range-resumed bytes, failed visits,
//     hedges and MTTR.
//
// 32 sites per sweep cell (about 4 s on a 4-vCPU host).
//
//   ./build/examples/fault_recovery
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/resilience.h"
#include "load/chaos.h"

using namespace h3cdn;

namespace {

// The recovery subset of the chaos suite: a fault-free baseline cell (the
// reference PLT tail) plus the two scenarios whose recovery path the engine
// owns end to end.
core::ChaosConfig chaos_config(bool resilience_on) {
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

const core::ChaosCellRow* chaos_row(const core::ChaosResult& result, const std::string& name) {
  for (const auto& row : result.rows) {
    if (row.scenario == name) return &row;
  }
  return nullptr;
}

void print_chaos_recovery(std::ostream& os, const core::ChaosResult& on,
                          const core::ChaosResult& off) {
  os << "\n--- Chaos recovery cells: resilience engine on vs off ---\n";
  os << std::left << std::setw(22) << "scenario" << std::right << std::setw(12) << "p95 on"
     << std::setw(12) << "p95 off" << std::setw(10) << "fail on" << std::setw(10) << "fail off"
     << std::setw(14) << "resumed KB" << std::setw(10) << "hedges" << std::setw(10)
     << "mttr ms" << "\n";
  for (const auto& row : on.rows) {
    const core::ChaosCellRow* other = chaos_row(off, row.scenario);
    os << std::left << std::setw(22) << row.scenario << std::right << std::setw(12)
       << row.plt_p95_ms << std::setw(12) << (other ? other->plt_p95_ms : 0.0) << std::setw(10)
       << row.failed_visits << std::setw(10) << (other ? other->failed_visits : 0)
       << std::setw(14) << static_cast<double>(row.resumed_bytes) / 1024.0 << std::setw(10)
       << row.hedges_launched << std::setw(10) << row.mttr_ms << "\n";
  }
}

void print_resilience(std::ostream& os, const core::ResilienceResult& result) {
  os << "--- Burst vs. Bernoulli at equal average loss (PLT ms) ---\n";
  os << std::left << std::setw(8) << "loss" << std::setw(10) << "model" << std::right
     << std::setw(10) << "h2 mean" << std::setw(10) << "h2 p95" << std::setw(10) << "h3 mean"
     << std::setw(10) << "h3 p95" << std::setw(12) << "offered" << std::setw(10) << "dropped"
     << std::setw(10) << "iid-drop" << std::setw(12) << "burst-drop" << "\n";
  os << std::fixed << std::setprecision(1);
  for (const auto& row : result.loss_rows) {
    os << std::left << std::setw(8) << std::setprecision(3) << row.loss_rate
       << std::setprecision(1) << std::setw(10) << (row.bursty ? "burst" : "iid") << std::right
       << std::setw(10) << row.h2_mean_plt_ms
       << std::setw(10) << row.h2_p95_plt_ms << std::setw(10) << row.h3_mean_plt_ms
       << std::setw(10) << row.h3_p95_plt_ms << std::setw(12) << row.packets_offered
       << std::setw(10) << row.packets_dropped << std::setw(10) << row.dropped_bernoulli
       << std::setw(12) << row.dropped_burst << "\n";
  }

  os << "\n--- Mid-transfer UDP blackhole: H3->H2 degradation ---\n";
  os << std::left << std::setw(10) << "outage" << std::right << std::setw(8) << "deaths"
     << std::setw(10) << "fallbk" << std::setw(10) << "rescued" << std::setw(8) << "failed"
     << std::setw(10) << "pages%" << std::setw(12) << "mean-pen" << std::setw(12) << "p95-pen"
     << std::setw(12) << "offered" << std::setw(12) << "outage-drop" << "\n";
  for (const auto& row : result.outage_rows) {
    os << std::left << std::setw(10) << (std::to_string(row.outage.count() / 1000) + "ms")
       << std::right
       << std::setw(8) << row.connection_deaths << std::setw(10) << row.h3_fallbacks
       << std::setw(10) << row.requests_rescued << std::setw(8) << row.requests_failed
       << std::setw(10) << row.fallback_page_rate * 100.0 << std::setw(12)
       << row.mean_recovery_ms << std::setw(12) << row.p95_recovery_ms
       << std::setw(12) << row.packets_offered << std::setw(12) << row.dropped_outage << "\n";
  }
}

}  // namespace

int main() {
  core::ResilienceConfig cfg;
  cfg.sites = 32;
  cfg.workload.site_count = 32;
  print_resilience(std::cout, core::run_resilience(cfg));
  const core::ChaosResult on = core::run_chaos(chaos_config(true));
  const core::ChaosResult off = core::run_chaos(chaos_config(false));
  print_chaos_recovery(std::cout, on, off);
  return 0;
}
