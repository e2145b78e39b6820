// Deterministic chaos-scenario harness (h3cdn_study --experiment chaos,
// docs/RESILIENCE.md).
//
// Each scenario is a scripted fault schedule — edge outage mid-page, UDP
// blackhole during the handshake window, capacity refusal storm, mid-transfer
// connection kill at byte offset N, mid-tier relay outage with direct-path
// fallback, bursty cellular last mile, DNS-record failover — executed against
// a load::Fleet on a private Simulator, with the
// request-lifecycle resilience engine (src/resilience/) enabled. After every
// cell the harness checks the run's invariants: every page terminated in a
// typed success/failure, the pool's entry accounting conserves (submitted <=
// completed + failed <= submitted + hedges launched, and every hedge settled
// exactly once), the critical-path PhaseVector still sums to PLT, and each
// scenario's expected fault signature actually fired. Cells run through
// core::run_sweep and merge in canonical order, so every artifact is
// byte-identical at any --jobs.
//
// The entry point lives in namespace core (it is a study-level driver like
// the measurement study) but is compiled into the load library: the harness
// drives load::Fleet, and core cannot link load without a dependency cycle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "browser/environment.h"
#include "core/observability.h"
#include "net/fault.h"
#include "resilience/engine.h"
#include "web/workload.h"

namespace h3cdn::core {

/// One scripted fault schedule. Every scenario runs as its own fleet cell;
/// the fields below are deltas applied on top of the harness-wide vantage
/// and browser configuration.
struct ChaosScenario {
  std::string name;         // stable kebab-case id (CSV key)
  std::string description;  // one line for the text report
  bool h3 = true;           // protocol mode of the cell's browsers
  double rate_per_sec = 6.0;
  Duration window = sec(4);

  std::string link_profile;        // last-mile preset name ("" = keep vantage)
  net::FaultProfile access_fault;  // merged into the probe-NIC fault profile
  // DNS failover: >1 resolves every domain to that many records, with
  // `primary_path_fault` afflicting only each domain's record-0 path.
  std::size_t addresses_per_record = 1;
  net::FaultProfile primary_path_fault;
  // Mid-transfer kill: every connection dies once its cumulative in-order
  // response delivery crosses this byte offset (0 = disabled).
  std::size_t kill_response_at_bytes = 0;
  // Handshake retransmissions before a dial dies (0 = keep the transport
  // default of 5, which gives up at ~15.75 s). Outage scenarios lower this so
  // typed deaths — and the recovery they trigger — land inside the request
  // deadline instead of racing it.
  int handshake_retry_cap = 0;
  // Refusal storm: undersized shared farm (tiny accept queue + connection
  // cap) so most dials are refused at admission.
  bool capacity_storm = false;
  // Multi-hop relay path for the cell's CDN traffic (docs/TOPOLOGY.md
  // PathPlan grammar, e.g. "h3-h3"); "" = direct, no chain.
  std::string path_plan;
  // Mid-tier outage: kill the chain at this sim instant — every response
  // held at the mid-tier dies with a typed ConnectionError::Killed and all
  // later chain traffic is refused until clients fall back to the direct
  // path. Duration{0} = never. Requires a non-empty path_plan.
  Duration kill_midtier_at{0};

  // Scenario-specific expectations, checked on top of the universal
  // invariants. Each one pins that the scripted fault actually produced its
  // signature — an inert schedule is a harness bug, not a pass.
  bool expect_resumption = false;   // resilience.resumed_bytes > 0
  bool expect_failover = false;     // dns.failover.switches > 0
  bool expect_no_h3_broken = false; // refusals never mark the pool H3-broken
  bool expect_faults = false;       // >= 1 connection death or refusal seen
  // Mid-tier outage signature: the kill actually severed held responses
  // (chain holds_killed > 0) AND at least one later resolve fell back to
  // the direct path (chain direct_resolutions > 0).
  bool expect_midtier_fallback = false;
};

/// The scripted fault interval of a scenario, derived from its schedule:
/// outage scenarios span [earliest outage start, latest outage end];
/// whole-run conditions (mid-transfer kills, capacity storms) span the
/// arrival window; fault-free cells report faulted = false. This is the
/// reference window MTTR is measured against.
obs::FaultWindowSpec scripted_fault_window(const ChaosScenario& scenario);

/// The shipped suite: a fault-free baseline plus seven fault scenarios.
std::vector<ChaosScenario> default_chaos_scenarios();

struct ChaosConfig {
  ChaosConfig() { resilience.enabled = true; }

  web::WorkloadConfig workload;
  std::size_t sites = 4;  // pages the cell's visits rotate over
  std::vector<ChaosScenario> scenarios = default_chaos_scenarios();
  // Engine under test; enabled by default (the whole point of the harness).
  // examples/fault_recovery flips it off for the recovery-time comparison.
  resilience::Options resilience;
  browser::VantageConfig vantage;
  browser::BrowserConfig browser;
  std::uint64_t seed = 20240131;
  int jobs = 1;  // 0 = hardware concurrency
};

/// One scenario cell's outcome: fleet-level results, the resilience counters
/// recorded by the cell's private registry, and any invariant violations.
struct ChaosCellRow {
  std::string scenario;
  bool h3 = true;
  std::size_t arrivals = 0;
  std::size_t visits = 0;
  std::size_t failed_visits = 0;  // root document never loaded
  double plt_p50_ms = 0.0;
  double plt_p95_ms = 0.0;
  // QoE beyond PLT (count:0-only convention: p95 prints 0 when no samples).
  std::size_t qoe_samples = 0;
  double qoe_fcp_p95_ms = 0.0;
  std::uint64_t entries_submitted = 0;
  std::uint64_t entries_completed = 0;
  std::uint64_t entries_failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t hedges_lost = 0;
  std::uint64_t hedges_cancelled = 0;
  std::uint64_t resumed_requests = 0;
  std::uint64_t resumed_bytes = 0;
  std::uint64_t breaker_opened = 0;
  std::uint64_t breaker_demotions = 0;
  std::uint64_t failover_switches = 0;
  std::uint64_t connection_deaths = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t h3_broken_marks = 0;
  // Multi-hop chain accounting (zero for direct cells).
  std::uint64_t relayed_requests = 0;
  std::uint64_t midtier_holds_killed = 0;
  std::uint64_t direct_fallbacks = 0;  // resolves after the chain fell back
  double phase_residual_ms = 0.0;  // |sum over visits of (phase sum - PLT)|
  // Fault->recovery annotation from the cell's timeline (obs/fault_window.h).
  // MTTR is finite for every scenario: a cell whose fault never degraded a
  // window (and the fault-free baseline) reports mttr_ms == 0.
  std::size_t degraded_windows = 0;
  double detection_ms = -1.0;  // -1: never degraded
  double recovery_ms = -1.0;
  double mttr_ms = 0.0;
  double time_to_breaker_open_ms = -1.0;   // -1: breaker never opened
  double time_to_breaker_close_ms = -1.0;  // -1: never closed after opening
  std::vector<std::string> violations;  // empty = every invariant held
};

struct ChaosResult {
  std::size_t sites = 0;
  bool resilience_enabled = true;
  std::vector<ChaosCellRow> rows;  // canonical scenario order

  [[nodiscard]] bool all_passed() const;
};

/// Runs every scenario cell (parallel across cells, deterministic merge).
/// When `observability` is non-null each cell's shard (metrics, timeline,
/// profile and its fault->recovery annotation for fault_recovery.json)
/// merges into it in canonical scenario order — byte-identical output at
/// any --jobs.
ChaosResult run_chaos(const ChaosConfig& config,
                      core::RunObservability* observability = nullptr);

void print_chaos_result(std::ostream& os, const ChaosResult& result);

/// Machine-readable form, one row per scenario; the byte-identity surface
/// for the --jobs determinism checks. Violations are '|'-joined in the last
/// column (empty = pass).
std::string chaos_result_to_csv(const ChaosResult& result);

}  // namespace h3cdn::core
