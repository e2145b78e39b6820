// The benchmark's five workloads. Each runs as one repetition inside a child
// process: set-up (workload generation and config) up to ctx.ready(), then
// the timed run step, then correctness checks and, when traced, the
// per-layer metrics. Every input derives from ctx.seed.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "core/experiments.h"
#include "core/export.h"
#include "core/observability.h"
#include "core/study.h"
#include "core/topology_study.h"
#include "harness.h"
#include "layers.h"
#include "load/study.h"
#include "util/rng.h"
#include "web/workload.h"

extern char** environ;

namespace perfbench {

using namespace h3cdn;

namespace {

// Every workload visits pages of one dataset: the default 325-site
// web::WorkloadConfig, calibrated to the paper's numbers. The seed drives the
// simulation's draws (paths, loss, jitter, server noise, arrivals), not the
// page mix: a different mix per seed moved the per-run metrics by 14-34%,
// beyond any bound a regression check could use.
core::StudyConfig study_config(const RepContext& ctx, std::size_t sites, int probes) {
  core::StudyConfig cfg;
  cfg.max_sites = sites;
  cfg.probes_per_vantage = probes;
  cfg.seed = ctx.seed;
  cfg.jobs = 1;
  return cfg;
}

// Visits of a study, and those whose root document failed.
void count_visits(const core::StudyResult& study, RepResult& out) {
  for (const auto& rec : study.visits) {
    ++out.visits;
    const auto root = std::find_if(rec.har.entries.begin(), rec.har.entries.end(),
                                   [](const auto& e) { return e.initiator_id == -1; });
    if (root == rec.har.entries.end() || root->timings.failed) ++out.failed_visits;
  }
}

// The paper's Fig. 6 shape where it holds at every seed: H3 lowers the mean
// PLT and shrinks the connect phase. Per-group means (one fell to 2 ms) and
// the median wait reduction (+0.01 ms at seed 10) are too close to zero to
// check per seed.
void check_fig6(const core::StudyResult& study, RepResult& out) {
  const core::Fig6Result f6 = core::compute_fig6(study);
  double reduction_ms = 0.0;
  for (const auto& g : f6.groups) reduction_ms += g.mean_plt_reduction_ms * static_cast<double>(g.pages);
  out.checks.emplace_back("fig6_mean_plt_reduction_positive", reduction_ms > 0);
  out.checks.emplace_back("fig6_connect_reduction_positive", f6.median_connect_reduction_ms > 0);
}

// Runs a study as the rep's run step (workload generated during set-up) and
// fills the totals every study workload reports.
core::StudyResult run_study(const RepContext& ctx, core::StudyConfig cfg, RepResult& out,
                            core::RunObservability* obs) {
  std::shared_ptr<const web::Workload> workload;
  out.layers["web.generate_ms"] = 1e3 * time_s([&] {
    workload = std::make_shared<web::Workload>(web::generate_workload(cfg.workload));
  });
  cfg.observability = obs;
  ctx.ready();
  const double wall0 = wall_s();
  const double cpu0 = cpu_s();
  core::StudyResult result = core::MeasurementStudy(cfg).run(workload);
  std::string summary;
  out.layers["core.summary_ms"] = 1e3 * time_s([&] { summary = core::summary_to_json(result); });
  out.run_wall_s = wall_s() - wall0;
  out.run_cpu_s = cpu_s() - cpu0;
  out.digest = fnv1a_hex(summary);
  count_visits(result, out);
  const std::size_t planned = cfg.max_sites * cfg.vantages.size() *
                              static_cast<std::size_t>(cfg.probes_per_vantage) * 2;
  out.checks.emplace_back("visit_count", out.visits == planned);
  return result;
}

// Layer metrics of a traced rep; untraced reps report only what the harness
// times from outside.
void finish_layers(const RepContext& ctx, const core::RunObservability& obs, RepResult& out,
                   int jobs = 1) {
  if (!ctx.traced) return;
  add_registry_layers(obs, static_cast<double>(out.visits), out.run_wall_s, jobs, out.layers);
  add_layer_probes(ctx.seed, out.layers);
}

// The paper's 325 sites, where the sim-net-transport-http-browser event loop
// does nearly all the work. One vantage does the same per-visit work as the
// paper's three in a repetition short enough that a 20 s run holds several;
// sweeps_parallel runs all three.
RepResult study_paper(const RepContext& ctx) {
  RepResult out;
  core::StudyConfig cfg = study_config(ctx, 325, 1);
  cfg.vantages.resize(1);
  core::RunObservability obs;
  const core::StudyResult result = run_study(ctx, cfg, out, ctx.traced ? &obs : nullptr);
  check_fig6(result, out);
  finish_layers(ctx, obs, out);
  return out;
}

// The layers of study_paper used differently: retransmission, stall spans and
// TLS resumption do the work, so a lossless fast path that taxes loss shows.
RepResult study_lossy_resumed(const RepContext& ctx) {
  RepResult out;
  core::StudyConfig cfg = study_config(ctx, 96, 2);
  cfg.loss_rate = 0.02;
  cfg.consecutive = true;
  core::RunObservability obs;
  const core::StudyResult result = run_study(ctx, cfg, out, ctx.traced ? &obs : nullptr);
  std::uint64_t resumed = 0;
  for (const auto& rec : result.visits) resumed += rec.har.resumed_connections;
  out.checks.emplace_back("resumed_handshakes", resumed > 0);
  finish_layers(ctx, obs, out);
  return out;
}

std::uintmax_t directory_bytes(const std::filesystem::path& dir, const std::string& only = "") {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    // profile.json holds host timings, so its size is the one that varies.
    if (name == "profile.json" || (!only.empty() && name != only)) continue;
    total += entry.file_size();
  }
  return total;
}

int run_obs_check(const std::string& tool, const std::string& dir) {
  std::string arg_check = "--check";
  std::string arg_dir = dir;
  std::string arg_tool = tool;
  char* argv[] = {arg_tool.data(), arg_dir.data(), arg_check.data(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, tool.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Observability is part of this workload, not tracing: the run step includes
// the obs hooks and write_artifacts, the cost the ROADMAP's obs budget aims at.
RepResult study_obs(const RepContext& ctx) {
  RepResult out;
  core::RunObservability obs;
  const std::filesystem::path dir = std::filesystem::path(ctx.work_dir) / "obs";
  std::filesystem::remove_all(dir);
  (void)run_study(ctx, study_config(ctx, 48, 1), out, &obs);
  const double cpu0 = cpu_s();
  bool written = false;
  const double export_s = time_s([&] { written = obs.write_artifacts(dir.string()); });
  out.run_wall_s += export_s;
  out.run_cpu_s += cpu_s() - cpu0;
  out.layers["obs.export_ms"] = export_s * 1e3;
  out.checks.emplace_back("artifacts_written", written);
  if (written) {
    const double visits = static_cast<double>(std::max<std::uint64_t>(out.visits, 1));
    out.layers["obs_bytes_per_visit"] = static_cast<double>(directory_bytes(dir)) / visits;
    out.layers["obs.bytes_per_visit.qlog"] =
        static_cast<double>(directory_bytes(dir, "qlog.json")) / visits;
    out.layers["obs.bytes_per_visit.perfetto"] =
        static_cast<double>(directory_bytes(dir, "trace.perfetto.json")) / visits;
    out.layers["obs.bytes_per_visit.waterfalls"] =
        static_cast<double>(directory_bytes(dir, "waterfalls.json")) / visits;
    out.checks.emplace_back("obs_report_check", run_obs_check(ctx.obs_report, dir.string()) == 0);
  }
  std::filesystem::remove_all(dir);
  finish_layers(ctx, obs, out);
  return out;
}

// A sweep past the knee is one chaotic queueing trajectory. The cost per
// visit of one 10 s sweep on the default edge spread 26% across seeds, so a
// repetition runs one 2.5 s sweep, and a run spreads its repetitions over
// three sweeps (parts), each on its own seed drawn from ctx.seed. A smaller
// edge (one think core, an accept queue of 8, 24 connections) keeps rate 32
// past the knee in so short a window: it refused 30-560 dials per sweep.
load::LoadStudyConfig load_config(const RepContext& ctx) {
  load::LoadStudyConfig cfg;  // 8 sites, Poisson {2, 8, 32}/s
  cfg.window = msec(2500);
  cfg.capacity.think_cores = 1;
  cfg.capacity.accept_queue_depth = 8;
  cfg.capacity.max_concurrent_connections = 24;
  cfg.seed = util::derive_seed({ctx.seed, static_cast<std::uint64_t>(ctx.part)});
  cfg.jobs = 1;
  return cfg;
}

void count_load(const load::LoadResult& result, RepResult& out) {
  bool visits_match = !result.rows.empty();
  double clients = 0.0;
  for (const auto& row : result.rows) {
    out.visits += row.visits;
    out.failed_visits += row.failed_visits;
    clients += static_cast<double>(row.clients);
    visits_match = visits_match && row.visits == row.arrivals;
  }
  out.checks.emplace_back("visits_equal_arrivals", visits_match);
  out.layers["load.clients_per_visit"] =
      clients / static_cast<double>(std::max<std::uint64_t>(out.visits, 1));
}

// Arrivals form an open loop in simulated time; the harness itself waits for
// the whole sweep, so the host-side loop is closed.
RepResult load_fleet(const RepContext& ctx) {
  RepResult out;
  const load::LoadStudyConfig cfg = load_config(ctx);
  ctx.ready();
  if (!ctx.traced) {
    const double cpu0 = cpu_s();
    load::LoadResult result;
    out.run_wall_s = time_s([&] { result = load::run_load_study(cfg, nullptr); });
    out.run_cpu_s = cpu_s() - cpu0;
    out.digest = fnv1a_hex(load::load_result_to_csv(result));
    count_load(result, out);
    return out;
  }
  // Traced: one call per rate, so each cell's cost shows on its own.
  core::RunObservability obs;
  load::LoadResult all;
  const double cpu0 = cpu_s();
  for (const double rate : cfg.offered_rates) {
    load::LoadStudyConfig one = cfg;
    one.offered_rates = {rate};
    load::LoadResult result;
    const double cell_s = time_s([&] { result = load::run_load_study(one, &obs); });
    out.layers["load.cell_s.r" + std::to_string(static_cast<int>(rate))] = cell_s;
    out.run_wall_s += cell_s;
    all.rows.insert(all.rows.end(), result.rows.begin(), result.rows.end());
  }
  out.run_cpu_s = cpu_s() - cpu0;
  count_load(all, out);
  out.layers["web.generate_ms"] =
      1e3 * time_s([&] { (void)web::generate_workload(cfg.workload); });
  finish_layers(ctx, obs, out);
  return out;
}

void count_topology(const core::TopologyResult& result, RepResult& out) {
  double relayed = 0.0;
  double hit_ratio = 0.0;
  std::size_t chained = 0;
  for (const auto& row : result.rows) {
    if (row.hop != "e2e") continue;
    out.visits += row.pages;
    relayed += static_cast<double>(row.relayed_requests);
    if (row.plan.find('-') != std::string::npos) {
      hit_ratio += row.tier_hit_ratio;
      ++chained;
    }
  }
  out.layers["topology.relayed_requests"] = relayed;
  out.layers["topology.tier_hit_ratio"] = chained > 0 ? hit_ratio / static_cast<double>(chained) : 0.0;
  out.checks.emplace_back("topology_invariants", result.all_passed());
}

// The paper-scale study (all three vantages), then the topology sweep, both
// at jobs min(4, nproc): the thread pool, per-shard sinks, canonical merge and
// relay chains.
RepResult sweeps_parallel(const RepContext& ctx) {
  RepResult out;
  core::StudyConfig cfg = study_config(ctx, 325, 1);
  cfg.jobs = ctx.jobs;
  core::TopologyConfig topo;  // plans h3-h3, h3-h2, h2-h3 plus direct baselines
  topo.sites = 48;
  topo.loss_rates = {0.0, 0.01};
  topo.seed = ctx.seed;
  topo.jobs = ctx.jobs;

  core::RunObservability obs;
  const core::StudyResult study = run_study(ctx, cfg, out, ctx.traced ? &obs : nullptr);
  check_fig6(study, out);
  const std::string study_digest = out.digest;

  const double cpu0 = cpu_s();
  core::TopologyResult result;
  const double topo_s =
      time_s([&] { result = core::run_topology(topo, ctx.traced ? &obs : nullptr); });
  out.run_wall_s += topo_s;
  out.run_cpu_s += cpu_s() - cpu0;
  out.layers["topology.sweep_s"] = topo_s;
  out.digest = fnv1a_hex(study_digest + core::topology_result_to_csv(result));
  count_topology(result, out);

  if (ctx.traced) {
    // Determinism across thread counts: the study at jobs 1 must produce the
    // same summary as at jobs N.
    cfg.jobs = 1;
    const core::StudyResult reference = core::MeasurementStudy(cfg).run();
    out.checks.emplace_back("study_digest_jobs_invariant",
                            fnv1a_hex(core::summary_to_json(reference)) == study_digest);
  }
  finish_layers(ctx, obs, out, ctx.jobs);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"study_paper", 3, false, 1, study_paper},
      {"study_lossy_resumed", 3, false, 1, study_lossy_resumed},
      {"study_obs", 3, false, 1, study_obs},
      {"load_fleet", 9, false, 3, load_fleet},
      {"sweeps_parallel", 3, true, 1, sweeps_parallel},
  };
  return all;
}

}  // namespace perfbench
