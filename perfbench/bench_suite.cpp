// bench_suite: the repository's benchmark (perfbench/README.md).
//
//   bench_suite [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//
// One run measures one workload. Every repetition executes in a fresh child
// process of this binary, so each pays the cold start a user pays and reports
// its own peak RSS. Untraced runs (--trace 0) repeat the workload while the
// repetitions fit in --seconds and report the end-to-end metrics; traced runs
// (--trace 1) make one untraced and one traced repetition and report the
// per-layer metrics. Without --workload, every workload gets an untraced and
// a traced run.
//
// Human-readable lines go first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. BENCH_suite.json (schema v1)
// lands next to the binary. Exit status: 0 when every correctness check held,
// 1 when one failed, 2 on a usage error.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "stats.h"

extern char** environ;

namespace {

using perfbench::RepContext;
using perfbench::RepResult;
using perfbench::Workload;

constexpr int kDefaultSeconds = 20;  // BENCHMARK.json "run_seconds"
constexpr std::size_t kMaxReps = 64;
constexpr std::size_t kSetupSamples = 9;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics a run prints, in BENCHMARK.json order. A layer a workload does
// not exercise reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"visits_per_s", "1/s"},
    {"cpu_per_visit_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_visit", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.ns_per_event", "ns"},
    {"sim.run_ms", "ms"},
    {"net.packets_per_visit", "count"},
    {"net.drop_ratio", "ratio"},
    {"net.transmit_share", "ratio"},
    {"net.ns_per_packet", "ns"},
    {"transport.connections_per_visit", "count"},
    {"transport.packets_sent_per_visit", "count"},
    {"transport.retransmissions_per_visit", "count"},
    {"transport.stall_spans_per_visit", "count"},
    {"transport.fetch_us.tcp_clean", "us"},
    {"transport.fetch_us.quic_clean", "us"},
    {"transport.fetch_us.tcp_lossy", "us"},
    {"transport.fetch_us.quic_lossy", "us"},
    {"transport.handshake_ms", "ms"},
    {"tls.resumed_share", "ratio"},
    {"dns.queries_per_visit", "count"},
    {"dns.stub_hit_ratio", "ratio"},
    {"http.entries_per_connection", "count"},
    {"http.refused_dials", "count"},
    {"http.refusal_retries", "count"},
    {"cdn.edge_hit_ratio", "ratio"},
    {"cdn.edge_refused", "count"},
    {"cdn.warm_ms", "ms"},
    {"browser.visit_p50_ms", "ms"},
    {"browser.visit_p98_ms", "ms"},
    {"browser.setup_ms", "ms"},
    {"browser.assembly_ms", "ms"},
    {"load.clients_per_visit", "count"},
    {"load.cell_s.r2", "s"},
    {"load.cell_s.r8", "s"},
    {"load.cell_s.r32", "s"},
    {"topology.sweep_s", "s"},
    {"topology.relayed_requests", "count"},
    {"topology.tier_hit_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.export_ms", "ms"},
    {"obs.bytes_per_visit.qlog", "B"},
    {"obs.bytes_per_visit.perfetto", "B"},
    {"obs.bytes_per_visit.waterfalls", "B"},
    {"obs.traces_dropped", "count"},
    {"obs_bytes_per_visit", "B"},
    {"core.outside_sim_share", "ratio"},
    {"core.summary_ms", "ms"},
    {"core.busy_ratio", "ratio"},
    {"web.generate_ms", "ms"},
    {"failed_visit_share", "ratio"},
    {"failed_request_share", "ratio"},
};

struct Options {
  std::string workload;  // empty: every workload
  std::uint64_t seed = 1;
  int seconds = kDefaultSeconds;
  bool trace = false;
  // Internal, for the children this program spawns: "run" runs one
  // repetition of workload part `part` and reports it on stdout; "setup"
  // stops where set-up ends.
  std::string child;
  int part = 0;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_suite: " << error << "\n"
            << "usage: bench_suite [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n"
            << "workloads:";
  for (const Workload& w : perfbench::workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  const std::uint64_t v = std::stoull(text);
  if (v < lo || v > hi) {
    usage(flag + " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : perfbench::workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--child" && (value == "run" || value == "setup")) {
      o.child = value;
    } else if (arg == "--part") {
      o.part = static_cast<int>(parse_uint(arg, value, 0, 63));
    } else if (arg == "--workload") {
      if (find_workload(value) == nullptr) usage("unknown workload '" + value + "'");
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = parse_uint(arg, value, 0, ~0ull >> 1);
    } else if (arg == "--seconds") {
      o.seconds = static_cast<int>(parse_uint(arg, value, 1, 3600));
    } else if (arg == "--trace") {
      o.trace = parse_uint(arg, value, 0, 1) == 1;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!o.child.empty() && o.workload.empty()) usage("--child needs --workload");
  if (!o.child.empty() && o.part >= find_workload(o.workload)->parts) {
    usage("--part out of range for " + o.workload);
  }
  return o;
}

std::filesystem::path build_dir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path();
}

int thread_budget() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

// --- child: one repetition --------------------------------------------------

int run_child(const Workload& w, const Options& o) {
  double ready_at = 0.0;
  const bool setup_only = o.child == "setup";
  RepContext ctx;
  ctx.seed = o.seed;
  ctx.part = o.part;
  ctx.traced = o.trace;
  ctx.jobs = thread_budget();
  ctx.work_dir = (build_dir() / "work" / ("rep-" + std::to_string(getpid()))).string();
  ctx.obs_report = (build_dir() / "tools" / "h3cdn_obs_report").string();
  ctx.ready = [&ready_at, setup_only] {
    ready_at = perfbench::wall_s();
    if (setup_only) {
      std::printf("ready_at %.9f\n", ready_at);
      std::exit(0);
    }
  };
  if (!setup_only) std::filesystem::create_directories(ctx.work_dir);
  const RepResult r = w.run(ctx);
  std::filesystem::remove_all(ctx.work_dir);

  std::printf("ready_at %.9f\n", ready_at);
  std::printf("run_wall_s %.9f\nrun_cpu_s %.9f\n", r.run_wall_s, r.run_cpu_s);
  std::printf("visits %llu\nfailed_visits %llu\n", static_cast<unsigned long long>(r.visits),
              static_cast<unsigned long long>(r.failed_visits));
  if (!r.digest.empty()) std::printf("digest %s\n", r.digest.c_str());
  for (const auto& [name, passed] : r.checks) std::printf("check %s %d\n", name.c_str(), passed);
  for (const auto& [name, value] : r.layers) std::printf("layer %s %.17g\n", name.c_str(), value);
  return 0;
}

// --- parent: spawn repetitions and aggregate --------------------------------

struct Rep {
  bool ok = false;  // the child exited 0 and reported everything its mode asks
  int part = 0;
  RepResult result;
  double setup_s = 0.0;  // spawn to the end of set-up
  double peak_rss_mb = 0.0;
};

Rep parse_rep(const std::string& text, double spawned_at) {
  Rep rep;
  double ready_at = -1.0;
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    RepResult& r = rep.result;
    if (key == "ready_at") {
      in >> ready_at;
    } else if (key == "run_wall_s") {
      in >> r.run_wall_s;
    } else if (key == "run_cpu_s") {
      in >> r.run_cpu_s;
    } else if (key == "visits") {
      in >> r.visits;
    } else if (key == "failed_visits") {
      in >> r.failed_visits;
    } else if (key == "digest") {
      in >> r.digest;
    } else if (key == "check") {
      std::string name;
      int passed = 0;
      in >> name >> passed;
      r.checks.emplace_back(name, passed == 1);
    } else if (key == "layer") {
      std::string name;
      double value = 0.0;
      in >> name >> value;
      r.layers[name] = value;
    } else {
      return rep;  // not a report this parent understands
    }
  }
  rep.ok = ready_at >= spawned_at;
  rep.setup_s = ready_at - spawned_at;
  return rep;
}

// Runs one child in `mode` ("run" or "setup") on workload part `part` and
// waits for it.
Rep spawn_rep(const Workload& w, const Options& o, const std::string& mode, bool traced,
              int part = 0) {
  std::vector<std::string> args = {"bench_suite", "--child",  mode,
                                   "--workload",  std::string(w.name),
                                   "--part",      std::to_string(part),
                                   "--seed",      std::to_string(o.seed),
                                   "--trace",     traced ? "1" : "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return {};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const double spawned_at = perfbench::wall_s();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) return {};

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  Rep rep = parse_rep(text, spawned_at);
  rep.part = part;
  const bool ran = rep.result.run_wall_s > 0.0 && rep.result.visits > 0;
  rep.ok = rep.ok && (mode == "setup" || ran) && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  rep.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
  return rep;
}

struct Reported {
  const MetricDef* def = nullptr;
  double value = 0.0;         // what the run reports
  perfbench::Summary reps;  // the repetitions behind it
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Reported> metrics;
  std::vector<std::string> failures;
};

// Every check of every rep, plus: each child succeeded and the digests of
// each part of the run agree.
void judge(const std::vector<Rep>& reps, RunOutcome& out) {
  std::map<int, std::string> digests;
  for (const Rep& rep : reps) {
    out.attempted += rep.result.visits;
    out.failed += rep.result.failed_visits;
    if (!rep.ok) out.failures.push_back("a repetition did not complete");
    for (const auto& [name, passed] : rep.result.checks) {
      if (!passed) out.failures.push_back("check " + name);
    }
    if (rep.result.digest.empty()) continue;
    std::string& digest = digests[rep.part];
    if (digest.empty()) digest = rep.result.digest;
    if (rep.result.digest != digest) out.failures.push_back("summary digest differs across repetitions");
  }
  out.correct = out.failures.empty();
  out.attempted = std::max<std::uint64_t>(out.attempted, 1);
}

RunOutcome run_untraced(const Workload& w, const Options& o) {
  std::vector<Rep> reps;
  const double start = perfbench::wall_s();
  for (;;) {
    const int part = static_cast<int>(reps.size() % static_cast<std::size_t>(w.parts));
    reps.push_back(spawn_rep(w, o, "run", false, part));
    if (!reps.back().ok || reps.size() >= kMaxReps) break;
    const double elapsed = perfbench::wall_s() - start;
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (static_cast<int>(reps.size()) >= w.min_reps && elapsed + per_rep > o.seconds) break;
  }
  RunOutcome out;
  judge(reps, out);
  std::vector<double> rate, cpu, setup, rss;
  // Per part: its visits, its fastest repetition's wall and CPU seconds, and
  // the peak RSS of each of its repetitions.
  const auto parts = static_cast<std::size_t>(w.parts);
  std::vector<double> visits(parts, 0.0), best_wall(parts, 0.0), best_cpu(parts, 0.0);
  std::vector<std::vector<double>> part_rss(parts);
  for (const Rep& rep : reps) {
    if (!rep.ok) continue;
    const auto p = static_cast<std::size_t>(rep.part);
    const RepResult& r = rep.result;
    const bool first = visits[p] == 0.0;
    visits[p] = static_cast<double>(r.visits);
    best_wall[p] = first ? r.run_wall_s : std::min(best_wall[p], r.run_wall_s);
    best_cpu[p] = first ? r.run_cpu_s : std::min(best_cpu[p], r.run_cpu_s);
    rate.push_back(visits[p] / r.run_wall_s);
    cpu.push_back(1e3 * r.run_cpu_s / visits[p]);
    setup.push_back(rep.setup_s);
    rss.push_back(rep.peak_rss_mb);
    part_rss[p].push_back(rep.peak_rss_mb);
  }
  // Set-up is short next to a repetition: children that stop where set-up
  // ends top its sample up to kSetupSamples.
  while (out.correct && setup.size() < kSetupSamples) {
    const Rep rep = spawn_rep(w, o, "setup", false);
    if (!rep.ok) {
      out.correct = false;
      out.failures.push_back("a set-up child did not complete");
      break;
    }
    setup.push_back(rep.setup_s);
  }
  // Co-tenants on a shared host only ever slow a repetition down, in
  // episodes of several seconds, so the run's throughput and CPU cost are
  // those of the least-disturbed repetition of each part. Set-up reports its
  // median; memory, which varies with the part's input and hardly at all
  // between repetitions, the mean over parts of each part's median.
  const bool ran = std::find(visits.begin(), visits.end(), 0.0) == visits.end();
  const double all_visits = std::accumulate(visits.begin(), visits.end(), 0.0);
  const double wall = std::accumulate(best_wall.begin(), best_wall.end(), 0.0);
  const double cpu_total = std::accumulate(best_cpu.begin(), best_cpu.end(), 0.0);
  double rss_mean = 0.0;
  for (const std::vector<double>& values : part_rss) {
    rss_mean += perfbench::median(values) / static_cast<double>(parts);
  }
  out.metrics.push_back({&kEndToEnd[0], ran ? all_visits / wall : 0.0, perfbench::summarize(rate)});
  out.metrics.push_back(
      {&kEndToEnd[1], ran ? 1e3 * cpu_total / all_visits : 0.0, perfbench::summarize(cpu)});
  const perfbench::Summary setup_summary = perfbench::summarize(setup);
  out.metrics.push_back({&kEndToEnd[2], setup_summary.median, setup_summary});
  out.metrics.push_back({&kEndToEnd[3], ran ? rss_mean : 0.0, perfbench::summarize(rss)});
  return out;
}

RunOutcome run_traced(const Workload& w, const Options& o) {
  const std::vector<Rep> reps = {spawn_rep(w, o, "run", false), spawn_rep(w, o, "run", true)};
  const RepResult& plain = reps[0].result;
  const RepResult& traced = reps[1].result;
  RunOutcome out;
  judge(reps, out);

  // Timings taken from outside come from the untraced rep; counters, spans
  // and layer probes exist only in the traced one.
  std::map<std::string, double> layers = traced.layers;
  for (const auto& [name, value] : plain.layers) layers[name] = value;
  const double threads = w.parallel ? thread_budget() : 1.0;
  const double visits = static_cast<double>(std::max<std::uint64_t>(plain.visits, 1));
  if (plain.run_wall_s > 0.0) {
    layers["sim.events_per_s"] =
        layers["sim.events_per_visit"] * static_cast<double>(traced.visits) / plain.run_wall_s;
    layers["obs.trace_overhead_ratio"] = traced.run_wall_s / plain.run_wall_s;
    layers["core.busy_ratio"] = plain.run_cpu_s / (plain.run_wall_s * threads);
  }
  layers["failed_visit_share"] = static_cast<double>(plain.failed_visits) / visits;
  for (const MetricDef& m : kPerLayer) {
    const auto it = layers.find(m.name);
    const double value = it == layers.end() ? 0.0 : it->second;
    out.metrics.push_back({&m, value, perfbench::summarize({value})});
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// `"name": {"value": v, "unit": u}` members, names behind `prefix`.
std::string metric_members(const RunOutcome& r, const std::string& prefix) {
  std::string s;
  for (const Reported& m : r.metrics) {
    s += (s.empty() ? "\"" : ", \"") + prefix + m.def->name + "\": {\"value\": " +
         json_number(m.value) + ", \"unit\": \"" + m.def->unit + "\"}";
  }
  return s;
}

void print_table(const std::string& title, const RunOutcome& r) {
  std::printf("== %s: metric, unit, value, [q1, q3] (n) of the repetitions\n", title.c_str());
  for (const Reported& m : r.metrics) {
    std::printf("%-38s %-6s %14.6g [%.6g, %.6g] (n=%zu)\n", m.def->name, m.def->unit, m.value,
                m.reps.q1, m.reps.q3, m.reps.n);
  }
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
}

struct Record {
  std::string workload;
  bool traced = false;
  RunOutcome outcome;
};

void write_record(const std::vector<Record>& records, const Options& o) {
  std::string s = "{\n  \"schema_version\": 1,\n  \"bench\": \"suite\",\n  \"seed\": " +
                  std::to_string(o.seed) + ",\n  \"seconds\": " + std::to_string(o.seconds) +
                  ",\n  \"runs\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    s += std::string(i ? "," : "") + "\n    {\"workload\": \"" + rec.workload +
         "\", \"traced\": " + (rec.traced ? "true" : "false") +
         ", \"correct\": " + (rec.outcome.correct ? "true" : "false") + ", \"metrics\": [";
    for (std::size_t j = 0; j < rec.outcome.metrics.size(); ++j) {
      const Reported& m = rec.outcome.metrics[j];
      s += std::string(j ? ", " : "") + "{\"metric\": \"" + m.def->name + "\", \"unit\": \"" +
           m.def->unit + "\", \"value\": " + json_number(m.value) +
           ", \"median\": " + json_number(m.reps.median) + ", \"q1\": " + json_number(m.reps.q1) +
           ", \"q3\": " + json_number(m.reps.q3) + ", \"n\": " + std::to_string(m.reps.n) + "}";
    }
    s += "]}";
  }
  s += "\n  ]\n}\n";
  const auto path = build_dir() / "BENCH_suite.json";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << s;
  if (!file) std::cerr << "bench_suite: cannot write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  if (!o.child.empty()) return run_child(*find_workload(o.workload), o);

  std::vector<Record> records;
  for (const Workload& w : perfbench::workloads()) {
    if (!o.workload.empty() && w.name != o.workload) continue;
    for (const bool traced : {false, true}) {
      if (!o.workload.empty() && traced != o.trace) continue;
      Record rec{std::string(w.name), traced,
                 traced ? run_traced(w, o) : run_untraced(w, o)};
      print_table(rec.workload + (traced ? " (traced)" : ""), rec.outcome);
      records.push_back(std::move(rec));
    }
  }
  write_record(records, o);

  // With every workload in one run, metric names carry their workload.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics;
  for (const Record& rec : records) {
    correct = correct && rec.outcome.correct;
    attempted += rec.outcome.attempted;
    failed += rec.outcome.failed;
    const std::string members =
        metric_members(rec.outcome, o.workload.empty() ? rec.workload + "/" : "");
    metrics += (metrics.empty() ? "" : ", ") + members;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
