// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every binary reproduces one table or figure of the paper at full scale
// (325 sites, 3 vantage points) and prints the measured rows next to the
// paper-reported values. Scale can be adjusted via environment variables
// (positive integers; anything else exits 2):
//   H3CDN_BENCH_SITES   (default 325)
//   H3CDN_BENCH_PROBES  (default 1 probe per vantage; the paper used 3)
//
// Besides the human-readable table, every binary emits a machine-readable
// BENCH_<name>.json trajectory record (schema v1: named metrics with units,
// a config hash, the git sha) into H3CDN_BENCH_OUT (default: the current
// directory) so CI can track headline numbers across commits. See
// docs/BENCH.md for the schema.
#pragma once

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiments.h"
#include "core/report.h"
#include "core/study.h"
#include "util/json.h"

namespace h3cdn::bench {

/// A positive integer from the environment, or `fallback` when `name` is
/// unset. Any other value (0, empty, non-numeric) exits 2 with a message
/// rather than silently running the default scale.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::size_t parsed = 0;
  const char* end = v + std::strlen(v);
  const auto [stop, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc() || stop != end || parsed == 0) {
    std::cerr << name << " must be a positive integer, got '" << v << "'\n";
    std::exit(2);
  }
  return parsed;
}

/// Full-scale study configuration mirroring the paper's §III setup.
inline core::StudyConfig standard_config() {
  core::StudyConfig cfg;
  cfg.workload.site_count = 325;
  cfg.max_sites = env_size("H3CDN_BENCH_SITES", 325);
  cfg.probes_per_vantage = static_cast<int>(env_size("H3CDN_BENCH_PROBES", 1));
  return cfg;
}

inline core::StudyConfig consecutive_config() {
  core::StudyConfig cfg = standard_config();
  cfg.consecutive = true;
  return cfg;
}

/// Tiny study used by the google-benchmark timing loops inside each binary.
inline core::StudyConfig micro_config(std::size_t sites = 8) {
  core::StudyConfig cfg;
  cfg.workload.site_count = sites;
  cfg.max_sites = sites;
  cfg.probes_per_vantage = 1;
  cfg.vantages = {browser::default_vantage_points()[0]};
  return cfg;
}

// ---------------------------------------------------------------------------
// Machine-readable bench trajectory (BENCH_<name>.json, schema v1)
// ---------------------------------------------------------------------------

/// One named measurement of a bench run.
struct BenchMetric {
  std::string metric;
  double value = 0.0;
  std::string unit;  // "ms", "count", "ratio", "ms_per_resource", ...
};

/// Collected by the reproduce step; serialized to BENCH_<name>.json.
struct BenchReport {
  std::string name;   // binary basename minus the "bench_" prefix
  std::string title;  // human title printed above the table
  std::vector<BenchMetric> metrics;

  void add(std::string metric, double value, std::string unit) {
    metrics.push_back({std::move(metric), value, std::move(unit)});
  }
};

/// FNV-1a over the scale knobs, so trajectory points taken at different
/// configurations never get compared against each other by accident.
inline std::string config_hash(std::size_t sites, std::size_t probes) {
  const std::string canon =
      "sites=" + std::to_string(sites) + ";probes=" + std::to_string(probes);
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : canon) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The commit under test: runtime env override (CI sets GITHUB_SHA; local
/// runs can set H3CDN_GIT_SHA) falling back to the sha baked in at configure
/// time by bench/CMakeLists.txt.
inline std::string git_sha() {
  for (const char* var : {"H3CDN_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') return v;
  }
#ifdef H3CDN_BUILD_GIT_SHA
  return H3CDN_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Peak resident set size of this process in MiB, from getrusage. Linux
/// reports ru_maxrss in KiB, macOS in bytes; 0.0 when the call fails.
inline double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

inline std::string bench_name_from_argv0(const char* argv0) {
  std::string name = argv0 == nullptr ? "" : argv0;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name.empty() ? "unknown" : name;
}

/// Writes BENCH_<name>.json into H3CDN_BENCH_OUT (default "."). Returns the
/// path, or "" on I/O failure (reported to stderr; never fatal — the human
/// output already happened).
inline std::string write_bench_report(const BenchReport& report) {
  const char* out_dir = std::getenv("H3CDN_BENCH_OUT");
  const std::string dir = (out_dir != nullptr && *out_dir != '\0') ? out_dir : ".";
  const std::string path = dir + "/BENCH_" + report.name + ".json";

  util::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("bench", report.name);
  w.kv("title", report.title);
  w.kv("git_sha", git_sha());
  w.key("config").begin_object();
  const std::size_t sites = env_size("H3CDN_BENCH_SITES", 325);
  const std::size_t probes = env_size("H3CDN_BENCH_PROBES", 1);
  w.kv("sites", static_cast<std::uint64_t>(sites));
  w.kv("probes", static_cast<std::uint64_t>(probes));
  w.kv("hash", config_hash(sites, probes));
  w.end_object();
  w.key("metrics").begin_array();
  for (const auto& m : report.metrics) {
    w.begin_object();
    w.kv("metric", m.metric);
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::cerr << "bench report: cannot open " << path << " for writing\n";
    return "";
  }
  file << w.str() << "\n";
  return path;
}

/// Runs the registered google-benchmark timing loops (unless --notiming),
/// then invokes `reproduce` to print the paper table at full scale and emits
/// the BENCH_<name>.json trajectory record. `reproduce` takes either
/// (std::ostream&) or (std::ostream&, BenchReport&) — the two-argument form
/// lets a binary record its headline numbers as named metrics; either way
/// the reproduce wall time is always recorded.
template <typename Fn>
int run_bench_main(int argc, char** argv, const char* title, Fn&& reproduce) {
  const auto process_start = std::chrono::steady_clock::now();
  bool timing = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--notiming") timing = false;
  }
  if (timing) {
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
  }
  BenchReport report;
  report.name = bench_name_from_argv0(argc > 0 ? argv[0] : nullptr);
  report.title = title;
  std::cout << "\n=== Reproduction: " << title << " ===\n";
  const auto start = std::chrono::steady_clock::now();
  if constexpr (std::is_invocable_v<Fn&, std::ostream&, BenchReport&>) {
    reproduce(std::cout, report);
  } else {
    reproduce(std::cout);
  }
  const auto stop = std::chrono::steady_clock::now();
  report.add("reproduce_wall_ms", std::chrono::duration<double, std::milli>(stop - start).count(),
             "ms");
  // Whole-process resource footprint: total wall time (timing loops included)
  // and the peak RSS high-water mark, so trajectory tracking catches runtime
  // and memory regressions alongside the headline numbers.
  report.add("wall_time_ms",
             std::chrono::duration<double, std::milli>(stop - process_start).count(), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "mb");
  const std::string path = write_bench_report(report);
  if (!path.empty()) std::cerr << "wrote " << path << "\n";
  return 0;
}

}  // namespace h3cdn::bench
