// PhaseProfiler: real wall-clock cost of simulator phases.
//
// Unlike the metrics registry's series (which record *simulated*
// quantities), the profiler measures how much host CPU time each simulator
// phase burns — event loop, link transmission, handshake dispatch, page
// assembly — so perf regressions introduced by later PRs are visible in one
// table. Each MetricsRegistry owns one profiler and merges it with the rest of
// the shard.
//
// Usage: wrap a phase in an obs::ProfileScope (obs/metrics.h). It reads the
// installed registry once; when none is installed (the default) the
// constructor and destructor are a single null-check each — safe to leave in
// hot paths.
//
//   void Simulator::run() {
//     obs::ProfileScope scope("sim.run");
//     ...
//   }
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace h3cdn::obs {

class PhaseProfiler {
 public:
  struct Phase {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  void record(const char* name, std::uint64_t ns);

  /// Shard merge: calls and total time add, max takes the larger. Merging
  /// every shard profiler reproduces what one shared profiler would have
  /// recorded (host wall-clock values themselves are not deterministic).
  void merge_from(const PhaseProfiler& other);

  [[nodiscard]] const std::map<std::string, Phase>& phases() const { return phases_; }
  void clear() { phases_.clear(); }

  /// Plain-text table: phase, calls, total ms, mean us, max us.
  [[nodiscard]] std::string report() const;

  /// {"phases": {name: {calls, total_ms, mean_us, max_us}}}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Phase> phases_;
};

}  // namespace h3cdn::obs
