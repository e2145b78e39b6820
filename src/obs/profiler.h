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
//   const obs::MetricId kRun{"sim.run"};
//   void Simulator::run() {
//     obs::ProfileScope scope(kRun);
//     ...
//   }
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metric_id.h"

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

  /// Adds one call of `ns` to the phase `name` (merges, tests, cold paths).
  void record(const std::string& name, std::uint64_t ns) { add(phases_[name], ns); }
  /// The same by id: ProfileScope's path. The first call per id resolves by name.
  void record(MetricId id, std::uint64_t ns) {
    Phase* phase = index_.find(id);
    if (phase == nullptr) phase = &index_.remember(id, phases_[id.name()]);
    add(*phase, ns);
  }

  /// Shard merge: calls and total time add, max takes the larger. Merging
  /// every shard profiler reproduces what one shared profiler would have
  /// recorded (host wall-clock values themselves are not deterministic).
  void merge_from(const PhaseProfiler& other);

  [[nodiscard]] const std::map<std::string, Phase>& phases() const { return phases_; }
  void clear() {
    phases_.clear();
    index_.clear();
  }

  /// Plain-text table: phase, calls, total ms, mean us, max us.
  [[nodiscard]] std::string report() const;

  /// {"phases": {name: {calls, total_ms, mean_us, max_us}}}.
  [[nodiscard]] std::string to_json() const;

 private:
  static void add(Phase& phase, std::uint64_t ns) {
    ++phase.calls;
    phase.total_ns += ns;
    if (ns > phase.max_ns) phase.max_ns = ns;
  }

  std::map<std::string, Phase> phases_;
  MetricIndex<Phase> index_;
};

}  // namespace h3cdn::obs
