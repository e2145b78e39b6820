// Run-level observability bundle: one object owning the metrics registry
// (which holds the run's timeline, wall-clock profiler and trace log) and
// the collected waterfalls for a study run, plus the artifact writer that
// turns them into files.
//
// Wiring (see docs/OBSERVABILITY.md):
//   core::RunObservability obs;
//   core::StudyConfig cfg;
//   cfg.observability = &obs;
//   core::MeasurementStudy(cfg).run();
//   obs.write_artifacts("out/obs");   // metrics.{json,csv,prom}, qlog.json,
//                                     // waterfalls.json, attribution.json,
//                                     // profile.json, timeline.{json,csv},
//                                     // slo.json, trace.perfetto.json,
//                                     // fault_recovery.json (chaos only)
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/fault_window.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/waterfall.h"

namespace h3cdn::core {

struct ObservabilityConfig {
  // Cap on collected waterfalls (one per page visit). 0 = unlimited. In a
  // sharded run the cap is split evenly across shards (see per_shard), so
  // which pages are kept never depends on thread scheduling. The trace log's
  // caps are constants of obs::TraceLog, split the same way by run_sweep.
  std::size_t max_waterfalls = 0;
  // Window width of the sim-time timeline (timeline.{json,csv}); every shard
  // and chaos cell must use the same width or merge_from aborts.
  Duration timeline_bucket = msec(250);
  // Objectives evaluated over the merged timeline into slo.json. Clear to
  // skip SLO evaluation entirely.
  std::vector<obs::SloObjective> slo = obs::default_slo_objectives();

  /// The per-shard slice of this config: the waterfall cap is divided evenly
  /// (rounded up) across `shard_count` shards so every shard gets a
  /// deterministic quota regardless of execution order.
  [[nodiscard]] ObservabilityConfig per_shard(std::size_t shard_count) const;
};

class RunObservability {
 public:
  explicit RunObservability(ObservabilityConfig config = {})
      : config_(std::move(config)), metrics_(config_.timeline_bucket) {}
  RunObservability(const RunObservability&) = delete;
  RunObservability& operator=(const RunObservability&) = delete;

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] obs::TimelineRecorder& timeline() { return metrics_.timeline(); }
  [[nodiscard]] const obs::TimelineRecorder& timeline() const { return metrics_.timeline(); }
  [[nodiscard]] obs::PhaseProfiler& profiler() { return metrics_.profiler(); }
  [[nodiscard]] const obs::PhaseProfiler& profiler() const { return metrics_.profiler(); }
  [[nodiscard]] obs::TraceLog& traces() { return metrics_.traces(); }
  [[nodiscard]] const obs::TraceLog& traces() const { return metrics_.traces(); }
  [[nodiscard]] const std::vector<obs::Waterfall>& waterfalls() const { return waterfalls_; }
  [[nodiscard]] const ObservabilityConfig& config() const { return config_; }

  /// Stores a finished page's waterfall (dropped once past max_waterfalls;
  /// the drop is counted in the `obs.waterfalls_dropped` metric).
  void add_waterfall(obs::Waterfall waterfall);

  /// Records one scenario's fault->recovery annotation (chaos harness).
  void add_fault_annotation(obs::FaultAnnotation annotation);
  [[nodiscard]] const std::vector<obs::FaultAnnotation>& fault_annotations() const {
    return fault_annotations_;
  }

  /// Folds a per-shard sink into this run-level one: the registry (metrics,
  /// the bucket-wise timeline, profiler phases, and the trace tracks appended
  /// after the ones already here; see obs::MetricsRegistry::merge_from) and
  /// fault annotations merge, and the shard's
  /// waterfalls are re-admitted through add_waterfall (so the run-level
  /// max_waterfalls cap still binds). Callers must merge shards in canonical
  /// shard order — that single rule is what makes every artifact independent
  /// of thread scheduling. The shard sink is left drained.
  void merge_from(RunObservability&& shard);

  /// Writes metrics.json/csv/prom, qlog.json, waterfalls.json,
  /// attribution.json (critical-path PLT dissection of the collected
  /// waterfalls), profile.json, timeline.{json,csv}, slo.json,
  /// fault_recovery.json (when annotations exist), and trace.perfetto.json
  /// into `dir` (created if missing). Returns false and fills `error` on I/O
  /// failure.
  bool write_artifacts(const std::string& dir, std::string* error = nullptr) const;

 private:
  ObservabilityConfig config_;
  obs::MetricsRegistry metrics_;
  std::vector<obs::Waterfall> waterfalls_;
  std::vector<obs::FaultAnnotation> fault_annotations_;
};

}  // namespace h3cdn::core
