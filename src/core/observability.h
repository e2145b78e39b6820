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

class RunObservability {
 public:
  RunObservability() = default;
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

  /// Stores a finished page's waterfall.
  void add_waterfall(obs::Waterfall waterfall) { waterfalls_.push_back(std::move(waterfall)); }

  /// Records one scenario's fault->recovery annotation (chaos harness).
  void add_fault_annotation(obs::FaultAnnotation annotation);
  [[nodiscard]] const std::vector<obs::FaultAnnotation>& fault_annotations() const {
    return fault_annotations_;
  }

  /// Folds a per-shard sink into this run-level one: the registry (metrics,
  /// the bucket-wise timeline, profiler phases, and the trace tracks appended
  /// after the ones already here; see obs::MetricsRegistry::merge_from)
  /// merges, and the shard's fault annotations and waterfalls are appended.
  /// Callers must merge shards in canonical shard order — that single rule is
  /// what makes every artifact independent of thread scheduling. The shard
  /// sink is left drained.
  void merge_from(RunObservability&& shard);

  /// Writes metrics.json/csv/prom, qlog.json, waterfalls.json,
  /// attribution.json (critical-path PLT dissection of the collected
  /// waterfalls), profile.json, timeline.{json,csv}, slo.json,
  /// fault_recovery.json (when annotations exist), and trace.perfetto.json
  /// into `dir` (created if missing). Returns false and fills `error` on I/O
  /// failure.
  bool write_artifacts(const std::string& dir, std::string* error = nullptr) const;

 private:
  obs::MetricsRegistry metrics_;
  std::vector<obs::Waterfall> waterfalls_;
  std::vector<obs::FaultAnnotation> fault_annotations_;
};

}  // namespace h3cdn::core
