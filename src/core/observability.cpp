#include "core/observability.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/attribution.h"
#include "obs/perfetto.h"

namespace h3cdn::core {

void RunObservability::add_fault_annotation(obs::FaultAnnotation annotation) {
  fault_annotations_.push_back(std::move(annotation));
}

void RunObservability::merge_from(RunObservability&& shard) {
  metrics_.merge_from(std::move(shard.metrics_));
  for (obs::FaultAnnotation& a : shard.fault_annotations_) {
    fault_annotations_.push_back(std::move(a));
  }
  shard.fault_annotations_.clear();
  for (obs::Waterfall& w : shard.waterfalls_) waterfalls_.push_back(std::move(w));
  shard.waterfalls_.clear();
  shard.metrics_.clear();
}

namespace {

bool write_file(const std::filesystem::path& path, const std::string& content,
                std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path.string();
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path.string();
    return false;
  }
  return true;
}

}  // namespace

bool RunObservability::write_artifacts(const std::string& dir, std::string* error) const {
  std::error_code ec;
  const std::filesystem::path base(dir);
  std::filesystem::create_directories(base, ec);
  if (ec) {
    if (error) *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  const std::vector<obs::SloResult> slo_results =
      obs::evaluate_slos(timeline(), obs::default_slo_objectives());
  return write_file(base / "metrics.json", obs::metrics_to_json(metrics_), error) &&
         write_file(base / "metrics.csv", obs::metrics_to_csv(metrics_), error) &&
         write_file(base / "metrics.prom", obs::metrics_to_prometheus(metrics_), error) &&
         write_file(base / "qlog.json", obs::to_qlog_json(traces()), error) &&
         write_file(base / "waterfalls.json", obs::waterfalls_to_json(waterfalls_), error) &&
         write_file(base / "attribution.json",
                    obs::attribution_to_json(obs::attribute_pages(waterfalls_)), error) &&
         write_file(base / "profile.json", profiler().to_json(), error) &&
         write_file(base / "timeline.json", obs::timeline_to_json(timeline()), error) &&
         write_file(base / "timeline.csv", obs::timeline_to_csv(timeline()), error) &&
         write_file(base / "slo.json", obs::slo_to_json(timeline(), slo_results), error) &&
         write_file(base / "trace.perfetto.json", obs::to_chrome_trace_json(waterfalls_, &traces()),
                    error) &&
         (fault_annotations_.empty() ||
          write_file(base / "fault_recovery.json",
                     obs::fault_annotations_to_json(fault_annotations_,
                                                    to_ms(timeline().bucket_width())),
                     error));
}

}  // namespace h3cdn::core
