#include "core/study.h"

#include <algorithm>
#include <map>

#include "core/probe_run.h"
#include "core/sweep.h"
#include "util/check.h"

namespace h3cdn::core {

MeasurementStudy::MeasurementStudy(StudyConfig config) : config_(std::move(config)) {
  H3CDN_EXPECTS(!config_.vantages.empty());
  H3CDN_EXPECTS(config_.probes_per_vantage >= 1);
  if (!config_.link_profile.empty()) {
    const auto profile = net::LinkProfile::from_name(config_.link_profile);
    H3CDN_EXPECTS(profile.has_value());
    for (auto& vantage : config_.vantages) browser::apply_link_profile(vantage, *profile);
  }
}

StudyResult MeasurementStudy::run() const {
  auto workload = std::make_shared<web::Workload>(web::generate_workload(config_.workload));
  return run(workload);
}

StudyResult MeasurementStudy::run(std::shared_ptr<const web::Workload> workload) const {
  H3CDN_EXPECTS(workload != nullptr);
  StudyResult result;
  result.config = config_;
  result.workload = workload;

  std::size_t site_count = workload->sites.size();
  if (config_.max_sites > 0) site_count = std::min(site_count, config_.max_sites);

  // Canonical cell order: vantage-major, then probe, then H2 before H3 —
  // the exact order the sequential loop visited. run_sweep merges the
  // observability shards in this order and the visits concatenate in it,
  // which is what makes output independent of the job count.
  std::vector<ProbeRunTask> tasks;
  tasks.reserve(config_.vantages.size() * static_cast<std::size_t>(config_.probes_per_vantage) * 2);
  for (const auto& vantage_base : config_.vantages) {
    for (int probe = 0; probe < config_.probes_per_vantage; ++probe) {
      for (const bool h3_enabled : {false, true}) {
        ProbeRunTask task;
        task.config = &config_;
        task.workload = workload;
        task.vantage = vantage_base;
        task.probe = probe;
        task.h3_enabled = h3_enabled;
        task.site_count = site_count;
        tasks.push_back(std::move(task));
      }
    }
  }

  std::vector<std::vector<PageVisitRecord>> rows(tasks.size());
  run_sweep(tasks.size(), config_.jobs, config_.observability,
            [&](std::size_t cell, RunObservability* shard) { rows[cell] = tasks[cell].run(shard); });

  std::size_t visit_count = 0;
  for (const auto& visits : rows) visit_count += visits.size();
  result.visits.reserve(visit_count);
  for (auto& visits : rows) {
    for (PageVisitRecord& rec : visits) result.visits.push_back(std::move(rec));
  }
  return result;
}

std::vector<VisitPair> StudyResult::pairs() const {
  // Key: (site, vantage, probe) -> the two mode visits.
  std::map<std::tuple<std::size_t, std::string, int>, VisitPair> by_key;
  for (const auto& v : visits) {
    auto& pair = by_key[{v.site_index, v.vantage, v.probe}];
    pair.site_index = v.site_index;
    pair.vantage = v.vantage;
    pair.probe = v.probe;
    (v.h3_enabled ? pair.h3 : pair.h2) = &v;
  }
  std::vector<VisitPair> out;
  out.reserve(by_key.size());
  for (auto& [key, pair] : by_key) {
    if (pair.h2 != nullptr && pair.h3 != nullptr) out.push_back(pair);
  }
  return out;
}

std::size_t StudyResult::site_count() const {
  std::size_t n = workload->sites.size();
  if (config.max_sites > 0) n = std::min(n, config.max_sites);
  return n;
}

}  // namespace h3cdn::core
