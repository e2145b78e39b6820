// ProbeRunTask: one cell of a measurement study's sweep.
//
// A cell is one (vantage, probe, mode) browser run — the unit the paper's
// methodology makes independent by construction: it owns its Simulator, its
// Environment (paths, edge caches, DNS cache), its TLS session-ticket store
// and its Rng fork. Nothing mutable is shared with any other cell, so cells
// can execute on any thread in any order; core::run_sweep (core/sweep.h)
// supplies the observability shard and merges in canonical order, which
// keeps every output byte-identical for any --jobs value.
#pragma once

#include <memory>
#include <vector>

#include "browser/environment.h"
#include "core/observability.h"
#include "core/study.h"

namespace h3cdn::core {

/// Inputs of one cell. Everything is copied or shared-immutable: `config`
/// and `workload` must outlive run() but are only read.
struct ProbeRunTask {
  const StudyConfig* config = nullptr;
  std::shared_ptr<const web::Workload> workload;
  browser::VantageConfig vantage;  // base vantage (loss/salt applied in run())
  int probe = 0;
  bool h3_enabled = false;
  std::size_t site_count = 0;

  /// Executes the cell on the calling thread and returns its visits in site
  /// order. `sink` is the cell's run_sweep shard (null when observability is
  /// off); it receives the cell's traces and waterfalls.
  [[nodiscard]] std::vector<PageVisitRecord> run(RunObservability* sink) const;
};

}  // namespace h3cdn::core
