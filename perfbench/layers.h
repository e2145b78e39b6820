// Per-layer metrics of a traced repetition. Everything is measured from
// outside the simulator: registry counters and profiler spans that
// core::RunObservability already collects, and timed calls into layer APIs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/observability.h"

namespace perfbench {

/// Derives the registry- and span-based layer metrics of one traced run.
/// `visits` normalizes the per-visit counts; `run_wall_s` and `jobs` are the
/// time base of the share metrics.
void add_registry_layers(const h3cdn::core::RunObservability& obs, double visits,
                         double run_wall_s, int jobs, std::map<std::string, double>& out);

/// Times isolated calls into the sim, net, transport, browser and web layers
/// on inputs derived from `seed`.
void add_layer_probes(std::uint64_t seed, std::map<std::string, double>& out);

}  // namespace perfbench
