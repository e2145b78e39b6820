// The sweep engine: every experiment driver is a sweep of independent cells
// (study shards, load and chaos cells, resilience visits, topology cells),
// and this is the one place that runs them in parallel.
//
// run_sweep executes run_cell(0..cells-1) on a util::ThreadPool. With a
// non-null `sink`, each cell gets a private RunObservability (the sink's
// config split by per_shard(cells)) whose metrics registry — the one sink
// that also holds the timeline and profiler — is installed thread-locally
// for the duration of the cell; afterwards
// the shards merge into `sink` in cell order. With a null sink every cell
// sees a null shard and no sink is installed. Callers pre-size their own row
// vector and write rows[cell], so rows and every merged artifact are
// byte-identical at any `jobs` value. docs/PARALLELISM.md states the
// contract.
#pragma once

#include <cstddef>
#include <functional>

#include "core/observability.h"

namespace h3cdn::core {

/// Runs `cells` independent cells on `jobs` workers (0 = the default job
/// count; clamped to `cells`). Rethrows the first exception a cell threw.
void run_sweep(std::size_t cells, int jobs, RunObservability* sink,
               const std::function<void(std::size_t cell, RunObservability* shard)>& run_cell);

}  // namespace h3cdn::core
