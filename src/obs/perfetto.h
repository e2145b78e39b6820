// Chrome-trace (Perfetto-loadable) span export of page and request
// lifecycles. The Trace Event Format is the JSON dialect chrome://tracing
// and ui.perfetto.dev both ingest: {"displayTimeUnit":"ms","traceEvents":
// [...]} where each complete span is a phase-"X" event with microsecond
// `ts`/`dur`.
//
// Mapping:
//   * pid = page index + 1; each Waterfall becomes one process whose name is
//     "<site> [vantage]". tid 0 carries the page-load span; each resource
//     fetch becomes a span on tid = connection_id + 1, so rows group by the
//     pooled connection that served them — connection reuse and coalescing
//     are visible as stacked spans on one track.
//   * Fault events of the TraceLog (connection aborts, fallbacks, H3-broken
//     marks, re-probes) export as instant ("i") events on pid 0, the shared
//     fault track, so they line up against every page. They are ordered by
//     time; ties keep track order, then record order.
//
// Deterministic: iteration follows waterfall and track order, both of which
// are canonical after shard merge.
#pragma once

#include <string>
#include <vector>

#include "obs/trace_log.h"
#include "obs/waterfall.h"

namespace h3cdn::obs {

/// The full trace document. `traces` may be null (no fault track).
[[nodiscard]] std::string to_chrome_trace_json(const std::vector<Waterfall>& waterfalls,
                                               const TraceLog* traces);

}  // namespace h3cdn::obs
