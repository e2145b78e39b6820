// h3cdn_obs_report — inspect and validate an observability artifact directory
// written by core::RunObservability::write_artifacts (metrics.json/.csv/.prom,
// qlog.json, waterfalls.json, attribution.json, profile.json,
// timeline.{json,csv}, slo.json, trace.perfetto.json, fault_recovery.json).
//
//   h3cdn_obs_report DIR                 human-readable run summary
//   h3cdn_obs_report DIR --attribution   critical-path PLT breakdown (ASCII
//                                        bars; add --json for the JSON form)
//   h3cdn_obs_report DIR --timeline      sim-time sparklines per series, with
//                                        fault/detection/recovery markers
//   h3cdn_obs_report DIR --archetypes    workload-archetype table from
//                                        clusters.json (--experiment clusters);
//                                        with --check, validates the clustering
//                                        invariants instead of rendering
//   h3cdn_obs_report DIR --check         validate artifacts; exit 1 on failure
//     --waterfalls N    number of page waterfalls to render (default 3)
//     --width N         waterfall terminal width (default 100)
//     --min-series N    --check: minimum distinct metric series (default 30)
//     --min-layers N    --check: minimum distinct layer prefixes (default 6)
//     --slo-strict      --check: a breached SLO or burn alert fails the check
//                       (default: slo.json is validated for consistency and
//                       summarized, but chaos runs are allowed to breach)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "numeric_flag.h"
#include "obs/waterfall.h"
#include "util/json_parse.h"

using namespace h3cdn;

namespace {

struct Options {
  std::string dir;
  bool check = false;
  bool attribution = false;
  bool timeline = false;
  bool archetypes = false;
  bool json = false;
  bool slo_strict = false;
  std::size_t waterfalls = 3;
  std::size_t width = 100;
  std::size_t min_series = 30;
  std::size_t min_layers = 6;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " DIR [--check [--slo-strict]] [--attribution [--json]] [--timeline]\n"
               "       [--archetypes]\n"
               "       [--waterfalls N] [--width N] [--min-series N] [--min-layers N]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&](std::size_t& out, tools::Range range) {
      const auto value = tools::parse_number<std::size_t>(arg, next(), range);
      if (!value) usage(argv[0]);
      out = *value;
    };
    if (arg == "--check") {
      o.check = true;
    } else if (arg == "--attribution") {
      o.attribution = true;
    } else if (arg == "--timeline") {
      o.timeline = true;
    } else if (arg == "--archetypes") {
      o.archetypes = true;
    } else if (arg == "--slo-strict") {
      o.slo_strict = true;
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--waterfalls") {
      number(o.waterfalls, tools::kNonNegative);
    } else if (arg == "--width") {
      number(o.width, tools::kAtLeastOne);
    } else if (arg == "--min-series") {
      number(o.min_series, tools::kNonNegative);
    } else if (arg == "--min-layers") {
      number(o.min_layers, tools::kNonNegative);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (o.dir.empty()) {
      o.dir = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (o.dir.empty()) usage(argv[0]);
  return o;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Collects validation failures; empty == pass.
struct Checker {
  std::vector<std::string> problems;
  void fail(std::string what) { problems.push_back(std::move(what)); }
};

/// Loads `name` from the artifact dir and parses it as JSON. Returns nullopt
/// (recording the failure) when the file is missing or malformed.
std::optional<util::JsonValue> load_json(const Options& o, const char* name, Checker& check) {
  const std::string path = o.dir + "/" + name;
  const auto text = read_file(path);
  if (!text) {
    check.fail(std::string(name) + ": cannot read " + path);
    return std::nullopt;
  }
  util::JsonParseError error;
  auto doc = util::parse_json(*text, &error);
  if (!doc) {
    check.fail(std::string(name) + ": JSON parse error at byte " + std::to_string(error.offset) +
               ": " + error.message);
    return std::nullopt;
  }
  return doc;
}

std::string layer_of(const std::string& series) {
  const auto dot = series.find('.');
  return dot == std::string::npos ? series : series.substr(0, dot);
}

// --- metrics.json -----------------------------------------------------------

void check_metrics(const util::JsonValue& doc, const Options& o, Checker& check,
                   std::set<std::string>* layers_out) {
  if (!doc.is_object()) {
    check.fail("metrics.json: top level is not an object");
    return;
  }
  std::size_t series = 0;
  std::set<std::string> layers;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const util::JsonValue* group = doc.find(section);
    if (group == nullptr || !group->is_object()) {
      check.fail(std::string("metrics.json: missing object \"") + section + "\"");
      continue;
    }
    const bool is_hist = std::string(section) == "histograms";
    for (const auto& [name, value] : group->as_object()) {
      ++series;
      layers.insert(layer_of(name));
      if (is_hist && value.is_object()) {
        // An empty histogram must export count only — quantiles computed from
        // zero samples would be fabricated data (and 0-filled ones poison
        // downstream aggregation).
        const double count = value.number_or("count", 0.0);
        if (count == 0.0) {
          for (const char* q : {"mean", "min", "max", "sum", "p50", "p90", "p99"}) {
            if (value.find(q) != nullptr) {
              check.fail("metrics.json: histogram \"" + name + "\" has count=0 but carries \"" +
                         q + "\" (quantiles without samples)");
              break;
            }
          }
        }
      }
    }
  }
  const double declared = doc.number_or("series_count", -1.0);
  if (declared != static_cast<double>(series)) {
    check.fail("metrics.json: series_count=" + std::to_string(declared) +
               " disagrees with actual " + std::to_string(series));
  }
  if (series < o.min_series) {
    check.fail("metrics.json: only " + std::to_string(series) + " series (need >= " +
               std::to_string(o.min_series) + ")");
  }
  if (layers.size() < o.min_layers) {
    std::string got;
    for (const auto& l : layers) got += (got.empty() ? "" : ",") + l;
    check.fail("metrics.json: only " + std::to_string(layers.size()) + " layer prefixes [" + got +
               "] (need >= " + std::to_string(o.min_layers) + ")");
  }
  if (layers_out) *layers_out = std::move(layers);
}

// --- resilience counters ----------------------------------------------------

/// Cross-counter accounting for the resilience engine (docs/RESILIENCE.md).
/// Only runs when the artifact carries any `resilience.*` series, so legacy
/// artifacts (engine disabled) pass unchanged. The directions below are the
/// ones that hold for ANY artifact, including runs where a page deadline
/// abandoned in-flight work:
///   * settled hedges (won + lost + cancelled) never exceed launched hedges;
///   * a Range resumption only ever happens on a retry;
///   * entries can only settle through a primary or a hedge dispatch;
///   * breaker transitions chain closed <= half_opened <= opened.
void check_resilience(const util::JsonValue& doc, Checker& check) {
  const util::JsonValue* counters = doc.find("counters");
  if (counters == nullptr || !counters->is_object()) return;  // reported by check_metrics
  bool any = false;
  for (const auto& [name, value] : counters->as_object()) {
    (void)value;
    if (name.rfind("resilience.", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  auto c = [&](const char* name) { return counters->number_or(name, 0.0); };

  const double launched = c("resilience.hedges_launched");
  const double settled = c("resilience.hedges_won") + c("resilience.hedges_lost") +
                         c("resilience.hedges_cancelled");
  if (settled > launched) {
    check.fail("metrics.json: resilience hedge accounting: " + std::to_string(settled) +
               " settles (won+lost+cancelled) exceed " + std::to_string(launched) +
               " launches (a hedge settled twice)");
  }
  if (c("resilience.resumed_requests") > c("resilience.retries")) {
    check.fail("metrics.json: resilience.resumed_requests=" +
               std::to_string(c("resilience.resumed_requests")) + " exceeds resilience.retries=" +
               std::to_string(c("resilience.retries")) + " (resumption without a retry)");
  }
  const double submitted = c("http.entries_submitted");
  const double finished = c("http.entries_completed") + c("http.entries_failed");
  if (finished > submitted + launched) {
    check.fail("metrics.json: entry conservation: completed+failed=" + std::to_string(finished) +
               " exceeds submitted+hedges_launched=" + std::to_string(submitted + launched));
  }
  const double opened = c("resilience.breaker.opened");
  const double half_opened = c("resilience.breaker.half_opened");
  const double closed = c("resilience.breaker.closed");
  if (half_opened > opened || closed > half_opened) {
    check.fail("metrics.json: breaker transition chain violated: opened=" +
               std::to_string(opened) + " half_opened=" + std::to_string(half_opened) +
               " closed=" + std::to_string(closed) + " (need closed <= half_opened <= opened)");
  }
}

// --- waterfalls.json --------------------------------------------------------

obs::WaterfallEntry entry_from_json(const util::JsonValue& e) {
  obs::WaterfallEntry out;
  out.url = e.string_or("url", "");
  out.domain = e.string_or("domain", "");
  out.type = e.string_or("type", "");
  out.protocol = e.string_or("protocol", "");
  out.connection_id = static_cast<std::uint64_t>(e.number_or("connection_id", 0));
  out.attempts = static_cast<int>(e.number_or("attempts", 1));
  out.from_cache = e.bool_or("from_cache", false);
  out.reused_connection = e.bool_or("reused_connection", false);
  out.resumed = e.bool_or("resumed", false);
  out.failed = e.bool_or("failed", false);
  out.start_ms = e.number_or("start_ms", 0.0);
  out.resource_id = static_cast<std::int64_t>(e.number_or("resource_id", -1));
  out.initiator_index = static_cast<std::int64_t>(e.number_or("initiator_index", -1));
  if (const util::JsonValue* stalls = e.find("stalls_ms"); stalls != nullptr) {
    out.hol_stall_ms = stalls->number_or("hol_stall", 0.0);
    out.retx_wait_ms = stalls->number_or("retx_wait", 0.0);
  }
  if (const util::JsonValue* phases = e.find("phases_ms"); phases != nullptr) {
    out.dns_ms = phases->number_or("dns", 0.0);
    out.blocked_ms = phases->number_or("blocked", 0.0);
    out.connect_ms = phases->number_or("connect", 0.0);
    out.send_ms = phases->number_or("send", 0.0);
    out.wait_ms = phases->number_or("wait", 0.0);
    out.receive_ms = phases->number_or("receive", 0.0);
  }
  out.response_bytes = static_cast<std::uint64_t>(e.number_or("response_bytes", 0));
  out.annotation = e.string_or("annotation", "");
  if (const util::JsonValue* hops = e.find("upstream_hops"); hops != nullptr && hops->is_array()) {
    for (const auto& h : hops->as_array()) {
      obs::UpstreamHop hop;
      hop.tier = h.string_or("tier", "");
      hop.protocol = h.string_or("protocol", "");
      hop.cache_hit = h.bool_or("cache_hit", false);
      hop.reused_connection = h.bool_or("reused_connection", false);
      hop.resumed = h.bool_or("resumed", false);
      hop.failed = h.bool_or("failed", false);
      if (const util::JsonValue* phases = h.find("phases_ms"); phases != nullptr) {
        hop.dns_ms = phases->number_or("dns", 0.0);
        hop.blocked_ms = phases->number_or("blocked", 0.0);
        hop.connect_ms = phases->number_or("connect", 0.0);
        hop.send_ms = phases->number_or("send", 0.0);
        hop.wait_ms = phases->number_or("wait", 0.0);
        hop.receive_ms = phases->number_or("receive", 0.0);
      }
      if (const util::JsonValue* stalls = h.find("stalls_ms"); stalls != nullptr) {
        hop.hol_stall_ms = stalls->number_or("hol_stall", 0.0);
        hop.retx_wait_ms = stalls->number_or("retx_wait", 0.0);
      }
      out.upstream_hops.push_back(std::move(hop));
    }
  }
  return out;
}

obs::Waterfall waterfall_from_json(const util::JsonValue& w) {
  obs::Waterfall out;
  out.site = w.string_or("site", "");
  out.vantage = w.string_or("vantage", "");
  out.h3_enabled = w.bool_or("h3_enabled", false);
  out.page_load_time_ms = w.number_or("page_load_time_ms", 0.0);
  if (const util::JsonValue* pool = w.find("pool"); pool != nullptr) {
    out.connections_created = static_cast<std::uint64_t>(pool->number_or("connections_created", 0));
    out.connection_deaths = static_cast<std::uint64_t>(pool->number_or("connection_deaths", 0));
    out.h3_fallbacks = static_cast<std::uint64_t>(pool->number_or("h3_fallbacks", 0));
    out.requests_rescued = static_cast<std::uint64_t>(pool->number_or("requests_rescued", 0));
    out.requests_failed = static_cast<std::uint64_t>(pool->number_or("requests_failed", 0));
  }
  if (const util::JsonValue* entries = w.find("entries"); entries && entries->is_array()) {
    for (const auto& e : entries->as_array()) out.entries.push_back(entry_from_json(e));
  }
  return out;
}

std::vector<obs::Waterfall> waterfalls_from_json(const util::JsonValue& doc, Checker& check) {
  std::vector<obs::Waterfall> out;
  const util::JsonValue* list = doc.find("waterfalls");
  if (list == nullptr || !list->is_array()) {
    check.fail("waterfalls.json: missing \"waterfalls\" array");
    return out;
  }
  out.reserve(list->as_array().size());
  for (const auto& w : list->as_array()) out.push_back(waterfall_from_json(w));
  return out;
}

void check_waterfalls(const util::JsonValue& doc, Checker& check) {
  const util::JsonValue* list = doc.find("waterfalls");
  if (list == nullptr || !list->is_array()) return;  // reported by the loader
  std::size_t index = 0;
  for (const auto& w : list->as_array()) {
    const util::JsonValue* entries = w.find("entries");
    if (entries == nullptr || !entries->is_array()) {
      check.fail("waterfalls.json: page " + std::to_string(index) + " has no entries array");
      ++index;
      continue;
    }
    std::size_t ei = 0;
    for (const auto& e : entries->as_array()) {
      // Core invariant: the exported total equals the phase sum, so any
      // downstream consumer can decompose a bar without residual slack.
      const obs::WaterfallEntry entry = entry_from_json(e);
      const double declared = e.number_or("total_ms", -1.0);
      if (std::fabs(declared - entry.total_ms()) > 1e-6) {
        check.fail("waterfalls.json: page " + std::to_string(index) + " entry " +
                   std::to_string(ei) + " (" + entry.url + "): phases sum to " +
                   std::to_string(entry.total_ms()) + " ms but total_ms=" +
                   std::to_string(declared));
      }
      // Chained entries repeat the contract per relay hop: each exported
      // hop's total equals its own phase sum.
      if (const util::JsonValue* hops = e.find("upstream_hops");
          hops != nullptr && hops->is_array()) {
        std::size_t hi = 0;
        for (const auto& h : hops->as_array()) {
          if (hi >= entry.upstream_hops.size()) break;
          const obs::UpstreamHop& hop = entry.upstream_hops[hi];
          const double hop_declared = h.number_or("total_ms", -1.0);
          if (std::fabs(hop_declared - hop.total_ms()) > 1e-6) {
            check.fail("waterfalls.json: page " + std::to_string(index) + " entry " +
                       std::to_string(ei) + " hop " + std::to_string(hi) + " (" + hop.tier +
                       "): hop phases sum to " + std::to_string(hop.total_ms()) +
                       " ms but total_ms=" + std::to_string(hop_declared));
          }
          ++hi;
        }
      }
      ++ei;
    }
    ++index;
  }
}

// --- per-hop attribution (multi-hop topology, docs/TOPOLOGY.md) -------------

/// Recomputes the critical-path dissection from the waterfall artifact and
/// validates the per-hop contract: for every page whose entries carry
/// upstream_hops, the hop-sliced phase vectors must re-aggregate to the
/// end-to-end dissection phase-for-phase within 1 µs, and the end-to-end
/// dissection itself must still sum to the PLT.
void check_hop_attribution(const std::vector<obs::Waterfall>& pages, Checker& check) {
  std::size_t chained_pages = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    bool chained = false;
    for (const auto& e : pages[i].entries) chained |= !e.upstream_hops.empty();
    if (!chained) continue;
    ++chained_pages;
    const obs::CriticalPathResult cp = obs::analyze_critical_path(pages[i]);
    const std::string where =
        "waterfalls.json: page " + std::to_string(i) + " (" + pages[i].site + ")";
    if (std::fabs(cp.phases.sum() - cp.plt_ms) > 1e-3) {
      check.fail(where + ": chained dissection sums to " + std::to_string(cp.phases.sum()) +
                 " ms but PLT is " + std::to_string(cp.plt_ms));
    }
    if (cp.by_hop.empty()) continue;  // chain never on the critical path
    obs::PhaseVector reagg;
    for (const auto& hop : cp.by_hop) reagg += hop;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const double residual_us = std::fabs(reagg.ms[p] - cp.phases.ms[p]) * 1e3;
      if (residual_us > 1.0) {
        check.fail(where + ": hop slices of phase " + std::to_string(p) + " re-aggregate to " +
                   std::to_string(reagg.ms[p]) + " ms but the e2e dissection carries " +
                   std::to_string(cp.phases.ms[p]) + " ms (residual " +
                   std::to_string(residual_us) + " us > 1)");
        break;
      }
    }
  }
  (void)chained_pages;
}

// --- attribution.json -------------------------------------------------------

/// The attribution engine's contract is exact additivity: every phase vector
/// tiles [0, PLT] with no residual, so the exported phases must sum to the
/// exported PLT within 1 µs (and diff deltas to the PLT delta within 2 µs —
/// one rounding grain per side of the subtraction).
void check_attribution(const util::JsonValue& doc, Checker& check) {
  const util::JsonValue* root = doc.find("attribution");
  if (root == nullptr || !root->is_object()) {
    check.fail("attribution.json: missing \"attribution\" object");
    return;
  }
  auto sum_phases = [&](const util::JsonValue& obj, const char* key, const std::string& where,
                        double* out) {
    const util::JsonValue* phases = obj.find(key);
    if (phases == nullptr || !phases->is_object()) {
      check.fail("attribution.json: " + where + " has no \"" + key + "\" object");
      return false;
    }
    double sum = 0.0;
    std::size_t keys = 0;
    for (const auto& [name, v] : phases->as_object()) {
      (void)name;
      sum += v.is_number() ? v.as_number() : 0.0;
      ++keys;
    }
    if (keys != obs::kPhaseCount) {
      check.fail("attribution.json: " + where + " \"" + key + "\" has " + std::to_string(keys) +
                 " phases (expected " + std::to_string(obs::kPhaseCount) + ")");
    }
    *out = sum;
    return true;
  };
  const util::JsonValue* pages = root->find("pages");
  if (pages == nullptr || !pages->is_array()) {
    check.fail("attribution.json: missing \"pages\" array");
  } else {
    std::size_t i = 0;
    for (const auto& p : pages->as_array()) {
      const std::string where = "page " + std::to_string(i) + " (" + p.string_or("site", "?") + ")";
      double sum = 0.0;
      if (sum_phases(p, "phases_ms", where, &sum)) {
        const double plt = p.number_or("plt_ms", -1.0);
        if (std::fabs(sum - plt) > 1e-3) {  // 1 µs, in ms
          check.fail("attribution.json: " + where + ": phases sum to " + std::to_string(sum) +
                     " ms but plt_ms=" + std::to_string(plt));
        }
      }
      ++i;
    }
  }
  const util::JsonValue* diffs = root->find("diffs");
  if (diffs != nullptr && diffs->is_array()) {
    std::size_t i = 0;
    for (const auto& d : diffs->as_array()) {
      const std::string where = "diff " + std::to_string(i) + " (" + d.string_or("site", "?") + ")";
      double sum = 0.0;
      if (sum_phases(d, "delta_ms", where, &sum)) {
        const double delta = d.number_or("plt_delta_ms", -1.0);
        if (std::fabs(sum - delta) > 2e-3) {
          check.fail("attribution.json: " + where + ": deltas sum to " + std::to_string(sum) +
                     " ms but plt_delta_ms=" + std::to_string(delta));
        }
      }
      ++i;
    }
  }
}

// --- qlog.json --------------------------------------------------------------

void check_qlog(const util::JsonValue& doc, Checker& check, std::size_t* events_out) {
  if (doc.string_or("qlog_format", "") != "JSON") {
    check.fail("qlog.json: qlog_format != \"JSON\"");
  }
  if (doc.string_or("qlog_version", "").empty()) {
    check.fail("qlog.json: missing qlog_version");
  }
  const util::JsonValue* traces = doc.find("traces");
  if (traces == nullptr || !traces->is_array()) {
    check.fail("qlog.json: missing \"traces\" array");
    return;
  }
  std::size_t events = 0;
  std::size_t index = 0;
  for (const auto& t : traces->as_array()) {
    const util::JsonValue* common = t.find("common_fields");
    if (common == nullptr || common->string_or("ODCID", "").empty()) {
      check.fail("qlog.json: trace " + std::to_string(index) + " has no common_fields.ODCID");
    }
    const util::JsonValue* trace_events = t.find("events");
    if (trace_events == nullptr || !trace_events->is_array()) {
      check.fail("qlog.json: trace " + std::to_string(index) + " has no events array");
      ++index;
      continue;
    }
    double last = -1.0;
    for (const auto& e : trace_events->as_array()) {
      ++events;
      const double at = e.number_or("time", -1.0);
      if (at < last) {
        check.fail("qlog.json: trace " + std::to_string(index) +
                   " events are not time-ordered (" + std::to_string(at) + " after " +
                   std::to_string(last) + ")");
        break;
      }
      last = at;
      if (e.string_or("name", "").empty()) {
        check.fail("qlog.json: trace " + std::to_string(index) + " has an unnamed event");
        break;
      }
    }
    ++index;
  }
  if (events_out) *events_out = events;
}

// --- timeline.json ----------------------------------------------------------

/// The timeline export contract: a positive bucket width, every series DENSE
/// over [0, span_buckets) with window starts at exact bucket multiples, and
/// the PR 4 empty-window convention — a window with count == 0 carries no
/// value or quantile fields (they would be fabricated data).
void check_timeline(const util::JsonValue& doc, Checker& check) {
  const double bucket_ms = doc.number_or("bucket_ms", 0.0);
  if (bucket_ms <= 0.0) {
    check.fail("timeline.json: bucket_ms=" + std::to_string(bucket_ms) + " (need > 0)");
    return;
  }
  const double span = doc.number_or("span_buckets", -1.0);
  const util::JsonValue* series = doc.find("series");
  if (series == nullptr || !series->is_object()) {
    check.fail("timeline.json: missing \"series\" object");
    return;
  }
  if (doc.number_or("series_count", -1.0) !=
      static_cast<double>(series->as_object().size())) {
    check.fail("timeline.json: series_count disagrees with the series object");
  }
  for (const auto& [name, s] : series->as_object()) {
    const std::string kind = s.string_or("kind", "");
    if (kind != "counter" && kind != "gauge" && kind != "histogram") {
      check.fail("timeline.json: series \"" + name + "\" has unknown kind \"" + kind + "\"");
      continue;
    }
    const util::JsonValue* points = s.find("points");
    if (points == nullptr || !points->is_array()) {
      check.fail("timeline.json: series \"" + name + "\" has no points array");
      continue;
    }
    if (static_cast<double>(points->as_array().size()) != span) {
      check.fail("timeline.json: series \"" + name + "\" has " +
                 std::to_string(points->as_array().size()) + " points (span_buckets=" +
                 std::to_string(span) + "; every series must be dense)");
      continue;
    }
    std::size_t w = 0;
    for (const auto& pt : points->as_array()) {
      const double t = pt.number_or("t_ms", -1.0);
      if (std::fabs(t - static_cast<double>(w) * bucket_ms) > 1e-6) {
        check.fail("timeline.json: series \"" + name + "\" window " + std::to_string(w) +
                   " starts at " + std::to_string(t) + " ms (expected " +
                   std::to_string(static_cast<double>(w) * bucket_ms) + ")");
        break;
      }
      if (pt.number_or("count", -1.0) == 0.0) {
        for (const char* field : {"value", "sum", "mean", "min", "max", "p50", "p90", "p99"}) {
          if (pt.find(field) != nullptr) {
            check.fail("timeline.json: series \"" + name + "\" window " + std::to_string(w) +
                       " is empty (count=0) but carries \"" + field + "\"");
            break;
          }
        }
      }
      ++w;
    }
  }
}

// --- slo.json ---------------------------------------------------------------

/// Internal consistency of every objective verdict; with --slo-strict a
/// breached objective or burn alert also fails the check.
void check_slo(const util::JsonValue& doc, const Options& o, Checker& check) {
  const util::JsonValue* objectives = doc.find("objectives");
  if (objectives == nullptr || !objectives->is_array()) {
    check.fail("slo.json: missing \"objectives\" array");
    return;
  }
  for (const auto& obj : objectives->as_array()) {
    const std::string name = obj.string_or("name", "?");
    const double windows = obj.number_or("windows", 0.0);
    const double empty = obj.number_or("empty_windows", 0.0);
    const double bad = obj.number_or("bad_windows", 0.0);
    if (empty > windows || bad > windows - empty) {
      check.fail("slo.json: objective \"" + name + "\" window accounting broken: windows=" +
                 std::to_string(windows) + " empty=" + std::to_string(empty) + " bad=" +
                 std::to_string(bad));
    }
    const bool breached = obj.bool_or("breached", false);
    const bool burn_alert = obj.bool_or("burn_alert", false);
    const bool passed = obj.bool_or("passed", false);
    if (passed == (breached || burn_alert)) {
      check.fail("slo.json: objective \"" + name + "\": passed=" +
                 std::string(passed ? "true" : "false") + " contradicts breached/burn_alert");
    }
    if (obj.bool_or("no_data", false) && (breached || burn_alert)) {
      check.fail("slo.json: objective \"" + name + "\" has no_data yet a verdict");
    }
    if (o.slo_strict && !passed) {
      check.fail("slo.json [--slo-strict]: objective \"" + name + "\" failed (" +
                 std::string(breached ? "budget breached" : "burn alert") + ", bad_fraction=" +
                 std::to_string(obj.number_or("bad_fraction", 0.0)) + ")");
    }
  }
}

void print_slo(std::ostream& os, const util::JsonValue& doc) {
  const util::JsonValue* objectives = doc.find("objectives");
  if (objectives == nullptr || !objectives->is_array()) return;
  os << "--- SLO objectives ---\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %8s %8s %8s %12s %10s %8s\n", "objective", "windows",
                "empty", "bad", "bad_frac", "max_burn", "verdict");
  os << line;
  for (const auto& obj : objectives->as_array()) {
    const char* verdict = obj.bool_or("no_data", false)    ? "no-data"
                          : obj.bool_or("passed", false)   ? "pass"
                          : obj.bool_or("breached", false) ? "BREACH"
                                                           : "BURN";
    std::snprintf(line, sizeof line, "%-28s %8.0f %8.0f %8.0f %12.3f %10.2f %8s\n",
                  obj.string_or("name", "?").c_str(), obj.number_or("windows", 0.0),
                  obj.number_or("empty_windows", 0.0), obj.number_or("bad_windows", 0.0),
                  obj.number_or("bad_fraction", 0.0), obj.number_or("max_long_burn", 0.0),
                  verdict);
    os << line;
  }
}

// --- fault_recovery.json ----------------------------------------------------

/// The MTTR contract (docs/OBSERVABILITY.md): every scenario reports a FINITE
/// mttr_ms >= 0 consistent with its scripted fault window — detection never
/// precedes the fault start by more than one bucket, recovery never precedes
/// detection, degraded windows exist exactly when a detection time does, and
/// mttr_ms == max(0, recovery_ms - fault_start_ms) for degraded cells.
void check_fault_recovery(const util::JsonValue& doc, Checker& check) {
  const double bucket_ms = doc.number_or("bucket_ms", 0.0);
  const util::JsonValue* annotations = doc.find("annotations");
  if (annotations == nullptr || !annotations->is_array()) {
    check.fail("fault_recovery.json: missing \"annotations\" array");
    return;
  }
  if (annotations->as_array().empty()) {
    check.fail("fault_recovery.json: annotations array is empty");
  }
  for (const auto& a : annotations->as_array()) {
    const std::string name = a.string_or("scenario", "?");
    const double mttr = a.number_or("mttr_ms", -1.0);
    if (!std::isfinite(mttr) || mttr < 0.0) {
      check.fail("fault_recovery.json: scenario \"" + name + "\" mttr_ms=" +
                 std::to_string(mttr) + " (must be finite and >= 0)");
      continue;
    }
    const double detection = a.number_or("detection_ms", -1.0);
    const double recovery = a.number_or("recovery_ms", -1.0);
    const double degraded = a.number_or("degraded_windows", 0.0);
    const double fault_start = a.number_or("fault_start_ms", 0.0);
    if ((degraded > 0.0) != (detection >= 0.0)) {
      check.fail("fault_recovery.json: scenario \"" + name + "\": degraded_windows=" +
                 std::to_string(degraded) + " contradicts detection_ms=" +
                 std::to_string(detection));
    }
    if (detection >= 0.0) {
      if (recovery < detection) {
        check.fail("fault_recovery.json: scenario \"" + name + "\": recovery_ms=" +
                   std::to_string(recovery) + " precedes detection_ms=" +
                   std::to_string(detection));
      }
      const double expected = std::max(0.0, recovery - fault_start);
      if (std::fabs(mttr - expected) > 1e-6) {
        check.fail("fault_recovery.json: scenario \"" + name + "\": mttr_ms=" +
                   std::to_string(mttr) + " inconsistent with recovery - fault_start = " +
                   std::to_string(expected));
      }
      if (a.bool_or("faulted", false) && detection + bucket_ms < fault_start) {
        check.fail("fault_recovery.json: scenario \"" + name + "\": detection_ms=" +
                   std::to_string(detection) + " precedes the scripted fault start " +
                   std::to_string(fault_start) + " by more than one bucket");
      }
    } else if (mttr != 0.0) {
      check.fail("fault_recovery.json: scenario \"" + name +
                 "\": no degraded window but mttr_ms=" + std::to_string(mttr) + " != 0");
    }
  }
}

// --- clusters.json (--archetypes) -------------------------------------------

/// The clustering contract (docs/OBSERVABILITY.md "Archetypes & QoE"):
/// assignments cover every page exactly once; every assignment points at an
/// exported archetype row whose `pages` equals its member count; centroid
/// phase shares sum to 1 +- 1e-9; each centroid is the mean of its members'
/// embedded feature vectors; the per-archetype H2/H3 phase diffs re-aggregate
/// (pages-weighted) to the global dissection row; and the A/B summary's delta
/// matches its own means.
void check_clusters(const util::JsonValue& doc, Checker& check) {
  const util::JsonValue* archetypes = doc.find("archetypes");
  const util::JsonValue* assignments = doc.find("assignments");
  const util::JsonValue* global = doc.find("global");
  if (archetypes == nullptr || !archetypes->is_array()) {
    check.fail("clusters.json: missing \"archetypes\" array");
    return;
  }
  if (assignments == nullptr || !assignments->is_array()) {
    check.fail("clusters.json: missing \"assignments\" array");
    return;
  }
  if (global == nullptr || !global->is_object()) {
    check.fail("clusters.json: missing \"global\" object");
    return;
  }

  // Coverage: every (vantage, probe, site) page appears exactly once and the
  // declared page count matches the assignment list.
  const std::size_t n = assignments->as_array().size();
  if (doc.number_or("pages", -1.0) != static_cast<double>(n)) {
    check.fail("clusters.json: pages=" + std::to_string(doc.number_or("pages", -1.0)) +
               " disagrees with " + std::to_string(n) + " assignments");
  }
  std::set<std::string> seen;
  std::map<long long, std::size_t> member_counts;
  std::map<long long, std::vector<double>> feature_sums;
  for (const auto& a : assignments->as_array()) {
    const std::string key = a.string_or("vantage", "?") + "/p" +
                            std::to_string(static_cast<long long>(a.number_or("probe", -1.0))) +
                            "/" + std::to_string(static_cast<long long>(a.number_or("site_index", -1.0)));
    if (!seen.insert(key).second) {
      check.fail("clusters.json: page " + key + " assigned more than once");
    }
    const long long id = static_cast<long long>(a.number_or("archetype", -999.0));
    ++member_counts[id];
    if (const util::JsonValue* features = a.find("features");
        features != nullptr && features->is_array()) {
      auto& sums = feature_sums[id];
      if (sums.size() < features->as_array().size()) {
        sums.resize(features->as_array().size(), 0.0);
      }
      std::size_t i = 0;
      for (const auto& f : features->as_array()) {
        sums[i++] += f.is_number() ? f.as_number() : 0.0;
      }
    }
  }

  auto centroid_of = [](const util::JsonValue& row) {
    std::vector<double> c;
    if (const util::JsonValue* arr = row.find("centroid"); arr != nullptr && arr->is_array()) {
      for (const auto& v : arr->as_array()) c.push_back(v.is_number() ? v.as_number() : 0.0);
    }
    return c;
  };
  // Only the first kPhaseCount dims are normalized shares; optional QoE
  // ratios appended behind --cluster-qoe ride after them unnormalized.
  auto check_share_sum = [&](const std::string& where, const std::vector<double>& c,
                             double pages) {
    if (pages <= 0.0 || c.size() < obs::kPhaseCount) return;
    double sum = 0.0;
    double mass = 0.0;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      sum += c[i];
      mass += std::fabs(c[i]);
    }
    if (mass == 0.0) return;  // degenerate all-zero rows are left unnormalized
    if (std::fabs(sum - 1.0) > 1e-9) {
      check.fail("clusters.json: " + where + " centroid shares sum to " + std::to_string(sum) +
                 " (need 1 +- 1e-9)");
    }
  };

  std::set<long long> row_ids;
  std::size_t pages_total = 0;
  for (const auto& row : archetypes->as_array()) {
    const long long id = static_cast<long long>(row.number_or("id", -999.0));
    const std::string where =
        "archetype " + std::to_string(id) + " (" + row.string_or("name", "?") + ")";
    if (!row_ids.insert(id).second) {
      check.fail("clusters.json: duplicate archetype id " + std::to_string(id));
      continue;
    }
    const double pages = row.number_or("pages", -1.0);
    if (pages > 0.0) pages_total += static_cast<std::size_t>(pages);
    const auto mc = member_counts.find(id);
    const double assigned = mc == member_counts.end() ? 0.0 : static_cast<double>(mc->second);
    if (pages != assigned) {
      check.fail("clusters.json: " + where + " declares pages=" + std::to_string(pages) +
                 " but " + std::to_string(assigned) + " assignments point at it");
    }
    const auto c = centroid_of(row);
    check_share_sum(where, c, pages);
    if (const auto fs = feature_sums.find(id); fs != feature_sums.end() && pages > 0.0) {
      if (fs->second.size() != c.size()) {
        check.fail("clusters.json: " + where + " centroid has " + std::to_string(c.size()) +
                   " dims but member features have " + std::to_string(fs->second.size()));
      } else {
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (std::fabs(c[i] - fs->second[i] / pages) > 1e-9) {
            check.fail("clusters.json: " + where + " centroid dim " + std::to_string(i) + " is " +
                       std::to_string(c[i]) + " but its members' mean is " +
                       std::to_string(fs->second[i] / pages));
            break;
          }
        }
      }
    }
  }
  for (const auto& [id, count] : member_counts) {
    if (row_ids.find(id) == row_ids.end()) {
      check.fail("clusters.json: " + std::to_string(count) +
                 " assignments reference archetype " + std::to_string(id) +
                 " but no such row exists");
    }
  }
  if (pages_total != n) {
    check.fail("clusters.json: archetype rows cover " + std::to_string(pages_total) +
               " pages but there are " + std::to_string(n) + " assignments");
  }
  const double global_pages = global->number_or("pages", -1.0);
  if (global_pages != static_cast<double>(n)) {
    check.fail("clusters.json: global.pages=" + std::to_string(global_pages) +
               " disagrees with " + std::to_string(n) + " assignments");
  }
  check_share_sum("global", centroid_of(*global), global_pages);

  // Re-aggregation: the pages-weighted per-archetype phase diffs must equal
  // the global dissection (the archetype split loses no PLT-delta mass).
  const auto agg_tol = [](double want) { return 1e-6 * std::max(1.0, std::fabs(want)); };
  const util::JsonValue* global_delta = global->find("mean_delta_ms");
  if (global_delta == nullptr || !global_delta->is_object()) {
    check.fail("clusters.json: global row has no mean_delta_ms object");
  } else {
    for (const auto& [phase, gv] : global_delta->as_object()) {
      double sum = 0.0;
      for (const auto& row : archetypes->as_array()) {
        const util::JsonValue* d = row.find("mean_delta_ms");
        sum += row.number_or("pages", 0.0) * (d != nullptr ? d->number_or(phase.c_str(), 0.0) : 0.0);
      }
      const double want = global_pages * (gv.is_number() ? gv.as_number() : 0.0);
      if (std::fabs(sum - want) > agg_tol(want)) {
        check.fail("clusters.json: phase \"" + phase + "\" diffs re-aggregate to " +
                   std::to_string(sum) + " page-ms but the global dissection carries " +
                   std::to_string(want));
      }
    }
  }
  double plt_sum = 0.0;
  for (const auto& row : archetypes->as_array()) {
    plt_sum += row.number_or("pages", 0.0) * row.number_or("mean_plt_delta_ms", 0.0);
  }
  const double plt_want = global_pages * global->number_or("mean_plt_delta_ms", 0.0);
  if (std::fabs(plt_sum - plt_want) > agg_tol(plt_want)) {
    check.fail("clusters.json: PLT diffs re-aggregate to " + std::to_string(plt_sum) +
               " page-ms but the global dissection carries " + std::to_string(plt_want));
  }

  // A/B summary consistency (present whenever the sub-experiment ran).
  if (const util::JsonValue* ab = doc.find("ab"); ab != nullptr && ab->is_object()) {
    const double pairs = ab->number_or("pairs", 0.0);
    if (pairs > 0.0) {
      if (pairs != static_cast<double>(n)) {
        check.fail("clusters.json: ab.pairs=" + std::to_string(pairs) + " but " +
                   std::to_string(n) + " pages were clustered");
      }
      const double delta =
          ab->number_or("global_mean_plt_ms", 0.0) - ab->number_or("conditioned_mean_plt_ms", 0.0);
      if (std::fabs(delta - ab->number_or("mean_delta_ms", 0.0)) > 1e-6) {
        check.fail("clusters.json: ab.mean_delta_ms=" +
                   std::to_string(ab->number_or("mean_delta_ms", 0.0)) +
                   " disagrees with global - conditioned = " + std::to_string(delta));
      }
    }
  }
}

void print_archetypes(std::ostream& os, const util::JsonValue& doc) {
  os << "--- Workload archetypes ---\n";
  os << "algo " << doc.string_or("algo", "?");
  if (doc.string_or("algo", "") == "dbscan") {
    os << " (eps " << doc.number_or("eps_used", 0.0) << ")";
  } else {
    os << " (k " << doc.number_or("chosen_k", 0.0) << ", silhouette "
       << doc.number_or("silhouette", 0.0) << ")";
  }
  os << ": " << doc.number_or("cluster_count", 0.0) << " clusters over "
     << doc.number_or("pages", 0.0) << " pages\n";
  char line[256];
  std::snprintf(line, sizeof line, "%4s %-18s %6s %10s %10s %9s %10s %10s  %s\n", "id", "name",
                "pages", "h2 plt", "h3 plt", "dPLT", "h2 fcp", "h3 fcp", "dominant delta");
  os << line;
  const auto row_line = [&](const util::JsonValue& row) {
    std::string dominant = "-";
    if (const util::JsonValue* d = row.find("mean_delta_ms"); d != nullptr && d->is_object()) {
      double best = 0.0;
      for (const auto& [phase, v] : d->as_object()) {
        const double value = v.is_number() ? v.as_number() : 0.0;
        if (std::fabs(value) > std::fabs(best)) {
          best = value;
          dominant = phase;
        }
      }
      if (dominant != "-") {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s %+.1f ms", dominant.c_str(), best);
        dominant = buf;
      }
    }
    std::snprintf(line, sizeof line, "%4.0f %-18s %6.0f %10.2f %10.2f %9.2f %10.2f %10.2f  %s\n",
                  row.number_or("id", -1.0), row.string_or("name", "?").c_str(),
                  row.number_or("pages", 0.0), row.number_or("mean_h2_plt_ms", 0.0),
                  row.number_or("mean_h3_plt_ms", 0.0), row.number_or("mean_plt_delta_ms", 0.0),
                  row.number_or("mean_h2_fcp_ms", 0.0), row.number_or("mean_h3_fcp_ms", 0.0),
                  dominant.c_str());
    os << line;
  };
  if (const util::JsonValue* global = doc.find("global"); global != nullptr && global->is_object()) {
    row_line(*global);
  }
  if (const util::JsonValue* rows = doc.find("archetypes"); rows != nullptr && rows->is_array()) {
    for (const auto& row : rows->as_array()) row_line(row);
  }
  if (const util::JsonValue* ab = doc.find("ab");
      ab != nullptr && ab->is_object() && ab->number_or("pairs", 0.0) > 0.0) {
    std::snprintf(line, sizeof line,
                  "\nSelector A/B over %.0f pairs: global %.2f ms, archetype-conditioned %.2f ms "
                  "(delta %+.2f ms, oracle %.2f ms)\n",
                  ab->number_or("pairs", 0.0), ab->number_or("global_mean_plt_ms", 0.0),
                  ab->number_or("conditioned_mean_plt_ms", 0.0), ab->number_or("mean_delta_ms", 0.0),
                  ab->number_or("oracle_mean_plt_ms", 0.0));
    os << line;
  }
}

// --- --timeline rendering ---------------------------------------------------

/// Ten-level ASCII sparkline of one window series, scaled to its own max.
std::string sparkline(const std::vector<double>& values) {
  static const char kGlyphs[] = " .:-=+*#%@";
  double max = 0.0;
  for (const double v : values) max = std::max(max, v);
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    if (max <= 0.0 || v <= 0.0) {
      out += kGlyphs[0];
    } else {
      const int level = 1 + static_cast<int>(v / max * 8.999);
      out += kGlyphs[std::min(level, 9)];
    }
  }
  return out;
}

void print_timeline(std::ostream& os, const util::JsonValue& doc,
                    const util::JsonValue* fault_recovery) {
  const double bucket_ms = doc.number_or("bucket_ms", 0.0);
  const double span = doc.number_or("span_buckets", 0.0);
  const util::JsonValue* series = doc.find("series");
  os << "Timeline: bucket " << bucket_ms << " ms, " << span << " windows, "
     << doc.number_or("series_count", 0.0) << " series\n";
  if (series == nullptr || !series->is_object() || span <= 0.0) return;
  const std::size_t windows = static_cast<std::size_t>(span);

  char head[256];
  std::snprintf(head, sizeof head, "%-36s %9s  ", "series", "peak");
  os << head << "|0 ms ... " << (span * bucket_ms) << " ms|\n";
  for (const auto& [name, s] : series->as_object()) {
    const util::JsonValue* points = s.find("points");
    if (points == nullptr || !points->is_array()) continue;
    const std::string kind = s.string_or("kind", "");
    std::vector<double> values;
    values.reserve(windows);
    for (const auto& pt : points->as_array()) {
      // Counter: increments per window. Gauge: last value. Histogram: p99.
      if (kind == "gauge") {
        values.push_back(pt.number_or("value", 0.0));
      } else if (kind == "histogram") {
        values.push_back(pt.number_or("p99", 0.0));
      } else {
        values.push_back(pt.number_or("count", 0.0));
      }
    }
    double peak = 0.0;
    for (const double v : values) peak = std::max(peak, v);
    if (peak <= 0.0) continue;  // all-quiet series add nothing to the picture
    char line[512];
    std::snprintf(line, sizeof line, "%-36s %9.4g  ", name.c_str(), peak);
    os << line << sparkline(values) << "\n";
  }

  // Fault markers: one row per annotated scenario. F = scripted fault start,
  // D = first degraded window, R = recovery instant.
  if (fault_recovery == nullptr) return;
  const util::JsonValue* annotations = fault_recovery->find("annotations");
  if (annotations == nullptr || !annotations->is_array() || bucket_ms <= 0.0) return;
  os << "\nFault markers (F fault start, D detection, R recovery):\n";
  for (const auto& a : annotations->as_array()) {
    std::string row(windows, '.');
    const auto mark = [&](double at_ms, char glyph) {
      if (at_ms < 0.0) return;
      std::size_t w = static_cast<std::size_t>(at_ms / bucket_ms);
      if (w >= windows) w = windows - 1;
      row[w] = row[w] == '.' ? glyph : '*';  // '*' marks collisions
    };
    if (a.bool_or("faulted", false)) mark(a.number_or("fault_start_ms", -1.0), 'F');
    mark(a.number_or("detection_ms", -1.0), 'D');
    mark(a.number_or("recovery_ms", -1.0), 'R');
    char line[512];
    std::snprintf(line, sizeof line, "%-36s %9s  ", a.string_or("scenario", "?").c_str(),
                  (std::to_string(static_cast<long long>(a.number_or("mttr_ms", 0.0))) + "ms")
                      .c_str());
    os << line << row << "\n";
  }
}

// --- human-readable summary -------------------------------------------------

void print_metrics(std::ostream& os, const util::JsonValue& doc) {
  char line[256];
  if (const util::JsonValue* counters = doc.find("counters");
      counters != nullptr && counters->is_object()) {
    os << "--- Counters ---\n";
    for (const auto& [name, v] : counters->as_object()) {
      std::snprintf(line, sizeof line, "%-44s %14.0f\n", name.c_str(),
                    v.is_number() ? v.as_number() : 0.0);
      os << line;
    }
  }
  if (const util::JsonValue* gauges = doc.find("gauges");
      gauges != nullptr && gauges->is_object() && !gauges->as_object().empty()) {
    os << "\n--- Gauges ---\n";
    for (const auto& [name, v] : gauges->as_object()) {
      std::snprintf(line, sizeof line, "%-44s %14.3f\n", name.c_str(),
                    v.is_number() ? v.as_number() : 0.0);
      os << line;
    }
  }
  if (const util::JsonValue* hists = doc.find("histograms");
      hists != nullptr && hists->is_object()) {
    os << "\n--- Histograms ---\n";
    std::snprintf(line, sizeof line, "%-40s %8s %10s %10s %10s %10s %10s\n", "name", "count",
                  "mean", "p50", "p90", "p99", "max");
    os << line;
    for (const auto& [name, h] : hists->as_object()) {
      std::snprintf(line, sizeof line, "%-40s %8.0f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                    name.c_str(), h.number_or("count", 0), h.number_or("mean", 0),
                    h.number_or("p50", 0), h.number_or("p90", 0), h.number_or("p99", 0),
                    h.number_or("max", 0));
      os << line;
    }
  }
}

void print_profile(std::ostream& os, const util::JsonValue& doc) {
  const util::JsonValue* phases = doc.find("phases");
  if (phases == nullptr || !phases->is_object() || phases->as_object().empty()) return;
  char line[256];
  os << "\n--- Wall-clock profile ---\n";
  std::snprintf(line, sizeof line, "%-28s %10s %12s %10s %10s\n", "phase", "calls", "total ms",
                "mean us", "max us");
  os << line;
  for (const auto& [name, p] : phases->as_object()) {
    std::snprintf(line, sizeof line, "%-28s %10.0f %12.2f %10.2f %10.2f\n", name.c_str(),
                  p.number_or("calls", 0), p.number_or("total_ms", 0), p.number_or("mean_us", 0),
                  p.number_or("max_us", 0));
    os << line;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  Checker check;

  if (o.archetypes) {
    // Archetype mode: clusters.json is written only by --experiment clusters,
    // so it is loaded and validated here rather than joining the default
    // artifact list (a plain --check on a non-clusters run stays unaffected).
    const auto clusters_doc = load_json(o, "clusters.json", check);
    if (clusters_doc) check_clusters(*clusters_doc, check);
    if (!check.problems.empty()) {
      for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
      return 1;
    }
    if (o.check) {
      std::cout << "OK: clusters.json: " << clusters_doc->number_or("pages", 0.0)
                << " pages across " << clusters_doc->number_or("cluster_count", 0.0)
                << " archetypes (algo " << clusters_doc->string_or("algo", "?")
                << "); coverage, centroid, re-aggregation, and A/B invariants hold\n";
    } else {
      print_archetypes(std::cout, *clusters_doc);
    }
    return 0;
  }

  if (o.timeline && !o.check) {
    // Timeline mode: sparklines straight from the artifacts; the fault
    // markers only appear for runs (chaos) that wrote fault_recovery.json.
    const auto timeline_doc = load_json(o, "timeline.json", check);
    if (!timeline_doc) {
      for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
      return 1;
    }
    std::optional<util::JsonValue> fault_doc;
    if (read_file(o.dir + "/fault_recovery.json")) {
      fault_doc = load_json(o, "fault_recovery.json", check);
    }
    print_timeline(std::cout, *timeline_doc, fault_doc ? &*fault_doc : nullptr);
    if (!check.problems.empty()) {
      for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
      return 1;
    }
    return 0;
  }

  if (o.attribution && !o.check) {
    // Attribution mode: recompute the critical-path breakdown from the
    // waterfall artifact (the ground truth) and render it.
    const auto waterfalls_doc = load_json(o, "waterfalls.json", check);
    if (!waterfalls_doc) {
      for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
      return 1;
    }
    const auto pages = waterfalls_from_json(*waterfalls_doc, check);
    const auto report = obs::attribute_pages(pages);
    if (o.json) {
      std::cout << obs::attribution_to_json(report);
    } else {
      std::cout << obs::attribution_to_ascii(report, o.width);
    }
    if (!check.problems.empty()) {
      for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
      return 1;
    }
    return 0;
  }

  const auto metrics = load_json(o, "metrics.json", check);
  const auto waterfalls_doc = load_json(o, "waterfalls.json", check);
  const auto attribution_doc = load_json(o, "attribution.json", check);
  const auto qlog = load_json(o, "qlog.json", check);
  const auto profile = load_json(o, "profile.json", check);
  const auto timeline_doc = load_json(o, "timeline.json", check);
  const auto slo_doc = load_json(o, "slo.json", check);
  // fault_recovery.json only exists for runs with annotated fault scenarios
  // (the chaos harness); when present it must satisfy the MTTR contract.
  std::optional<util::JsonValue> fault_doc;
  if (read_file(o.dir + "/fault_recovery.json")) {
    fault_doc = load_json(o, "fault_recovery.json", check);
  }
  // The non-JSON exports only need to exist and be non-empty.
  for (const char* name : {"metrics.csv", "metrics.prom", "timeline.csv"}) {
    const auto text = read_file(o.dir + "/" + name);
    if (!text || text->empty()) check.fail(std::string(name) + ": missing or empty");
  }

  std::set<std::string> layers;
  std::size_t qlog_events = 0;
  if (metrics) check_metrics(*metrics, o, check, &layers);
  if (metrics) check_resilience(*metrics, check);
  if (waterfalls_doc) check_waterfalls(*waterfalls_doc, check);
  if (waterfalls_doc) {
    Checker ignored;  // structural problems already reported by check_waterfalls
    check_hop_attribution(waterfalls_from_json(*waterfalls_doc, ignored), check);
  }
  if (attribution_doc) check_attribution(*attribution_doc, check);
  if (qlog) check_qlog(*qlog, check, &qlog_events);
  if (timeline_doc) check_timeline(*timeline_doc, check);
  if (slo_doc) check_slo(*slo_doc, o, check);
  if (fault_doc) check_fault_recovery(*fault_doc, check);

  if (o.check) {
    if (slo_doc) print_slo(std::cout, *slo_doc);
    if (check.problems.empty()) {
      std::cout << "OK: " << (metrics ? metrics->number_or("series_count", 0) : 0)
                << " metric series across " << layers.size() << " layers, "
                << (timeline_doc ? timeline_doc->number_or("span_buckets", 0) : 0)
                << " timeline windows, " << qlog_events << " qlog events\n";
      return 0;
    }
    for (const auto& p : check.problems) std::cerr << "FAIL: " << p << "\n";
    return 1;
  }

  std::ostream& os = std::cout;
  os << "Observability report for " << o.dir << "\n\n";
  if (metrics) print_metrics(os, *metrics);
  if (slo_doc) {
    os << "\n";
    print_slo(os, *slo_doc);
  }
  if (profile) print_profile(os, *profile);

  if (waterfalls_doc) {
    Checker ignored;
    const auto pages = waterfalls_from_json(*waterfalls_doc, ignored);
    os << "\n--- Waterfalls (" << pages.size() << " pages";
    if (pages.size() > o.waterfalls) os << ", showing first " << o.waterfalls;
    os << ") ---\n";
    for (std::size_t i = 0; i < pages.size() && i < o.waterfalls; ++i) {
      os << "\n" << obs::waterfall_to_ascii(pages[i], o.width);
    }
  }
  if (qlog) {
    os << "\nqlog: " << qlog_events << " events across ";
    const util::JsonValue* traces = qlog->find("traces");
    os << (traces && traces->is_array() ? traces->as_array().size() : 0) << " traces\n";
  }

  if (!check.problems.empty()) {
    os << "\nWARNINGS:\n";
    for (const auto& p : check.problems) os << "  " << p << "\n";
    return 1;
  }
  return 0;
}
