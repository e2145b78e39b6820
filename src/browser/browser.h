// Page-loading browser emulator.
//
// Mirrors the measurement client of §III-B: Chrome 108 with --enable-quic on
// or off (our h3_enabled flag), separate profiles per protocol (fresh pool
// per visit), "all connections terminated and caches cleared" between visits
// (pool discarded; only the TLS session-ticket store optionally survives,
// which is exactly the state that §VI-D's consecutive-visit experiment
// exercises).
//
// Load model: fetch the root HTML; on completion, discover wave-0
// subresources at a parser-paced stagger; wave-1 resources (font/CSS chains)
// are discovered when their trigger resource finishes. onLoad (PLT) fires
// when every entry has completed.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "browser/environment.h"
#include "browser/har.h"
#include "http/pool.h"
#include "resilience/engine.h"
#include "sim/simulator.h"
#include "tls/ticket_store.h"
#include "util/rng.h"
#include "web/resource.h"

namespace h3cdn::browser {

struct BrowserConfig {
  bool h3_enabled = true;                      // Chrome's --enable-quic
  bool allow_zero_rtt = true;                  // ablation: disable 0-RTT resumption
  bool dns_enabled = true;                     // resolve names before fetching
  // Repeat-view mode (the First/Repeat distinction of Saverimoutou et al.,
  // paper ref [21]): cacheable responses persist across visits on the same
  // Browser and are served locally on later visits.
  bool http_cache_enabled = false;
  // Optional per-origin protocol override (see http::PoolConfig::protocol_hint);
  // lets an adaptive selector steer the pool.
  std::function<std::optional<http::HttpVersion>(const std::string&)> protocol_hint;
  Duration parse_delay_per_resource = usec(300);  // discovery stagger
  Duration wave1_discovery_delay = msec(2);    // after the trigger completes
  http::SessionConfig session;
  transport::TransportConfig transport;
  std::size_t h1_max_connections_per_origin = 6;
  // Request-lifecycle resilience engine (docs/RESILIENCE.md). Disabled by
  // default — the seed study measures the raw protocols. When enabled, the
  // Browser owns one engine for its lifetime (breaker state and latency
  // history persist across the visit's pages) and hands it to each per-page
  // pool.
  resilience::Options resilience;
  // Tracing label of this browser's run; empty (the default) traces nothing.
  // With a label and an installed obs::MetricsRegistry, the browser opens the
  // run's "<label>/pool" track in that registry's TraceLog and every pool
  // traces its connections there (http::PoolConfig::trace_label), so
  // packet-level and pool-level events share one qlog timeline.
  std::string trace_label;
};

struct PageLoadResult {
  HarPage har;
  http::PoolStats pool_stats;
};

class Browser {
 public:
  /// `tickets` may be null: every visit then starts with no resumption state.
  Browser(sim::Simulator& sim, Environment& env, tls::SessionTicketStore* tickets,
          BrowserConfig config, util::Rng rng);

  /// Schedules a page visit starting at the current simulated time. The
  /// callback fires at onLoad. The caller drives the simulator (sim.run()).
  void visit(const web::WebPage& page, std::function<void(PageLoadResult)> on_load);

  /// Synchronous convenience: visit + sim.run() to completion.
  PageLoadResult visit_and_run(const web::WebPage& page);

  /// Empties the HTTP cache (e.g. between First and Repeat measurements).
  void clear_http_cache() { http_cache_.clear(); }

  [[nodiscard]] std::size_t http_cache_size() const { return http_cache_.size(); }
  [[nodiscard]] const BrowserConfig& config() const { return config_; }

  /// The browser-lifetime resilience engine (meaningful when
  /// config().resilience.enabled; present either way for stats access).
  [[nodiscard]] resilience::Engine& resilience_engine() { return engine_; }

 private:
  struct VisitState;

  // `initiator_id` is the resource whose completion revealed this fetch
  // (-1 for the root document); recorded as HarEntry::initiator_id.
  void fetch_resource(const std::shared_ptr<VisitState>& visit, const web::Resource& resource,
                      std::int64_t initiator_id);
  void on_entry_done(const std::shared_ptr<VisitState>& visit, const web::Resource& resource,
                     std::int64_t initiator_id, const http::EntryTimings& timings,
                     bool from_cache = false);
  void maybe_finish(const std::shared_ptr<VisitState>& visit);

  sim::Simulator& sim_;
  Environment& env_;
  tls::SessionTicketStore* tickets_;
  BrowserConfig config_;
  util::Rng rng_;
  resilience::Engine engine_;  // per-browser: persists across page visits
  obs::TraceHandle trace_bus_;  // the run's pool track (null when untraced)
  std::unordered_set<std::string> http_cache_;  // by URL; survives visits
};

}  // namespace h3cdn::browser
