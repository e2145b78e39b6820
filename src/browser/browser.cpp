#include "browser/browser.h"

#include <unordered_map>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::browser {

// Chrome-style fetch priorities by resource type (0 = most urgent).
int resource_priority(web::ResourceType type) {
  switch (type) {
    case web::ResourceType::Html: return 0;
    case web::ResourceType::Css: return 1;
    case web::ResourceType::Script: return 1;
    case web::ResourceType::Font: return 2;
    case web::ResourceType::Other: return 3;
    case web::ResourceType::Image: return 4;
    case web::ResourceType::Media: return 5;
  }
  return 3;
}

struct Browser::VisitState {
  const web::WebPage* page = nullptr;
  std::unique_ptr<http::ConnectionPool> pool;
  std::function<void(PageLoadResult)> on_load;
  HarPage har;
  std::size_t expected = 0;
  std::size_t completed = 0;
  bool finished = false;
  // resources discovered by parsing the root document, in document order
  std::vector<const web::Resource*> wave0;
  // wave-1 resources keyed by the id of the wave-0 resource that reveals them
  std::unordered_map<std::uint32_t, std::vector<const web::Resource*>> wave1_triggers;
};

Browser::Browser(sim::Simulator& sim, Environment& env, tls::SessionTicketStore* tickets,
                 BrowserConfig config, util::Rng rng)
    : sim_(sim), env_(env), tickets_(tickets), config_(std::move(config)), rng_(rng),
      engine_(config_.resilience) {}

void Browser::visit(const web::WebPage& page, std::function<void(PageLoadResult)> on_load) {
  H3CDN_EXPECTS(on_load != nullptr);
  obs::ProfileScope profile("browser.visit_setup");
  auto visit = std::make_shared<VisitState>();
  visit->page = &page;
  visit->on_load = std::move(on_load);
  visit->har.site = page.site;
  visit->har.h3_enabled = config_.h3_enabled;
  visit->har.started = sim_.now();
  visit->expected = page.total_requests();

  http::PoolConfig pc;
  pc.h3_enabled = config_.h3_enabled;
  pc.allow_zero_rtt = config_.allow_zero_rtt;
  pc.protocol_hint = config_.protocol_hint;
  pc.h1_max_connections_per_origin = config_.h1_max_connections_per_origin;
  pc.session = config_.session;
  pc.transport = config_.transport;
  pc.think_time = env_.think_fn();
  pc.server_hold = env_.hold_fn();
  pc.connection_trace_factory = config_.connection_trace_factory;
  if (config_.resilience.enabled) pc.resilience = &engine_;
  visit->pool = std::make_unique<http::ConnectionPool>(sim_, pc, env_.resolver(), tickets_,
                                                       rng_.fork(page.site));
  if (config_.pool_trace) visit->pool->set_trace(config_.pool_trace);

  // Partition subresources into discovery waves and bind wave-1 resources to
  // their trigger (deterministic round-robin over wave-0 resources).
  std::vector<const web::Resource*> wave1;
  for (const auto& r : page.resources) {
    (r.discovery_wave == 0 ? visit->wave0 : wave1).push_back(&r);
  }
  if (visit->wave0.empty()) {
    visit->wave0 = std::move(wave1);  // degenerate page: all parser-discovered
    wave1.clear();
  }
  for (std::size_t i = 0; i < wave1.size(); ++i) {
    const web::Resource* trigger = visit->wave0[i % visit->wave0.size()];
    visit->wave1_triggers[trigger->id].push_back(wave1[i]);
  }

  // Fetch the root document; discovery begins when it completes.
  fetch_resource(visit, page.html, /*initiator_id=*/-1);
}

namespace {

// A response is cacheable when its headers advertise it (CDN responses carry
// public/max-age directives; dynamic first-party responses say no-cache).
bool is_cacheable(const web::Resource& resource) {
  for (const auto& [name, value] : resource.response_headers) {
    if (name != "cache-control") continue;
    if (value.find("no-cache") != std::string::npos) return false;
    if (value.find("max-age") != std::string::npos ||
        value.find("public") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Browser::fetch_resource(const std::shared_ptr<VisitState>& visit,
                             const web::Resource& resource, std::int64_t initiator_id) {
  // Repeat view: cache hits skip the network entirely.
  if (config_.http_cache_enabled && http_cache_.count(resource.url()) > 0) {
    auto self_visit = visit;
    sim_.schedule_in(usec(200), [this, self_visit, &resource, initiator_id] {
      http::EntryTimings t;
      t.started = sim_.now() - usec(200);
      t.finished = sim_.now();
      t.version = http::HttpVersion::H2;  // nominal; no network involved
      t.reused_connection = true;
      on_entry_done(self_visit, resource, initiator_id, t, /*from_cache=*/true);
    });
    return;
  }

  auto submit = [this, visit, &resource, initiator_id](Duration dns_time) {
    http::Request request;
    request.domain = resource.domain;
    request.path = resource.path;
    request.request_bytes = resource.request_bytes;
    request.response_bytes = resource.size_bytes;
    request.priority = resource_priority(resource.type);
    visit->pool->fetch(request, [this, visit, &resource, initiator_id,
                                 dns_time](const http::EntryTimings& t) {
      http::EntryTimings timings = t;
      timings.dns = dns_time;
      on_entry_done(visit, resource, initiator_id, timings);
    });
  };

  if (!config_.dns_enabled) {
    submit(Duration::zero());
    return;
  }
  const TimePoint resolve_start = sim_.now();
  env_.dns().resolve(resource.domain, [resolve_start, submit = std::move(submit)](TimePoint t) {
    submit(t - resolve_start);
  });
}

void Browser::on_entry_done(const std::shared_ptr<VisitState>& visit,
                            const web::Resource& resource, std::int64_t initiator_id,
                            const http::EntryTimings& timings, bool from_cache) {
  HarEntry entry;
  entry.resource_id = resource.id;
  entry.initiator_id = initiator_id;
  entry.url = resource.url();
  entry.domain = resource.domain;
  entry.type = resource.type;
  entry.response_bytes = resource.size_bytes;
  entry.from_cache = from_cache;
  entry.timings = timings;
  entry.response_headers = resource.response_headers;
  visit->har.entries.push_back(std::move(entry));
  ++visit->completed;
  obs::count("browser.resources_fetched");
  if (from_cache) obs::count("browser.cache_hits");
  if (timings.failed) obs::count("browser.resources_failed");
  if (config_.http_cache_enabled && !from_cache && is_cacheable(resource)) {
    http_cache_.insert(resource.url());
  }

  if (resource.id == visit->page->html.id) {
    // Root document parsed: schedule wave-0 discoveries at parser pace.
    const auto root_id = static_cast<std::int64_t>(visit->page->html.id);
    std::size_t idx = 0;
    for (const web::Resource* rp : visit->wave0) {
      ++idx;
      const Duration at = Duration{config_.parse_delay_per_resource.count() *
                                   static_cast<std::int64_t>(idx)};
      sim_.schedule_in(at,
                       [this, visit, rp, root_id] { fetch_resource(visit, *rp, root_id); });
    }
  }

  // Dependent discoveries revealed by this resource.
  auto it = visit->wave1_triggers.find(resource.id);
  if (it != visit->wave1_triggers.end()) {
    auto dependents = std::move(it->second);
    visit->wave1_triggers.erase(it);
    const auto trigger_id = static_cast<std::int64_t>(resource.id);
    for (const web::Resource* rp : dependents) {
      sim_.schedule_in(config_.wave1_discovery_delay, [this, visit, rp, trigger_id] {
        fetch_resource(visit, *rp, trigger_id);
      });
    }
  }

  maybe_finish(visit);
}

void Browser::maybe_finish(const std::shared_ptr<VisitState>& visit) {
  if (visit->finished || visit->completed < visit->expected) return;
  obs::ProfileScope profile("browser.page_assembly");
  visit->finished = true;
  visit->har.page_load_time = sim_.now() - visit->har.started;
  obs::count("browser.pages_loaded");
  obs::observe_ms("browser.page_load_ms", visit->har.page_load_time);
  const auto& ps = visit->pool->stats();
  visit->har.connections_created = ps.connections_created;
  visit->har.resumed_connections = ps.resumed_connections;
  visit->har.zero_rtt_connections = ps.zero_rtt_connections;
  visit->har.connection_deaths = ps.connection_deaths;
  visit->har.h3_fallbacks = ps.h3_fallbacks;
  visit->har.requests_rescued = ps.requests_rescued;
  visit->har.requests_failed = ps.requests_failed;

  PageLoadResult result;
  result.pool_stats = ps;
  // Terminate all connections (paper §III-B) before handing out the archive.
  visit->pool->close_all();
  result.har = std::move(visit->har);
  visit->on_load(std::move(result));
}

PageLoadResult Browser::visit_and_run(const web::WebPage& page) {
  PageLoadResult out;
  bool done = false;
  visit(page, [&](PageLoadResult r) {
    out = std::move(r);
    done = true;
  });
  sim_.run();
  H3CDN_ENSURES(done);
  return out;
}

}  // namespace h3cdn::browser
