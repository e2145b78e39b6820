#include "core/probe_run.h"

#include <string>
#include <utility>

#include "browser/browser.h"
#include "browser/waterfall.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "tls/ticket_store.h"
#include "util/check.h"
#include "util/rng.h"

namespace h3cdn::core {

namespace {

const obs::MetricId kWarmCaches{"study.warm_caches"};

}  // namespace

std::vector<PageVisitRecord> ProbeRunTask::run(RunObservability* sink) const {
  H3CDN_EXPECTS(config != nullptr);
  H3CDN_EXPECTS(workload != nullptr);

  // Seed derivation is identical to the sequential study loop: the root is
  // re-derived from the study seed and forked by (vantage name, probe), so a
  // shard's random stream depends only on its identity, never on which
  // thread runs it or what ran before. The H2 and H3 shards of a probe share
  // this stream on purpose — paths and environment draws pair up, so
  // reductions isolate the protocol effect.
  util::Rng root(util::derive_seed({config->seed, 0x57011dULL}));
  util::Rng probe_rng = root.fork(vantage.name).fork(static_cast<std::uint64_t>(probe));

  browser::VantageConfig shard_vantage = vantage;
  shard_vantage.loss_rate = config->loss_rate;
  // Path seeds are shared across the two modes (same probe, same geography);
  // server timing noise is independent (separate visits).
  shard_vantage.server_noise_salt = h3_enabled ? 0x113 : 0x112;

  sim::Simulator sim;
  browser::Environment env(sim, workload->universe, shard_vantage, probe_rng.fork("env"));

  // The ticket store is what survives page transitions in consecutive mode;
  // the base study clears all client state between pages. It is created
  // here, inside the shard, and dies with it: ticket (and DNS-cache) sharing
  // never crosses a shard boundary. See the affinity notes in
  // tls/ticket_store.h and dns/cache.h.
  tls::SessionTicketStore tickets;
  tls::SessionTicketStore* tickets_ptr = config->consecutive ? &tickets : nullptr;

  browser::BrowserConfig bc = config->browser;
  bc.h3_enabled = h3_enabled;

  // One shard = one Simulator, so all of its trace tracks share a monotonic
  // clock; the run's pool track puts cross-connection events (fallbacks,
  // H3-broken marks) on the same timeline as the packet tracks. The label
  // doubles as the stable per-shard connection-id prefix in the merged qlog.
  const std::string run_label =
      shard_vantage.name + "/p" + std::to_string(probe) + (h3_enabled ? "/h3" : "/h2");
  bc.trace_label = run_label;

  browser::Browser browser(sim, env, tickets_ptr, bc,
                           probe_rng.fork(h3_enabled ? "browser-h3" : "browser-h2"));
  const locedge::Classifier classifier{};

  // Fixed visiting order (§III-B): sequential over the target list.
  std::vector<PageVisitRecord> visits;
  visits.reserve(site_count);
  for (std::size_t si = 0; si < site_count; ++si) {
    const web::WebPage& page = workload->sites[si].page;
    {
      // The paper's cache-warming first visit.
      obs::ProfileScope warm_scope(kWarmCaches);
      env.warm_page(page);
    }

    browser::PageLoadResult load = browser.visit_and_run(page);

    PageVisitRecord rec;
    rec.site_index = si;
    rec.vantage = shard_vantage.name;
    rec.probe = probe;
    rec.h3_enabled = h3_enabled;
    rec.har = std::move(load.har);
    rec.metrics = analysis::compute_page_metrics(rec.har, classifier);
    if (sink != nullptr) {
      sink->add_waterfall(browser::make_waterfall(rec.har, run_label));
    }
    visits.push_back(std::move(rec));

    // Small think-time gap between consecutive page visits.
    sim.schedule_in(msec(100), [] {});
    sim.run();
  }
  return visits;
}

}  // namespace h3cdn::core
