#include "topology/hop_relay.h"

#include <algorithm>

#include "cdn/provider.h"
#include "util/check.h"

namespace h3cdn::topology {

HopRelay::HopRelay(sim::Simulator& sim, const web::DomainUniverse& universe, Config config,
                   util::Rng rng)
    : sim_(sim), universe_(universe), config_(std::move(config)), rng_(rng) {
  net::LinkConfig nic;
  nic.latency = config_.nic_latency;
  nic.bandwidth_bps = config_.nic_bandwidth_bps;
  nic.loss_rate = 0.0;  // loss lives on the per-domain paths
  nic.jitter_max = Duration::zero();
  nic_up_ = std::make_unique<net::Link>(sim_, nic, rng_.fork("nic-up"));
  nic_down_ = std::make_unique<net::Link>(sim_, nic, rng_.fork("nic-down"));
  if (config_.terminal) cache_ = std::make_unique<TierCache>(config_.tier_cache_capacity);

  http::PoolConfig pc;
  pc.h3_enabled = config_.upstream_h3;
  // The plan PICKS the hop protocol; an upstream death must not silently turn
  // an h3 hop into an h2 one for the rest of the run.
  pc.h3_fallback_enabled = false;
  if (config_.terminal) {
    pc.think_time = [this](const http::Request& request, http::HttpVersion version) {
      Upstream& up = upstream(request.domain);
      H3CDN_ASSERT(up.edge != nullptr);
      return up.edge->think_time(request.domain + request.path, version, sim_.now());
    };
  }
  pool_ = std::make_unique<http::ConnectionPool>(
      sim_, pc, [this](const std::string& domain) { return upstream(domain).info; },
      &tickets_, rng_.fork("pool"));
}

HopRelay::~HopRelay() = default;

void HopRelay::set_upstream_hold(http::ServerHoldFactory factory) {
  H3CDN_EXPECTS(!config_.terminal);
  H3CDN_EXPECTS(fetches_ == 0);
  // The pool copies its config at construction; rebuild it with the gate so
  // every upstream request is routed through the next relay.
  http::PoolConfig pc;
  pc.h3_enabled = config_.upstream_h3;
  pc.h3_fallback_enabled = false;
  pc.server_hold = std::move(factory);
  pool_ = std::make_unique<http::ConnectionPool>(
      sim_, pc, [this](const std::string& domain) { return upstream(domain).info; },
      &tickets_, rng_.fork("pool"));
}

HopRelay::Upstream& HopRelay::upstream(const std::string& domain) {
  auto it = upstreams_.find(domain);
  if (it != upstreams_.end()) return it->second;

  const web::DomainInfo& dinfo = universe_.get(domain);
  const cdn::ProviderTraits& traits = cdn::ProviderRegistry::get(dinfo.provider);
  util::Rng domain_rng = rng_.fork(domain);

  Upstream up;
  net::PathConfig pc;
  pc.rtt = config_.link.rtt;
  pc.bandwidth_bps = std::min(config_.link.bandwidth_bps, traits.edge_bandwidth_bps);
  pc.loss_rate = config_.link.loss_rate;
  pc.jitter_max = config_.link.jitter_max;
  up.path = std::make_unique<net::NetPath>(sim_, pc, domain_rng.fork("path"));
  up.path->attach_access(nic_up_.get(), nic_down_.get());
  if (config_.terminal) {
    up.edge = std::make_unique<cdn::EdgeServer>(traits, domain_rng.fork("server"));
  }
  up.info.path = up.path.get();
  up.info.supports_h2 = true;
  // Per-hop protocol choice is absolute: the relay's upstream hop speaks
  // exactly what the plan says, regardless of the public DomainInfo.
  up.info.supports_h3 = config_.upstream_h3;
  up.info.tls_version = dinfo.tls_version;

  auto [ins, ok] = upstreams_.emplace(domain, std::move(up));
  H3CDN_ASSERT(ok);
  return ins->second;
}

void HopRelay::fetch(const http::Request& request, http::FetchDone done) {
  ++fetches_;
  pool_->fetch(request, std::move(done));
}

bool HopRelay::cache_lookup(const std::string& key) {
  return cache_ != nullptr && cache_->lookup(key);
}

void HopRelay::cache_fill(const std::string& key) {
  if (cache_ != nullptr) cache_->fill(key);
}

void HopRelay::warm_edge(const std::string& domain, const std::string& key) {
  if (!config_.terminal) return;
  Upstream& up = upstream(domain);
  if (up.edge != nullptr) up.edge->warm(key);
}

void HopRelay::close() { pool_->close_all(); }

}  // namespace h3cdn::topology
