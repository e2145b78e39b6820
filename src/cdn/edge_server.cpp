#include "cdn/edge_server.h"

#include <algorithm>

#include "obs/metrics.h"

namespace h3cdn::cdn {

namespace {

const obs::MetricId kEdgeRequests{"cdn.edge.requests"};
const obs::MetricId kEdgeCacheHits{"cdn.edge.cache_hits"};
const obs::MetricId kEdgeCacheMisses{"cdn.edge.cache_misses"};
const obs::MetricId kEdgeQueueMs{"cdn.edge.queue_ms"};
const obs::MetricId kEdgeThinkMs{"cdn.edge.think_ms"};
const obs::MetricId kEdgeRefused{"cdn.edge.refused"};
const obs::MetricId kEdgeRefusedConnLimit{"cdn.edge.refused.conn_limit"};
const obs::MetricId kEdgeRefusedQueueFull{"cdn.edge.refused.queue_full"};
const obs::MetricId kEdgeHsAdmitted{"cdn.edge.hs_admitted"};
const obs::MetricId kEdgeHsQueueMs{"cdn.edge.hs_queue_ms"};

}  // namespace

EdgeServer::EdgeServer(const ProviderTraits& traits, util::Rng rng, std::size_t cache_capacity,
                       EdgeCapacityConfig capacity)
    : traits_(traits), rng_(rng), cache_(cache_capacity), capacity_(capacity) {
  if (capacity_.enabled) {
    cores_.assign(static_cast<std::size_t>(std::max(1, capacity_.think_cores)), TimePoint{0});
  }
}

void EdgeServer::warm(const std::string& key) {
  if (rng_.bernoulli(traits_.cache_hit_ratio)) cache_.insert(key);
}

Duration EdgeServer::think_time(const std::string& key, http::HttpVersion version,
                                TimePoint now) {
  obs::count(kEdgeRequests);
  // Draw order must not depend on the capacity model: legacy (idle-server)
  // call sites stay byte-identical.
  double service_ms = rng_.lognormal_median(to_ms(traits_.service_time_median),
                                            traits_.service_time_sigma);
  if (version == http::HttpVersion::H3) {
    // Userspace QUIC stack + per-packet crypto; see paper §VI-B.
    service_ms += to_ms(traits_.h3_extra_service) * rng_.uniform(0.6, 1.4);
  }
  double penalty_ms = 0.0;
  if (cache_.touch(key)) {
    obs::count(kEdgeCacheHits);
  } else {
    // Cache miss: fetch from the customer's origin before responding. The
    // wait is network time, so it does not occupy a worker core.
    obs::count(kEdgeCacheMisses);
    penalty_ms = to_ms(traits_.origin_fetch_penalty) * rng_.uniform(0.8, 1.5);
    cache_.insert(key);
  }
  Duration queue_wait{0};
  if (capacity_.enabled) {
    auto core = std::min_element(cores_.begin(), cores_.end());
    const TimePoint start = std::max(now, *core);
    queue_wait = start - now;
    *core = start + from_ms(service_ms);
    if (queue_wait > Duration::zero()) {
      obs::observe_ms(kEdgeQueueMs, queue_wait);
    }
  }
  const double total_ms = to_ms(queue_wait) + service_ms + penalty_ms;
  obs::observe(kEdgeThinkMs, total_ms);
  return from_ms(total_ms);
}

std::optional<Duration> EdgeServer::try_admit(TimePoint now, tls::TransportKind kind,
                                              tls::HandshakeMode mode) {
  if (!capacity_.enabled) return Duration::zero();
  while (!hs_queue_.empty() && hs_queue_.front() <= now) hs_queue_.pop_front();
  if (capacity_.max_concurrent_connections > 0 &&
      concurrent_ >= capacity_.max_concurrent_connections) {
    ++refused_conn_limit_;
    obs::count(kEdgeRefused);
    obs::count(kEdgeRefusedConnLimit);
    return std::nullopt;
  }
  if (capacity_.accept_queue_depth > 0 && hs_queue_.size() >= capacity_.accept_queue_depth) {
    ++refused_queue_full_;
    obs::count(kEdgeRefused);
    obs::count(kEdgeRefusedQueueFull);
    return std::nullopt;
  }
  Duration cpu = kind == tls::TransportKind::Quic ? capacity_.handshake_cpu_quic
                                                  : capacity_.handshake_cpu_tcp;
  if (mode != tls::HandshakeMode::Fresh) {
    cpu = Duration{static_cast<std::int64_t>(
        static_cast<double>(cpu.count()) * capacity_.resumed_handshake_discount)};
  }
  const TimePoint start = hs_queue_.empty() ? now : std::max(now, hs_queue_.back());
  const TimePoint finish = start + cpu;
  hs_queue_.push_back(finish);
  ++concurrent_;
  ++admitted_;
  obs::count(kEdgeHsAdmitted);
  if (start > now) obs::observe_ms(kEdgeHsQueueMs, start - now);
  return finish - now;
}

void EdgeServer::release_connection() {
  if (concurrent_ > 0) --concurrent_;
}

std::size_t EdgeServer::accept_backlog(TimePoint now) {
  while (!hs_queue_.empty() && hs_queue_.front() <= now) hs_queue_.pop_front();
  return hs_queue_.size();
}

std::size_t EdgeServer::busy_cores(TimePoint now) const {
  return static_cast<std::size_t>(
      std::count_if(cores_.begin(), cores_.end(), [&](TimePoint t) { return t > now; }));
}

}  // namespace h3cdn::cdn
