#include "net/link.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::net {

namespace {

// Clamp small floating-point overshoot of [0,1] (e.g. `baseline + injected`
// rate sums) but refuse NaN and genuinely out-of-range values.
double checked_loss_rate(double loss_rate) {
  H3CDN_EXPECTS(!std::isnan(loss_rate));
  H3CDN_EXPECTS(loss_rate >= -1e-6 && loss_rate <= 1.0 + 1e-6);
  return std::clamp(loss_rate, 0.0, 1.0);
}

trace::FaultKind fault_kind_of(DropReason reason) {
  switch (reason) {
    case DropReason::Bernoulli: return trace::FaultKind::Bernoulli;
    case DropReason::Burst: return trace::FaultKind::Burst;
    case DropReason::Outage: return trace::FaultKind::Outage;
    case DropReason::None: break;
  }
  return trace::FaultKind::None;
}

}  // namespace

Link::Link(sim::Simulator& sim, LinkConfig config, util::Rng rng)
    : sim_(sim), config_(config), loss_rng_(rng.fork("loss")), jitter_rng_(rng.fork("jitter")) {
  config_.loss_rate = checked_loss_rate(config_.loss_rate);
  H3CDN_EXPECTS(config_.latency >= Duration::zero());
}

void Link::reseed_jitter(std::uint64_t salt) { jitter_rng_ = jitter_rng_.fork(salt); }

void Link::transmit(std::size_t size_bytes, std::function<void()> on_deliver, bool lossless,
                    PacketClass pclass) {
  H3CDN_EXPECTS(on_deliver != nullptr);
  obs::ProfileScope profile("net.link.transmit");
  ++stats_.packets_offered;
  stats_.bytes_offered += size_bytes;
  obs::count("net.link.packets_offered");
  obs::count("net.link.bytes_offered", size_bytes);

  // Serialization: the link transmits packets back to back at bandwidth_bps.
  Duration tx_time{0};
  if (config_.bandwidth_bps > 0.0) {
    tx_time = from_sec(static_cast<double>(size_bytes) * 8.0 / config_.bandwidth_bps);
  }
  const TimePoint start = std::max(sim_.now(), next_free_);
  next_free_ = start + tx_time;

  // Drops are decided at enqueue so the RNG draw order is deterministic, but a
  // dropped packet still occupies the serializer (it left the sender). The
  // injector rules first (outages dominate, then the burst chain), then the
  // baseline Bernoulli draw — which runs whenever it did before, so a link
  // without faults replays the seed's loss realization byte for byte.
  DropReason reason = DropReason::None;
  Duration extra_delay{0};
  if (fault_) {
    const FaultInjector::Verdict verdict = fault_->apply(sim_.now(), pclass, lossless);
    reason = verdict.drop;
    extra_delay = verdict.extra_delay;
  }
  if (reason == DropReason::None && !lossless && loss_rng_.bernoulli(config_.loss_rate)) {
    reason = DropReason::Bernoulli;
  }
  if (reason != DropReason::None) {
    ++stats_.packets_dropped;
    obs::count("net.link.packets_dropped");
    switch (reason) {
      case DropReason::Bernoulli:
        ++stats_.dropped_bernoulli;
        obs::count("net.link.dropped.bernoulli");
        break;
      case DropReason::Burst:
        ++stats_.dropped_burst;
        obs::count("net.link.dropped.burst");
        break;
      case DropReason::Outage:
        ++stats_.dropped_outage;
        obs::count("net.link.dropped.outage");
        break;
      case DropReason::None: break;
    }
    if (trace_) {
      trace::Event event{sim_.now(), trace::EventType::LinkDropped};
      event.bytes = size_bytes;
      event.fault = fault_kind_of(reason);
      trace_->record(event);
    }
    return;
  }

  Duration jitter{0};
  if (config_.jitter_max > Duration::zero()) {
    jitter = Duration{jitter_rng_.uniform_int(0, config_.jitter_max.count())};
  }
  // FIFO: a store-and-forward queue cannot reorder, so jitter delays but
  // never lets a later packet overtake an earlier one. (Without this, jitter
  // fakes reordering and triggers spurious packet-threshold "losses".)
  const TimePoint arrival =
      std::max(next_free_ + config_.latency + jitter + extra_delay, last_arrival_);
  last_arrival_ = arrival;
  ++stats_.packets_delivered;
  obs::count("net.link.packets_delivered");
  obs::observe_ms("net.link.serialization_wait_ms", start - sim_.now());
  sim_.schedule_at(arrival, std::move(on_deliver));
}

void Link::set_loss_rate(double loss_rate) { config_.loss_rate = checked_loss_rate(loss_rate); }

void Link::set_fault_profile(const FaultProfile& profile, util::Rng rng) {
  fault_ = std::make_unique<FaultInjector>(profile, rng);
}

}  // namespace h3cdn::net
