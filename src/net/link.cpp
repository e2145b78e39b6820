#include "net/link.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::net {

namespace {

const obs::MetricId kLinkTransmit{"net.link.transmit"};
const obs::MetricId kLinkPacketsOffered{"net.link.packets_offered"};
const obs::MetricId kLinkBytesOffered{"net.link.bytes_offered"};
const obs::MetricId kLinkPacketsDropped{"net.link.packets_dropped"};
const obs::MetricId kLinkDropBernoulli{"net.link.dropped.bernoulli"};
const obs::MetricId kLinkDropBurst{"net.link.dropped.burst"};
const obs::MetricId kLinkDropOutage{"net.link.dropped.outage"};
const obs::MetricId kLinkPacketsDelivered{"net.link.packets_delivered"};
const obs::MetricId kLinkSerializationWaitMs{"net.link.serialization_wait_ms"};

// Clamp small floating-point overshoot of [0,1] (e.g. `baseline + injected`
// rate sums) but refuse NaN and genuinely out-of-range values.
double checked_loss_rate(double loss_rate) {
  H3CDN_EXPECTS(!std::isnan(loss_rate));
  H3CDN_EXPECTS(loss_rate >= -1e-6 && loss_rate <= 1.0 + 1e-6);
  return std::clamp(loss_rate, 0.0, 1.0);
}

}  // namespace

Link::Link(sim::Simulator& sim, LinkConfig config, util::Rng rng)
    : sim_(sim), config_(config), loss_rng_(rng.fork("loss")), jitter_rng_(rng.fork("jitter")) {
  config_.loss_rate = checked_loss_rate(config_.loss_rate);
  H3CDN_EXPECTS(config_.latency >= Duration::zero());
}

void Link::reseed_jitter(std::uint64_t salt) { jitter_rng_ = jitter_rng_.fork(salt); }

void Link::transmit(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless,
                    PacketClass pclass) {
  H3CDN_EXPECTS(static_cast<bool>(on_deliver));
  obs::ProfileScope profile(kLinkTransmit);
  if (const auto arrival = admit(size_bytes, lossless, pclass)) {
    sim_.schedule_at(*arrival, std::move(on_deliver));
  }
}

void Link::relay(std::size_t size_bytes, sim::EventId delivery, Link* next, bool lossless,
                 PacketClass pclass) {
  H3CDN_EXPECTS(next == nullptr || &next->sim_ == &sim_);
  obs::ProfileScope profile(kLinkTransmit);
  const auto arrival = admit(size_bytes, lossless, pclass);
  if (!arrival) {
    sim_.cancel(delivery);
  } else if (next == nullptr) {
    sim_.reschedule(delivery, *arrival);
  } else {
    sim_.schedule_at(*arrival, [next, delivery, size_bytes, lossless, pclass] {
      next->relay(size_bytes, delivery, nullptr, lossless, pclass);
    });
  }
}

std::optional<TimePoint> Link::admit(std::size_t size_bytes, bool lossless, PacketClass pclass) {
  obs::count(kLinkPacketsOffered);
  obs::count(kLinkBytesOffered, size_bytes);

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
    obs::count(kLinkPacketsDropped);
    switch (reason) {
      case DropReason::Bernoulli:
        obs::count(kLinkDropBernoulli);
        break;
      case DropReason::Burst:
        obs::count(kLinkDropBurst);
        break;
      case DropReason::Outage:
        obs::count(kLinkDropOutage);
        break;
      case DropReason::None: break;
    }
    return std::nullopt;
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
  obs::count(kLinkPacketsDelivered);
  obs::observe_ms(kLinkSerializationWaitMs, start - sim_.now());
  return arrival;
}

void Link::set_loss_rate(double loss_rate) { config_.loss_rate = checked_loss_rate(loss_rate); }

void Link::set_fault_profile(const FaultProfile& profile, util::Rng rng) {
  fault_ = std::make_unique<FaultInjector>(profile, rng);
}

}  // namespace h3cdn::net
