#include "net/path.h"

#include "util/check.h"

namespace h3cdn::net {

NetPath::NetPath(sim::Simulator& sim, PathConfig config, util::Rng rng)
    : sim_(sim), config_(config), fault_rng_(rng.fork("fault")) {
  H3CDN_EXPECTS(config.rtt >= Duration::zero());
  LinkConfig link;
  link.latency = Duration{config.rtt.count() / 2};
  link.bandwidth_bps = config.bandwidth_bps;
  link.loss_rate = config.loss_rate;
  link.jitter_max = config.jitter_max;
  up_ = std::make_unique<Link>(sim, link, rng.fork("up"));
  // Keep total propagation equal to rtt even when rtt is odd.
  link.latency = config.rtt - link.latency;
  down_ = std::make_unique<Link>(sim, link, rng.fork("down"));
}

void NetPath::attach_access(Link* access_up, Link* access_down) {
  access_up_ = access_up;
  access_down_ = access_down;
}

void NetPath::send_up(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless,
                      PacketClass pclass) {
  if (access_up_ == nullptr) {
    up_->transmit(size_bytes, std::move(on_deliver), lossless, pclass);
    return;
  }
  // Client NIC first, then the wide-area path.
  access_up_->relay(size_bytes, sim_.park(std::move(on_deliver)), up_.get(), lossless, pclass);
}

void NetPath::send_down(std::size_t size_bytes, sim::SmallFn on_deliver, bool lossless,
                        PacketClass pclass) {
  if (access_down_ == nullptr) {
    down_->transmit(size_bytes, std::move(on_deliver), lossless, pclass);
    return;
  }
  down_->relay(size_bytes, sim_.park(std::move(on_deliver)), access_down_, lossless, pclass);
}

void NetPath::set_loss_rate(double loss_rate) {
  config_.loss_rate = loss_rate;
  up_->set_loss_rate(loss_rate);
  down_->set_loss_rate(loss_rate);
}

void NetPath::set_fault_profile(const FaultProfile& profile, util::Rng rng) {
  up_->set_fault_profile(profile, rng.fork("fault-up"));
  down_->set_fault_profile(profile, rng.fork("fault-down"));
}

void NetPath::add_outage(const Outage& outage) {
  if (up_->fault_injector() == nullptr) {
    up_->set_fault_profile(FaultProfile{}, fault_rng_.fork("fault-up"));
  }
  if (down_->fault_injector() == nullptr) {
    down_->set_fault_profile(FaultProfile{}, fault_rng_.fork("fault-down"));
  }
  up_->fault_injector()->add_outage(outage);
  down_->fault_injector()->add_outage(outage);
}

void NetPath::reseed_jitter(std::uint64_t salt) {
  up_->reseed_jitter(salt);
  down_->reseed_jitter(salt);
}

}  // namespace h3cdn::net
