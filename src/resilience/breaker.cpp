#include "resilience/breaker.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::resilience {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "?";
}

bool CircuitBreaker::allow(TimePoint now) {
  if (!config_.enabled) return true;
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (now - opened_at_ < config_.open_duration) return false;
      state_ = BreakerState::HalfOpen;
      probes_in_flight_ = 0;
      ++transitions_.half_opened;
      obs::count("resilience.breaker.half_opened", now);
      [[fallthrough]];
    case BreakerState::HalfOpen:
      if (probes_in_flight_ >= config_.half_open_probes) return false;
      ++probes_in_flight_;
      return true;
  }
  return true;
}

void CircuitBreaker::record(TimePoint now, bool success) {
  if (!config_.enabled) return;
  if (state_ == BreakerState::HalfOpen) {
    if (probes_in_flight_ > 0) --probes_in_flight_;
    if (success) {
      // A successful probe closes the breaker and forgets the bad window:
      // the edge has demonstrably recovered.
      state_ = BreakerState::Closed;
      samples_.clear();
      failures_in_window_ = 0;
      ++transitions_.closed;
      obs::count("resilience.breaker.closed", now);
    } else {
      open(now);
    }
    return;
  }
  samples_.push_back({now, success});
  if (!success) ++failures_in_window_;
  prune(now);
  if (state_ == BreakerState::Closed && samples_.size() >= config_.min_samples) {
    const double rate =
        static_cast<double>(failures_in_window_) / static_cast<double>(samples_.size());
    if (rate >= config_.failure_threshold) open(now);
  }
}

void CircuitBreaker::prune(TimePoint now) {
  while (!samples_.empty() && now - samples_.front().at > config_.window) {
    if (!samples_.front().success) {
      H3CDN_ASSERT(failures_in_window_ > 0);
      --failures_in_window_;
    }
    samples_.pop_front();
  }
}

void CircuitBreaker::open(TimePoint now) {
  state_ = BreakerState::Open;
  opened_at_ = now;
  probes_in_flight_ = 0;
  ++transitions_.opened;
  obs::count("resilience.breaker.opened", now);
}

CircuitBreaker& BreakerRegistry::get(const std::string& domain, const char* proto) {
  std::string key = domain;
  key += '|';
  key += proto;
  auto it = breakers_.find(key);
  if (it == breakers_.end()) {
    it = breakers_.emplace(std::move(key), CircuitBreaker(config_)).first;
  }
  return it->second;
}

CircuitBreaker::Transitions BreakerRegistry::total_transitions() const {
  CircuitBreaker::Transitions total;
  for (const auto& [key, b] : breakers_) {
    total.opened += b.transitions().opened;
    total.half_opened += b.transitions().half_opened;
    total.closed += b.transitions().closed;
  }
  return total;
}

}  // namespace h3cdn::resilience
