// Request-lifecycle resilience engine.
//
// One Engine lives per Browser (so breaker state and latency history persist
// across the pages of a visit) and is handed to each per-page ConnectionPool
// as a raw pointer. A null pointer — the default everywhere — means the pool
// behaves exactly as it did before this subsystem existed, which is what
// keeps the seed study byte-identical. The engine keeps no counters of its
// own: http::ConnectionPool counts each retry, hedge, resumption, deadline
// failure and breaker demotion once, into the installed registry's
// `resilience.*` series. See docs/RESILIENCE.md for the policy reference and
// the chaos harness that exercises it.
#pragma once

#include "resilience/breaker.h"
#include "resilience/hedge.h"
#include "resilience/policy.h"
#include "util/types.h"

namespace h3cdn::resilience {

struct Options {
  bool enabled = false;
  RetryPolicy retry;
  HedgePolicy hedge;
  BreakerConfig breaker;
};

class Engine {
 public:
  explicit Engine(Options options)
      : options_(options), breakers_(options.breaker), hedge_trigger_(options.hedge) {}

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] const RetryPolicy& retry() const { return options_.retry; }

  [[nodiscard]] BreakerRegistry& breakers() { return breakers_; }
  [[nodiscard]] HedgeTrigger& hedge_trigger() { return hedge_trigger_; }

 private:
  Options options_;
  BreakerRegistry breakers_;
  HedgeTrigger hedge_trigger_;
};

}  // namespace h3cdn::resilience
