// Request-lifecycle resilience engine.
//
// One Engine lives per Browser (so breaker state and latency history persist
// across the pages of a visit) and is handed to each per-page ConnectionPool
// as a raw pointer. A null pointer — the default everywhere — means the pool
// behaves exactly as it did before this subsystem existed, which is what
// keeps the seed study byte-identical. See docs/RESILIENCE.md for the policy
// reference and the chaos harness that exercises it.
#pragma once

#include <cstdint>
#include <string>

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

/// Cumulative counters, mirrored into `resilience.*` obs metrics by the
/// integration points (http::ConnectionPool, dns::Resolver). Kept as plain
/// fields too so chaos and test code can read them without a MetricsRegistry.
struct EngineStats {
  std::uint64_t retries = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;        // hedge copy delivered first
  std::uint64_t hedges_lost = 0;       // primary delivered first, hedge cancelled
  std::uint64_t hedges_cancelled = 0;  // hedge aborted before either finished
  std::uint64_t resumed_requests = 0;
  std::uint64_t resumed_bytes = 0;     // bytes NOT re-downloaded thanks to Range
  std::uint64_t deadline_failures = 0;
  std::uint64_t breaker_demotions = 0; // dials moved H3 -> H2 by an open breaker
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

  EngineStats stats;

 private:
  Options options_;
  BreakerRegistry breakers_;
  HedgeTrigger hedge_trigger_;
};

}  // namespace h3cdn::resilience
