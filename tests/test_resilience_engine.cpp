// Unit tests for the request-lifecycle resilience engine's building blocks
// (docs/RESILIENCE.md): RetryPolicy backoff/jitter determinism, the
// LatencyTracker/HedgeTrigger p95 hedge scheduling, and the per-edge
// CircuitBreaker state machine. Integration with the pool is covered by
// test_fallback / test_chaos.
#include "resilience/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.h"
#include "util/rng.h"

namespace h3cdn::resilience {
namespace {

// --- RetryPolicy -------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.backoff_base = msec(100);
  p.backoff_multiplier = 2.0;
  p.backoff_cap = msec(400);
  p.jitter = 0.0;
  util::Rng rng(1);
  EXPECT_EQ(p.backoff_for(1, rng), msec(100));
  EXPECT_EQ(p.backoff_for(2, rng), msec(200));
  EXPECT_EQ(p.backoff_for(3, rng), msec(400));
  EXPECT_EQ(p.backoff_for(9, rng), msec(400));  // capped, no overflow
  EXPECT_EQ(p.backoff_for(0, rng), msec(100));  // clamps to the first retry
}

TEST(RetryPolicy, JitterIsDeterministicPerSeedAndBounded) {
  RetryPolicy p;
  p.backoff_base = msec(100);
  p.jitter = 0.5;
  util::Rng a(42);
  util::Rng b(42);
  util::Rng other(43);
  bool any_differs = false;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const Duration da = p.backoff_for(attempt, a);
    const Duration db = p.backoff_for(attempt, b);
    EXPECT_EQ(da, db) << "same seed must replay the same schedule";
    // Bounds: deterministic part plus uniform extra in [0, jitter * delay).
    double det = static_cast<double>(p.backoff_base.count());
    for (int i = 1; i < attempt; ++i) det *= p.backoff_multiplier;
    det = std::min(det, static_cast<double>(p.backoff_cap.count()));
    EXPECT_GE(static_cast<double>(da.count()), det);
    EXPECT_LT(static_cast<double>(da.count()), det * (1.0 + p.jitter));
    if (p.backoff_for(attempt, other) != da) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "a different seed should draw different jitter";
}

// --- LatencyTracker / HedgeTrigger -------------------------------------------

TEST(LatencyTracker, NearestRankQuantile) {
  LatencyTracker t(8);
  for (double v : {10.0, 20.0, 30.0, 40.0}) t.observe(v);
  EXPECT_DOUBLE_EQ(t.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(t.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(t.quantile(0.75), 30.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 40.0);
}

TEST(LatencyTracker, RingEvictsOldestObservations) {
  LatencyTracker t(3);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) t.observe(v);
  EXPECT_EQ(t.size(), 3u);
  // 1 and 2 were overwritten; the retained window is {3, 4, 5}.
  EXPECT_DOUBLE_EQ(t.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 5.0);
}

TEST(HedgeTrigger, ColdStartThenClampedTailDelay) {
  HedgePolicy hp;
  hp.min_observations = 5;
  hp.quantile = 1.0;  // max of the window, for exact expectations
  hp.min_delay = msec(20);
  hp.max_delay = msec(100);
  HedgeTrigger t(hp);
  for (int i = 0; i < 4; ++i) {
    t.observe(msec(50));
    EXPECT_FALSE(t.delay().has_value()) << "cold start must not hedge";
  }
  t.observe(msec(50));
  ASSERT_TRUE(t.delay().has_value());
  EXPECT_EQ(*t.delay(), msec(50));
  // A tail observation beyond max_delay is clamped down...
  t.observe(msec(500));
  EXPECT_EQ(*t.delay(), msec(100));

  // ...and a window of tiny latencies is clamped up to min_delay.
  HedgeTrigger fast(hp);
  for (int i = 0; i < 5; ++i) fast.observe(msec(1));
  ASSERT_TRUE(fast.delay().has_value());
  EXPECT_EQ(*fast.delay(), msec(20));
}

TEST(HedgeTrigger, DisabledNeverFires) {
  HedgePolicy hp;
  hp.enabled = false;
  hp.min_observations = 1;
  HedgeTrigger t(hp);
  for (int i = 0; i < 10; ++i) t.observe(msec(50));
  EXPECT_FALSE(t.delay().has_value());
}

// --- CircuitBreaker ----------------------------------------------------------

BreakerConfig breaker_config() {
  BreakerConfig c;
  c.window = sec(10);
  c.min_samples = 4;
  c.failure_threshold = 0.5;
  c.open_duration = sec(5);
  c.half_open_probes = 1;
  return c;
}

TEST(CircuitBreaker, OpensAtThresholdOnlyPastMinSamples) {
  CircuitBreaker b(breaker_config());
  const TimePoint t{0};
  b.record(t, false);
  b.record(t, false);
  b.record(t, true);
  // 2/3 failures is past the threshold but below min_samples: stays closed.
  EXPECT_EQ(b.state(), BreakerState::Closed);
  EXPECT_TRUE(b.allow(t));
  b.record(t, false);  // 3/4 >= 0.5: opens
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_FALSE(b.allow(t));
  EXPECT_EQ(b.transitions().opened, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccessReopensOnFailure) {
  CircuitBreaker b(breaker_config());
  const TimePoint t0{0};
  for (int i = 0; i < 4; ++i) b.record(t0, false);
  ASSERT_EQ(b.state(), BreakerState::Open);
  EXPECT_FALSE(b.allow(TimePoint{sec(4)}));  // still inside open_duration

  // Past open_duration: exactly half_open_probes trial dials pass.
  const TimePoint t1{sec(5)};
  EXPECT_TRUE(b.allow(t1));
  EXPECT_EQ(b.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(b.allow(t1)) << "only one probe may be in flight";
  b.record(t1, true);  // the probe succeeds: recovered, window forgotten
  EXPECT_EQ(b.state(), BreakerState::Closed);
  EXPECT_TRUE(b.allow(t1));
  EXPECT_EQ(b.transitions().half_opened, 1u);
  EXPECT_EQ(b.transitions().closed, 1u);

  // Open it again; a failed probe re-opens instead of closing.
  for (int i = 0; i < 4; ++i) b.record(t1, false);
  ASSERT_EQ(b.state(), BreakerState::Open);
  const TimePoint t2 = t1 + sec(5);
  EXPECT_TRUE(b.allow(t2));
  b.record(t2, false);
  EXPECT_EQ(b.state(), BreakerState::Open);
  EXPECT_EQ(b.transitions().opened, 3u);
  // The transition chain invariant --check enforces on exported metrics.
  EXPECT_LE(b.transitions().closed, b.transitions().half_opened);
  EXPECT_LE(b.transitions().half_opened, b.transitions().opened);
}

TEST(CircuitBreaker, RollingWindowForgetsOldFailures) {
  CircuitBreaker b(breaker_config());
  for (int i = 0; i < 3; ++i) b.record(TimePoint{0}, false);
  // 11 s later the failures have aged out; fresh successes keep it closed.
  const TimePoint late{sec(11)};
  for (int i = 0; i < 4; ++i) b.record(late, true);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  EXPECT_EQ(b.transitions().opened, 0u);
}

TEST(CircuitBreaker, DisabledAlwaysAllows) {
  BreakerConfig c = breaker_config();
  c.enabled = false;
  CircuitBreaker b(c);
  for (int i = 0; i < 20; ++i) b.record(TimePoint{0}, false);
  EXPECT_EQ(b.state(), BreakerState::Closed);
  EXPECT_TRUE(b.allow(TimePoint{0}));
}

TEST(BreakerRegistry, KeysByDomainAndProtocolAndSumsTransitions) {
  BreakerRegistry reg(breaker_config());
  CircuitBreaker& h3 = reg.get("edge.example", "h3");
  CircuitBreaker& h2 = reg.get("edge.example", "h2");
  EXPECT_NE(&h3, &h2);
  EXPECT_EQ(&h3, &reg.get("edge.example", "h3"));  // stable instance

  for (int i = 0; i < 4; ++i) h3.record(TimePoint{0}, false);
  EXPECT_EQ(h3.state(), BreakerState::Open);
  EXPECT_EQ(h2.state(), BreakerState::Closed) << "per-protocol isolation";
  EXPECT_EQ(reg.total_transitions().opened, 1u);
}

TEST(Engine, DisabledByDefaultAndStatsStartZero) {
  // The engine's counters are the registry's resilience.* series.
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  Engine engine{Options{}};
  EXPECT_FALSE(engine.enabled());
  EXPECT_EQ(metrics.counter("resilience.retries").value(), 0u);
  EXPECT_EQ(metrics.counter("resilience.hedges_launched").value(), 0u);
  EXPECT_FALSE(engine.hedge_trigger().delay().has_value());
}

}  // namespace
}  // namespace h3cdn::resilience
