// Shard-merge semantics of the metrics layer: merging per-shard registries
// in canonical order must reproduce what one shared registry would have
// recorded sequentially (the determinism contract of docs/PARALLELISM.md).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/profiler.h"
#include "obs/timeline.h"
#include "util/rng.h"

namespace h3cdn::obs {
namespace {

TEST(MetricsMerge, CountersAdd) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("net.link.packets_offered").inc(7);
  b.counter("net.link.packets_offered").inc(5);
  b.counter("tls.tickets.hits").inc(2);  // series missing in `a`
  a.merge_from(b);
  EXPECT_EQ(a.counter("net.link.packets_offered").value(), 12u);
  EXPECT_EQ(a.counter("tls.tickets.hits").value(), 2u);
  EXPECT_EQ(b.counter("tls.tickets.hits").value(), 2u);  // source untouched
}

TEST(MetricsMerge, GaugesTakeTheMergedInValue) {
  // Last-writer-wins in merge order: with shards merged canonically, the
  // merged gauge is the value the last shard left — the same value a
  // sequential run would end with.
  MetricsRegistry a;
  MetricsRegistry b;
  a.gauge("http.pool.open_connections").set(3.0);
  b.gauge("http.pool.open_connections").set(8.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.gauge("http.pool.open_connections").value(), 8.0);
}

TEST(MetricsMerge, HistogramMatchesSingleRegistryRecording) {
  // Split one deterministic sample stream across three shards; the merged
  // histogram must agree with single-registry recording on every readout.
  // Integer-valued samples keep the float `sum` exact, so even sum compares
  // with EXPECT_DOUBLE_EQ.
  util::Rng rng(42);
  MetricsRegistry whole;
  MetricsRegistry shard[3];
  for (int i = 0; i < 3000; ++i) {
    const double v = static_cast<double>(rng.uniform_int(1, 100000));
    whole.histogram("browser.plt_ms").observe(v);
    shard[i % 3].histogram("browser.plt_ms").observe(v);
  }
  MetricsRegistry merged;
  for (const auto& s : shard) merged.merge_from(s);

  const Histogram& h = merged.histogram("browser.plt_ms");
  const Histogram& w = whole.histogram("browser.plt_ms");
  EXPECT_EQ(h.count(), w.count());
  EXPECT_DOUBLE_EQ(h.sum(), w.sum());
  EXPECT_DOUBLE_EQ(h.min(), w.min());
  EXPECT_DOUBLE_EQ(h.max(), w.max());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), w.percentile(q)) << "q=" << q;
  }
}

TEST(MetricsMerge, HistogramMergeIntoEmptyPreservesMinMax) {
  MetricsRegistry a;
  MetricsRegistry b;
  b.histogram("x").observe(5.0);
  b.histogram("x").observe(9.0);
  a.merge_from(b);
  EXPECT_EQ(a.histogram("x").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("x").min(), 5.0);
  EXPECT_DOUBLE_EQ(a.histogram("x").max(), 9.0);
  // And the other direction: merging an empty histogram changes nothing.
  MetricsRegistry empty;
  a.merge_from(empty);
  EXPECT_EQ(a.histogram("x").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("x").min(), 5.0);
}

TEST(MetricsMerge, MergeIsAssociative) {
  // (a + b) + c and a + (b + c) must export identically — the property that
  // lets the study fold shard registries pairwise in canonical order.
  // Integer-valued samples keep histogram sums exact, so the comparison is
  // on the full export string.
  util::Rng base(7);
  auto fill = [&](MetricsRegistry& r, std::uint64_t salt) {
    util::Rng stream = base.fork(salt);  // same salt => same samples
    r.counter("c").inc(salt);
    r.gauge("g").set(static_cast<double>(salt));
    for (int i = 0; i < 500; ++i) {
      r.histogram("h").observe(static_cast<double>(stream.uniform_int(1, 1000)));
    }
  };
  MetricsRegistry a1, b1, c1, a2, b2, c2;
  fill(a1, 3);
  fill(a2, 3);
  fill(b1, 11);
  fill(b2, 11);
  fill(c1, 29);
  fill(c2, 29);

  // Left fold: (a + b) + c.
  MetricsRegistry left;
  left.merge_from(a1);
  left.merge_from(b1);
  left.merge_from(c1);
  // Right fold: a + (b + c).
  MetricsRegistry bc;
  bc.merge_from(b2);
  bc.merge_from(c2);
  MetricsRegistry right;
  right.merge_from(a2);
  right.merge_from(bc);

  EXPECT_EQ(metrics_to_json(left), metrics_to_json(right));
  EXPECT_EQ(metrics_to_csv(left), metrics_to_csv(right));
}

TEST(MetricsMerge, ResilienceSeriesMergeKeepsAccountingIdentities) {
  // The chaos harness merges per-scenario shards and then checks hedge
  // accounting on the merged registry: the identity won + lost + cancelled
  // == launched must survive the fold because counters add linearly, even
  // when shards carry disjoint subsets of the resilience.* series.
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("resilience.hedges_launched").inc(3);
  a.counter("resilience.hedges_won").inc(1);
  a.counter("resilience.hedges_lost").inc(1);
  a.counter("resilience.hedges_cancelled").inc(1);
  a.counter("resilience.retries").inc(5);
  b.counter("resilience.hedges_launched").inc(2);
  b.counter("resilience.hedges_won").inc(2);
  b.counter("resilience.resumed_requests").inc(4);  // series absent in `a`
  b.counter("resilience.resumed_bytes").inc(81'920);
  // Latency histograms split across shards merge like any other histogram.
  for (double v : {12.0, 40.0}) a.histogram("resilience.backoff_ms").observe(v);
  b.histogram("resilience.backoff_ms").observe(95.0);

  MetricsRegistry merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.counter("resilience.hedges_launched").value(), 5u);
  const std::uint64_t settled = merged.counter("resilience.hedges_won").value() +
                                merged.counter("resilience.hedges_lost").value() +
                                merged.counter("resilience.hedges_cancelled").value();
  EXPECT_EQ(settled, merged.counter("resilience.hedges_launched").value());
  EXPECT_EQ(merged.counter("resilience.resumed_requests").value(), 4u);
  EXPECT_EQ(merged.counter("resilience.resumed_bytes").value(), 81'920u);
  EXPECT_EQ(merged.histogram("resilience.backoff_ms").count(), 3u);
  EXPECT_DOUBLE_EQ(merged.histogram("resilience.backoff_ms").max(), 95.0);
}

TEST(MetricsMerge, TimelineShardsFoldLikeRegistries) {
  // The timeline merge mirrors the registry merge contract per window:
  // counters add, gauges take the merged-in window value, histograms merge
  // exactly. Two shards with overlapping and disjoint windows fold into what
  // sequential recording would have produced.
  const TimePoint w0{msec(100)};
  const TimePoint w2{msec(600)};
  TimelineRecorder a(msec(250));
  TimelineRecorder b(msec(250));
  a.count("deaths", w0, 2);
  b.count("deaths", w0, 3);            // overlapping window: adds
  b.count("refusals", w2, 7);          // series absent in `a`
  a.gauge_set("depth", w0, 4.0);
  b.gauge_set("depth", w0, 9.0);       // merged-in value wins
  a.observe("plt_ms", w2, 100.0);
  b.observe("plt_ms", w2, 300.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter_in_range("deaths", 0, 0), 5u);
  EXPECT_EQ(a.counter_in_range("refusals", 2, 2), 7u);
  EXPECT_DOUBLE_EQ(a.gauges().at("depth").at(0).last, 9.0);
  EXPECT_EQ(a.gauges().at("depth").at(0).sets, 2u);
  EXPECT_EQ(a.histograms().at("plt_ms").at(2).count(), 2u);
  EXPECT_DOUBLE_EQ(a.histograms().at("plt_ms").at(2).sum(), 400.0);
  // Source shard untouched, and its windows stay where they were.
  EXPECT_EQ(b.counter_in_range("deaths", 0, 0), 3u);
}

TEST(MetricsMerge, ProfilerPhasesCombine) {
  PhaseProfiler a;
  PhaseProfiler b;
  a.record("study.visit", 100);
  a.record("study.visit", 300);
  b.record("study.visit", 250);
  b.record("study.warm", 40);
  a.merge_from(b);
  EXPECT_EQ(a.phases().at("study.visit").calls, 3u);
  EXPECT_EQ(a.phases().at("study.visit").total_ns, 650u);
  EXPECT_EQ(a.phases().at("study.visit").max_ns, 300u);
  EXPECT_EQ(a.phases().at("study.warm").calls, 1u);
}

TEST(MetricsMerge, OwnedTimelineAndProfilerFoldWithTheRegistry) {
  // Shards record through the hooks like sweep cells. Merging the shard
  // registries in canonical order folds their timelines bucket-wise into
  // exactly what one sequential registry recorded, and profiler calls add.
  const auto record = [](std::int64_t i) {
    ProfileScope scope("cell");
    const TimePoint at{msec(70 * i)};
    count("deaths", at);
    observe("plt_ms", at, 10.0 * static_cast<double>(i));
    sample("depth", at, static_cast<double>(i % 5));
  };
  constexpr std::int64_t kEvents = 20;
  MetricsRegistry sequential;
  {
    ScopedMetrics scope(&sequential);
    for (std::int64_t i = 0; i < kEvents; ++i) record(i);
  }
  MetricsRegistry shard[2];
  for (std::int64_t i = 0; i < kEvents; ++i) {
    ScopedMetrics scope(&shard[i < 12 ? 0 : 1]);  // window 3 spans both shards
    record(i);
  }
  MetricsRegistry merged;
  merged.merge_from(shard[0]);
  merged.merge_from(shard[1]);

  EXPECT_EQ(merged.timeline().span_buckets(), 6);
  EXPECT_EQ(timeline_to_json(merged.timeline()), timeline_to_json(sequential.timeline()));
  EXPECT_EQ(metrics_to_json(merged), metrics_to_json(sequential));
  EXPECT_EQ(merged.profiler().phases().at("cell").calls, 20u);
  EXPECT_EQ(sequential.profiler().phases().at("cell").calls, 20u);

  merged.clear();
  EXPECT_EQ(merged.series_count(), 0u);
  EXPECT_EQ(merged.timeline().series_count(), 0u);
  EXPECT_TRUE(merged.profiler().phases().empty());
}

}  // namespace
}  // namespace h3cdn::obs
