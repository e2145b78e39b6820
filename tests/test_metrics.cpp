#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/json_parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace h3cdn::obs {
namespace {

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(4);
  EXPECT_EQ(reg.counter("a").value(), 5u);

  reg.gauge("g").set(2.5);
  reg.gauge("g").add(-1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 1.5);

  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Metrics, LookupCreatesOnceWithStableAddresses) {
  MetricsRegistry reg;
  Counter* a = &reg.counter("x");
  reg.counter("y").inc();
  reg.histogram("h").observe(1.0);
  EXPECT_EQ(a, &reg.counter("x"));  // still the same object after growth
  EXPECT_EQ(reg.series_count(), 3u);
  reg.clear();
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_EQ(reg.counter("x").value(), 0u);  // recreated fresh
}

TEST(Metrics, HistogramTracksMomentsExactly) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);

  for (double v : {4.0, 1.0, 16.0, 9.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 30.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
}

TEST(Metrics, HistogramPercentilesTrackExactQuantiles) {
  // Log-bucketed readouts must stay within one bucket width (~9%) of the
  // exact sample quantile — check against util::quantile as ground truth.
  Histogram h;
  std::vector<double> samples;
  util::Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(rng.uniform(0.0, 8.0));  // spread over decades
    h.observe(v);
    samples.push_back(v);
  }
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = util::quantile(samples, q);
    const double estimate = h.percentile(q);
    EXPECT_GT(estimate, exact * 0.90) << "q=" << q;
    EXPECT_LT(estimate, exact * 1.10) << "q=" << q;
  }
}

TEST(Metrics, HistogramPercentileIsClampedToObservedRange) {
  Histogram h;
  h.observe(100.0);
  // A single sample: every quantile is that sample, not a bucket bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.p50(), 100.0);
  EXPECT_DOUBLE_EQ(h.p999(), 100.0);
}

TEST(Metrics, HistogramUnderflowBucket) {
  Histogram h;
  h.observe(0.0);
  h.observe(1e-9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.p99(), Histogram::kMinValue);
}

TEST(Metrics, HooksAreNoOpsWhenDisabled) {
  ASSERT_EQ(MetricsRegistry::global(), nullptr);
  EXPECT_FALSE(enabled());
  // Must not crash or allocate a registry.
  const TimePoint at{msec(10)};
  const MetricId nope{"nope"};
  count(nope);
  count(nope, at, 2);
  observe(nope, 1.0);
  observe(nope, at, 1.0);
  observe_ms(nope, msec(5));
  observe_ms(nope, at, msec(5));
  sample(nope, at, 3.0);
  { ProfileScope idle(MetricId{"ignored"}); }
  EXPECT_EQ(MetricsRegistry::global(), nullptr);
}

TEST(Metrics, ScopedInstallRoutesHooksAndRestores) {
  const TimePoint w0{msec(10)};
  const TimePoint w2{msec(600)};  // window 2 at the default 250 ms bucket
  const MetricId hits{"hits"};
  const MetricId plain{"plain"};
  const MetricId phase_a{"phase_a"};
  const MetricId phase_b{"phase_b"};
  const MetricId latency_ms{"latency_ms"};
  const MetricId depth{"depth"};
  MetricsRegistry outer;
  {
    ScopedMetrics outer_scope(&outer);
    EXPECT_TRUE(enabled());
    count(hits, 2);
    observe(plain, 1.0);
    EXPECT_EQ(outer.timeline().series_count(), 0u);  // untimed hooks: run totals only
    {
      MetricsRegistry inner;
      ScopedMetrics inner_scope(&inner);
      count(hits, w2);  // goes to inner, not outer
      { ProfileScope a(phase_a); }
      { ProfileScope a(phase_a); }
      EXPECT_EQ(inner.counters().at("hits")->value(), 1u);
      EXPECT_EQ(inner.timeline().counter_in_range("hits", 2, 2), 1u);
      EXPECT_EQ(inner.profiler().phases().at("phase_a").calls, 2u);
    }
    EXPECT_EQ(MetricsRegistry::global(), &outer);
    count(hits, w0, 3);  // outer again: run total and window 0
    observe_ms(latency_ms, msec(250));
    observe_ms(latency_ms, w2, msec(50));
    sample(depth, w0, 4.0);
    sample(depth, w0, 9.0);
    { ProfileScope b(phase_b); }
  }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(outer.counters().at("hits")->value(), 5u);
  EXPECT_EQ(outer.timeline().counters().at("hits").size(), 1u);
  EXPECT_EQ(outer.timeline().counter_in_range("hits", 0, 0), 3u);
  EXPECT_EQ(outer.histograms().at("latency_ms")->count(), 2u);
  EXPECT_DOUBLE_EQ(outer.histograms().at("latency_ms")->sum(), 300.0);
  ASSERT_EQ(outer.timeline().histograms().at("latency_ms").size(), 1u);
  EXPECT_DOUBLE_EQ(outer.timeline().histograms().at("latency_ms").at(2).sum(), 50.0);
  // sample: every value in the run histogram, the window's last as a gauge.
  EXPECT_EQ(outer.histograms().at("depth")->count(), 2u);
  EXPECT_DOUBLE_EQ(outer.histograms().at("depth")->max(), 9.0);
  EXPECT_EQ(outer.timeline().gauges().at("depth").at(0).sets, 2u);
  EXPECT_DOUBLE_EQ(outer.timeline().gauges().at("depth").at(0).last, 9.0);
  EXPECT_TRUE(outer.gauges().empty());
  EXPECT_EQ(outer.timeline().histograms().count("depth"), 0u);
  // The inner scope's phases stayed in the inner registry's profiler.
  EXPECT_EQ(outer.profiler().phases().count("phase_a"), 0u);
  const auto doc = util::parse_json(outer.profiler().to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("phases")->find("phase_b")->number_or("calls", -1), 1.0);
}

TEST(Metrics, JsonExportParsesAndRoundTrips) {
  MetricsRegistry reg;
  reg.counter("net.link.packets_offered").inc(123);
  reg.gauge("http.pool.open_connections").set(4.0);
  for (int i = 1; i <= 100; ++i) reg.histogram("dns.resolve_ms").observe(i);

  const auto doc = util::parse_json(metrics_to_json(reg));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number_or("series_count", -1), 3.0);
  EXPECT_EQ(doc->find("counters")->number_or("net.link.packets_offered", -1), 123.0);
  EXPECT_EQ(doc->find("gauges")->number_or("http.pool.open_connections", -1), 4.0);
  const util::JsonValue* hist = doc->find("histograms")->find("dns.resolve_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count", -1), 100.0);
  EXPECT_EQ(hist->number_or("min", -1), 1.0);
  EXPECT_EQ(hist->number_or("max", -1), 100.0);
  EXPECT_NEAR(hist->number_or("p50", -1), 50.0, 50.0 * 0.10);
}

TEST(Metrics, EmptyHistogramExportsCountOnly) {
  MetricsRegistry reg;
  (void)reg.histogram("never.observed_ms");  // registered but no samples

  const auto doc = util::parse_json(metrics_to_json(reg));
  ASSERT_TRUE(doc.has_value());
  const util::JsonValue* hist = doc->find("histograms")->find("never.observed_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count", -1), 0.0);
  // Quantiles of zero samples would be fabricated data; none may be exported.
  for (const char* q : {"sum", "min", "max", "mean", "p50", "p90", "p99", "p999"}) {
    EXPECT_EQ(hist->find(q), nullptr) << q;
  }

  const std::string csv = metrics_to_csv(reg);
  EXPECT_NE(csv.find("never.observed_ms,histogram,count,0\n"), std::string::npos);
  EXPECT_EQ(csv.find("never.observed_ms,histogram,p50,"), std::string::npos);

  const std::string prom = metrics_to_prometheus(reg);
  EXPECT_NE(prom.find("never_observed_ms_count 0\n"), std::string::npos);
  EXPECT_EQ(prom.find("never_observed_ms{quantile="), std::string::npos);
  EXPECT_EQ(prom.find("never_observed_ms_sum"), std::string::npos);
}

TEST(Metrics, CsvExportHasOneRowPerField) {
  MetricsRegistry reg;
  reg.counter("c").inc(7);
  reg.histogram("h").observe(2.0);
  const std::string csv = metrics_to_csv(reg);
  EXPECT_NE(csv.find("name,kind,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("c,counter,value,7\n"), std::string::npos);
  EXPECT_NE(csv.find("h,histogram,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("h,histogram,p99,"), std::string::npos);
}

TEST(Metrics, PrometheusExportSanitizesNames) {
  MetricsRegistry reg;
  reg.counter("net.link.packets_dropped").inc(9);
  reg.histogram("http.entry.total_ms").observe(10.0);
  const std::string prom = metrics_to_prometheus(reg);
  EXPECT_NE(prom.find("# TYPE net_link_packets_dropped counter\n"), std::string::npos);
  EXPECT_NE(prom.find("net_link_packets_dropped 9\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE http_entry_total_ms summary\n"), std::string::npos);
  EXPECT_NE(prom.find("http_entry_total_ms{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("http_entry_total_ms_count 1\n"), std::string::npos);
  // No unsanitized metric name survives at a sample-line start (the # HELP
  // text deliberately carries the original dotted series name).
  EXPECT_EQ(prom.find("\nnet.link"), std::string::npos);
  EXPECT_EQ(prom.find("\nhttp.entry"), std::string::npos);
}

TEST(Metrics, PrometheusExportCarriesHelpLines) {
  // Exposition-format compliance: every family gets a # HELP line naming the
  // original (pre-sanitization) series, immediately before its # TYPE line.
  MetricsRegistry reg;
  reg.counter("net.link.packets_dropped").inc(9);
  reg.gauge("http.pool.open_connections").set(4.0);
  reg.histogram("dns.resolve_ms").observe(10.0);
  const std::string prom = metrics_to_prometheus(reg);
  EXPECT_NE(prom.find("# HELP net_link_packets_dropped Simulated-run counter "
                      "net.link.packets_dropped.\n# TYPE net_link_packets_dropped counter\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# HELP http_pool_open_connections "), std::string::npos);
  EXPECT_NE(prom.find("# HELP dns_resolve_ms "), std::string::npos);
}

TEST(Metrics, PrometheusNamesNeverStartWithADigit) {
  // An arbitrary registry key can sanitize to a digit-first name, which the
  // exposition grammar forbids ([a-zA-Z_:] first); a '_' prefix restores it.
  MetricsRegistry reg;
  reg.counter("0rtt.accepted").inc(3);
  const std::string prom = metrics_to_prometheus(reg);
  EXPECT_NE(prom.find("# TYPE _0rtt_accepted counter\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("_0rtt_accepted 3\n"), std::string::npos);
  EXPECT_EQ(prom.find("\n0rtt_accepted"), std::string::npos);
}

TEST(Metrics, PrometheusHelpEscapesBackslashAndNewline) {
  MetricsRegistry reg;
  reg.counter("weird\\name\nwith.breaks").inc(1);
  const std::string prom = metrics_to_prometheus(reg);
  // The HELP text carries the original name with backslash and newline
  // escaped — a literal newline inside HELP would corrupt the exposition.
  EXPECT_NE(prom.find("weird\\\\name\\nwith.breaks"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("# HELP weird_name_with_breaks Simulated-run counter weird\\name"),
            std::string::npos);
}

TEST(Metrics, TwoDeclarationsOfOneNameShareOneIdAndOneSeries) {
  const MetricId first{"metric_id.shared"};
  const MetricId second{std::string("metric_id.") + "shared"};
  EXPECT_EQ(first, second);
  EXPECT_EQ(&first.name(), &second.name());
  EXPECT_EQ(first.name(), "metric_id.shared");
  EXPECT_FALSE(first == MetricId{"metric_id.other"});

  MetricsRegistry reg;
  ScopedMetrics scope(&reg);
  const TimePoint at{msec(10)};
  count(first, at);
  count(second, at, 2);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters().at("metric_id.shared")->value(), 3u);
  EXPECT_EQ(&reg.counter(first), &reg.counter("metric_id.shared"));
  EXPECT_EQ(reg.timeline().counter_in_range("metric_id.shared", 0, 0), 3u);
}

TEST(Metrics, ConcurrentInterningFromPoolWorkersAgrees) {
  // Every task interns the same 64 names, half of them in reverse order, so
  // the workers race on first registration. Each name must come back with
  // one index and its own spelling, whichever worker interned it first.
  constexpr std::size_t kNames = 64;
  constexpr std::size_t kTasks = 16;
  std::vector<std::vector<std::uint32_t>> seen(kTasks, std::vector<std::uint32_t>(kNames));
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (std::size_t k = 0; k < kNames; ++k) {
      const std::size_t n = task % 2 == 0 ? k : kNames - 1 - k;
      const std::string name = "metric_id.concurrent." + std::to_string(n);
      const MetricId id{name};
      EXPECT_EQ(id.name(), name);
      seen[task][n] = id.index();
    }
  });
  for (std::size_t task = 1; task < kTasks; ++task) EXPECT_EQ(seen[task], seen[0]) << task;
  std::vector<std::uint32_t> distinct = seen[0];
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
}

TEST(Metrics, ExportsDoNotDependOnFirstTouchOrder) {
  // The ids are interned in reverse name order, and the two registries
  // touch the series in opposite orders: the exports are keyed by name, so
  // their bytes must not move.
  const std::vector<MetricId> ids = {MetricId{"order.c"}, MetricId{"order.b"},
                                     MetricId{"order.a"}};
  const auto record = [&](MetricsRegistry& reg, bool reversed) {
    ScopedMetrics scope(&reg);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t k = reversed ? ids.size() - 1 - i : i;
      const TimePoint at{msec(300 * static_cast<std::int64_t>(k))};
      count(ids[k], at, k + 1);
      observe(ids[k], at, 10.0 * static_cast<double>(k + 1));
      sample(ids[k], at, static_cast<double>(k));
      reg.profiler().record(ids[k], 1000 * (k + 1));
    }
  };
  MetricsRegistry forward;
  MetricsRegistry backward;
  record(forward, false);
  record(backward, true);
  EXPECT_EQ(metrics_to_json(forward), metrics_to_json(backward));
  EXPECT_EQ(metrics_to_csv(forward), metrics_to_csv(backward));
  EXPECT_EQ(metrics_to_prometheus(forward), metrics_to_prometheus(backward));
  EXPECT_EQ(timeline_to_json(forward.timeline()), timeline_to_json(backward.timeline()));
  EXPECT_EQ(timeline_to_csv(forward.timeline()), timeline_to_csv(backward.timeline()));
  EXPECT_EQ(forward.profiler().to_json(), backward.profiler().to_json());
  const std::string json = metrics_to_json(forward);
  EXPECT_LT(json.find("order.a"), json.find("order.b"));
  EXPECT_LT(json.find("order.b"), json.find("order.c"));
}

TEST(Metrics, HookAfterClearRecreatesItsSeries) {
  // clear() frees every series; a by-id index that kept its pointers would
  // write through freed memory here (caught under ASan).
  const MetricId hits{"clear.hits"};
  const MetricId latency{"clear.latency_ms"};
  const MetricId depth{"clear.depth"};
  const MetricId phase{"clear.phase"};
  const TimePoint at{msec(600)};
  MetricsRegistry reg;
  ScopedMetrics scope(&reg);
  for (int round = 0; round < 2; ++round) {
    count(hits, at);
    observe(latency, at, 5.0);
    sample(depth, at, 2.0);
    { ProfileScope timed(phase); }
    EXPECT_EQ(reg.counters().at("clear.hits")->value(), 1u) << round;
    EXPECT_EQ(reg.histograms().at("clear.latency_ms")->count(), 1u) << round;
    EXPECT_EQ(reg.timeline().counter_in_range("clear.hits", 2, 2), 1u) << round;
    EXPECT_EQ(reg.timeline().histograms().at("clear.latency_ms").at(2).count(), 1u) << round;
    EXPECT_EQ(reg.timeline().gauges().at("clear.depth").at(2).sets, 1u) << round;
    EXPECT_EQ(reg.profiler().phases().at("clear.phase").calls, 1u) << round;
    reg.clear();
    EXPECT_EQ(reg.series_count(), 0u);
    EXPECT_EQ(reg.timeline().series_count(), 0u);
    EXPECT_TRUE(reg.profiler().phases().empty());
  }
}

}  // namespace
}  // namespace h3cdn::obs
