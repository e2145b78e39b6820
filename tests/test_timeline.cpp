// Time-resolved telemetry (docs/OBSERVABILITY.md): TimelineRecorder
// bucketing and merge determinism, the empty-window export convention, the
// SLO burn-rate evaluator's edge cases, fault->recovery annotation on a
// synthetic timeline, and a Chrome-trace export smoke test.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/fault_window.h"
#include "obs/perfetto.h"
#include "obs/slo.h"
#include "util/json_parse.h"

namespace h3cdn::obs {
namespace {

TimePoint at_ms(double ms) { return TimePoint{from_ms(ms)}; }

TEST(Timeline, BucketingIsIntegralFloorDivision) {
  TimelineRecorder r(msec(250));
  EXPECT_EQ(r.bucket_of(at_ms(0.0)), 0);
  EXPECT_EQ(r.bucket_of(at_ms(249.999)), 0);
  EXPECT_EQ(r.bucket_of(at_ms(250.0)), 1);
  EXPECT_EQ(r.bucket_of(at_ms(1249.0)), 4);
  // Sim time starts at zero; a negative instant clamps to window 0.
  EXPECT_EQ(r.bucket_of(TimePoint{msec(-10)}), 0);
}

TEST(Timeline, SeriesAccumulatePerWindow) {
  TimelineRecorder r(msec(100));
  r.count("c", at_ms(10));
  r.count("c", at_ms(90), 4);
  r.count("c", at_ms(150));
  r.gauge_set("g", at_ms(20), 3.0);
  r.gauge_set("g", at_ms(80), 7.0);  // same window: last write wins
  r.observe("h", at_ms(250), 40.0);
  r.observe("h", at_ms(260), 60.0);

  EXPECT_EQ(r.counters().at("c").at(0), 5u);
  EXPECT_EQ(r.counters().at("c").at(1), 1u);
  EXPECT_EQ(r.gauges().at("g").at(0).sets, 2u);
  EXPECT_DOUBLE_EQ(r.gauges().at("g").at(0).last, 7.0);
  EXPECT_EQ(r.histograms().at("h").at(2).count(), 2u);
  EXPECT_DOUBLE_EQ(r.histograms().at("h").at(2).sum(), 100.0);
  EXPECT_EQ(r.series_count(), 3u);
  EXPECT_EQ(r.span_buckets(), 3);
  EXPECT_EQ(r.counter_in_range("c", 0, 1), 6u);
  EXPECT_EQ(r.counter_in_range("c", 1, 5), 1u);
  EXPECT_EQ(r.counter_in_range("absent", 0, 5), 0u);
}

// Splitting one sample stream across shards and folding them in canonical
// order must reproduce the sequential recorder byte for byte — the property
// that makes timeline.json/csv independent of --jobs.
TEST(Timeline, ShardMergeMatchesSequentialRecordingByteForByte) {
  TimelineRecorder whole(msec(250));
  TimelineRecorder shard[3] = {TimelineRecorder(msec(250)), TimelineRecorder(msec(250)),
                               TimelineRecorder(msec(250))};
  for (int i = 0; i < 300; ++i) {
    const double t = static_cast<double>(i) * 17.0;
    const double v = static_cast<double>((i * 37) % 1000 + 1);
    whole.count("deaths", at_ms(t), static_cast<std::uint64_t>(i % 3));
    whole.observe("plt_ms", at_ms(t), v);
    TimelineRecorder& s = shard[i % 3];
    s.count("deaths", at_ms(t), static_cast<std::uint64_t>(i % 3));
    s.observe("plt_ms", at_ms(t), v);
  }
  // Gauges are shard-local samples; the canonical merge order makes the last
  // shard's window value the merged one, same as sequential recording when
  // the writes happen in shard order.
  shard[0].gauge_set("depth", at_ms(100), 2.0);
  shard[2].gauge_set("depth", at_ms(100), 9.0);
  whole.gauge_set("depth", at_ms(100), 2.0);
  whole.gauge_set("depth", at_ms(100), 9.0);

  TimelineRecorder merged(msec(250));
  for (const auto& s : shard) merged.merge_from(s);
  EXPECT_EQ(timeline_to_json(merged), timeline_to_json(whole));
  EXPECT_EQ(timeline_to_csv(merged), timeline_to_csv(whole));
}

TEST(Timeline, MergeIsAssociative) {
  auto fill = [](TimelineRecorder& r, std::uint64_t salt) {
    for (int i = 0; i < 200; ++i) {
      const double t = static_cast<double>((salt * 131 + i * 53) % 5000);
      r.count("c", at_ms(t), salt);
      r.observe("h", at_ms(t), static_cast<double>((salt + i) % 100 + 1));
    }
  };
  TimelineRecorder a1, b1, c1, a2, b2, c2;
  fill(a1, 3);
  fill(a2, 3);
  fill(b1, 11);
  fill(b2, 11);
  fill(c1, 29);
  fill(c2, 29);

  TimelineRecorder left;  // (a + b) + c
  left.merge_from(a1);
  left.merge_from(b1);
  left.merge_from(c1);
  TimelineRecorder bc;  // a + (b + c)
  bc.merge_from(b2);
  bc.merge_from(c2);
  TimelineRecorder right;
  right.merge_from(a2);
  right.merge_from(bc);
  EXPECT_EQ(timeline_to_json(left), timeline_to_json(right));
  EXPECT_EQ(timeline_to_csv(left), timeline_to_csv(right));
}

TEST(TimelineDeathTest, MergeRejectsMismatchedBucketWidths) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TimelineRecorder coarse(msec(500));
  TimelineRecorder fine(msec(250));
  EXPECT_DEATH(coarse.merge_from(fine), "bucket");
}

TEST(Timeline, DenseExportGivesEmptyWindowsCountZeroOnly) {
  TimelineRecorder r(msec(250));
  r.observe("plt_ms", at_ms(0), 120.0);
  r.observe("plt_ms", at_ms(900), 80.0);  // windows 1 and 2 are empty

  const auto doc = util::parse_json(timeline_to_json(r));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number_or("bucket_ms", -1), 250.0);
  EXPECT_EQ(doc->number_or("span_buckets", -1), 4.0);
  EXPECT_EQ(doc->number_or("series_count", -1), 1.0);
  const util::JsonValue* series = doc->find("series")->find("plt_ms");
  ASSERT_NE(series, nullptr);
  const util::JsonValue* points = series->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_TRUE(points->is_array());
  const auto& windows = points->as_array();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].number_or("count", -1), 1.0);
  EXPECT_EQ(windows[3].number_or("t_ms", -1), 750.0);
  // PR 4 convention: an empty window is `count: 0` and nothing else.
  for (std::size_t w : {1u, 2u}) {
    EXPECT_EQ(windows[w].number_or("count", -1), 0.0);
    for (const char* field : {"value", "sum", "mean", "min", "max", "p50", "p90", "p99"}) {
      EXPECT_EQ(windows[w].find(field), nullptr) << "window " << w << " " << field;
    }
  }

  const std::string csv = timeline_to_csv(r);
  EXPECT_EQ(csv.rfind("series,kind,t_ms,count,value,p50,p90,p99,max\n", 0), 0u);
  EXPECT_NE(csv.find("plt_ms,histogram,250,0,,,,,\n"), std::string::npos);
}

// --- SLO evaluator ---------------------------------------------------------

SloObjective counter_slo(std::string series, double threshold = 0.0) {
  SloObjective o;
  o.name = "test-" + series;
  o.series = std::move(series);
  o.signal = SloSignal::CounterTotal;
  o.threshold = threshold;
  return o;
}

TEST(Slo, EmptyTimelineReportsNoData) {
  TimelineRecorder r;
  const auto results = evaluate_slos(r, default_slo_objectives());
  ASSERT_EQ(results.size(), default_slo_objectives().size());
  for (const auto& res : results) {
    EXPECT_TRUE(res.no_data) << res.objective.name;
    EXPECT_TRUE(res.passed()) << res.objective.name;
    EXPECT_EQ(res.windows, 0u);
  }
}

TEST(Slo, MissingSeriesIsNoDataNotABreach) {
  TimelineRecorder r;
  r.count("something.else", at_ms(0));  // span > 0, target series absent
  const auto results = evaluate_slos(r, {counter_slo("load.visits_failed")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].no_data);
  EXPECT_TRUE(results[0].passed());
  EXPECT_EQ(results[0].empty_windows, results[0].windows);
}

TEST(Slo, CounterClassifiesEveryWindowOnceTheSeriesExists) {
  // Zero increments in a window is a real "nothing failed" measurement; only
  // 1 of 8 windows is bad, under the 20% budget, and the long burn range
  // dilutes the spike below its threshold: passed.
  TimelineRecorder r(msec(250));
  r.count("load.visits", at_ms(1900));  // stretch the span to 8 windows
  r.count("load.visits_failed", at_ms(600), 3);
  SloObjective o = counter_slo("load.visits_failed");
  o.error_budget = 0.20;
  const auto results = evaluate_slos(r, {o});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].no_data);
  EXPECT_EQ(results[0].windows, 8u);
  EXPECT_EQ(results[0].empty_windows, 0u);
  EXPECT_EQ(results[0].bad_windows, 1u);
  EXPECT_TRUE(results[0].has_worst);
  EXPECT_DOUBLE_EQ(results[0].worst_value, 3.0);
  EXPECT_FALSE(results[0].breached);
  EXPECT_FALSE(results[0].burn_alert) << results[0].max_long_burn;
  EXPECT_TRUE(results[0].passed());
}

TEST(Slo, SustainedBadnessTripsBreachAndBurnAlert) {
  TimelineRecorder r(msec(250));
  for (int w = 0; w < 20; ++w) {
    r.count("load.visits_failed", at_ms(w * 250.0), w < 12 ? 2u : 0u);
  }
  SloObjective o = counter_slo("load.visits_failed");
  o.error_budget = 0.10;
  const auto results = evaluate_slos(r, {o});
  ASSERT_EQ(results.size(), 1u);
  // 12/20 bad >> 10% budget; a fully-bad short range burns 1.0/0.1 = 10x.
  EXPECT_TRUE(results[0].breached);
  EXPECT_DOUBLE_EQ(results[0].max_short_burn, 10.0);
  EXPECT_TRUE(results[0].burn_alert);
  EXPECT_FALSE(results[0].passed());
}

TEST(Slo, ShortSpikeAloneDoesNotPageWithoutTheLongWindow) {
  // One bad window in a long healthy run: the short burn spikes over its
  // threshold but the long burn stays under 1.0 — no alert. This is the
  // blip-filtering the multi-window rule exists for. A 32-window long range
  // dilutes a single bad window to 1/32 while the 4-window short range sees
  // 1/4 of it; with a 5% budget that is 0.625x long vs 5x short.
  TimelineRecorder r(msec(250));
  for (int w = 0; w < 64; ++w) {
    r.count("load.visits_failed", at_ms(w * 250.0), w == 30 ? 5u : 0u);
  }
  SloObjective o = counter_slo("load.visits_failed");
  o.error_budget = 0.05;
  o.long_windows = 32;
  const auto results = evaluate_slos(r, {o});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GE(results[0].max_short_burn, o.short_burn_threshold);
  EXPECT_LT(results[0].max_long_burn, o.long_burn_threshold);
  EXPECT_FALSE(results[0].burn_alert);
  EXPECT_FALSE(results[0].breached);  // 1/64 under the 5% budget
  EXPECT_TRUE(results[0].passed());
}

TEST(Slo, SingleBucketRunStillEvaluates) {
  // Trailing ranges clamp to the available span, so a one-window run with a
  // bad window burns at 1/budget in both ranges and pages.
  TimelineRecorder r(msec(250));
  r.count("load.visits_failed", at_ms(10), 1);
  const auto results = evaluate_slos(r, {counter_slo("load.visits_failed")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windows, 1u);
  EXPECT_TRUE(results[0].breached);
  EXPECT_TRUE(results[0].burn_alert);
}

TEST(Slo, HistogramQuantileAndGaugeSignalsJudgePerWindow) {
  TimelineRecorder r(msec(250));
  r.observe("load.plt_ms", at_ms(0), 500.0);
  r.observe("load.plt_ms", at_ms(300), 3000.0);  // window 1 over the 2s bar
  r.gauge_set("load.queue_depth", at_ms(0), 40.0);
  r.gauge_set("load.queue_depth", at_ms(300), 8.0);
  const auto results = evaluate_slos(r, default_slo_objectives());
  const SloResult* plt = nullptr;
  const SloResult* queue = nullptr;
  for (const auto& res : results) {
    if (res.objective.name == "plt-p95-under-2s") plt = &res;
    if (res.objective.name == "accept-queue-under-32") queue = &res;
  }
  ASSERT_NE(plt, nullptr);
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(plt->bad_windows, 1u);
  EXPECT_GT(plt->worst_value, 2000.0);
  EXPECT_EQ(queue->bad_windows, 1u);
  EXPECT_DOUBLE_EQ(queue->worst_value, 40.0);
}

TEST(Slo, JsonExportCarriesSpecAndVerdict) {
  TimelineRecorder r(msec(250));
  r.count("load.visits_failed", at_ms(10), 1);
  const auto results = evaluate_slos(r, default_slo_objectives());
  const auto doc = util::parse_json(slo_to_json(r, results));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number_or("bucket_ms", -1), 250.0);
  const util::JsonValue* objectives = doc->find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_TRUE(objectives->is_array());
  ASSERT_EQ(objectives->as_array().size(), default_slo_objectives().size());
  bool saw_failed_visits = false;
  for (const auto& item : objectives->as_array()) {
    if (item.string_or("name", "") != "no-failed-visits") continue;
    saw_failed_visits = true;
    EXPECT_EQ(item.string_or("signal", ""), "counter_total");
    EXPECT_EQ(item.number_or("bad_windows", -1), 1.0);
    EXPECT_EQ(item.bool_or("passed", true), false);
  }
  EXPECT_TRUE(saw_failed_visits);
}

// --- Fault -> recovery annotation ------------------------------------------

TEST(FaultWindow, AnnotatesDetectionRecoveryAndMttr) {
  TimelineRecorder r(msec(250));
  // Healthy traffic stretches the span; deaths degrade windows 4..7.
  r.count("load.visits", at_ms(2900));
  r.count("http.pool.connection_deaths", at_ms(1100), 2);  // window 4
  r.count("load.visits_failed", at_ms(1800));              // window 7
  r.count("resilience.breaker.opened", at_ms(1300));       // window 5
  r.count("resilience.breaker.closed", at_ms(2300));       // window 9

  FaultWindowSpec spec;
  spec.scenario = "edge-outage";
  spec.faulted = true;
  spec.start_ms = 1000.0;
  spec.end_ms = 1700.0;
  const FaultAnnotation a = annotate_fault_recovery(r, spec);
  EXPECT_EQ(a.degraded_windows, 2u);
  EXPECT_DOUBLE_EQ(a.detection_ms, 1000.0);  // window 4 start
  EXPECT_DOUBLE_EQ(a.recovery_ms, 2000.0);   // end of window 7
  EXPECT_DOUBLE_EQ(a.mttr_ms, 1000.0);
  EXPECT_DOUBLE_EQ(a.time_to_breaker_open_ms, 250.0);
  EXPECT_DOUBLE_EQ(a.time_to_breaker_close_ms, 1250.0);
}

TEST(FaultWindow, NeverDegradedMeansInstantRecoveryAndZeroMttr) {
  TimelineRecorder r(msec(250));
  r.count("load.visits", at_ms(900), 10);  // healthy-only traffic

  FaultWindowSpec faulted;
  faulted.scenario = "inert-fault";
  faulted.faulted = true;
  faulted.start_ms = 200.0;
  faulted.end_ms = 600.0;
  const FaultAnnotation a = annotate_fault_recovery(r, faulted);
  EXPECT_EQ(a.degraded_windows, 0u);
  EXPECT_DOUBLE_EQ(a.detection_ms, -1.0);
  EXPECT_DOUBLE_EQ(a.recovery_ms, -1.0);
  EXPECT_DOUBLE_EQ(a.mttr_ms, 0.0);  // the always-finite MTTR contract
  EXPECT_DOUBLE_EQ(a.time_to_breaker_open_ms, -1.0);

  FaultWindowSpec baseline;
  baseline.scenario = "baseline";
  const FaultAnnotation b = annotate_fault_recovery(r, baseline);
  EXPECT_FALSE(b.faulted);
  EXPECT_DOUBLE_EQ(b.mttr_ms, 0.0);
}

TEST(FaultWindow, JsonExportCarriesOneObjectPerScenario) {
  TimelineRecorder r(msec(250));
  r.count("http.pool.connection_deaths", at_ms(100));
  FaultWindowSpec spec;
  spec.scenario = "kill";
  spec.faulted = true;
  spec.end_ms = 500.0;
  const std::vector<FaultAnnotation> annotations = {annotate_fault_recovery(r, spec)};
  const auto doc = util::parse_json(fault_annotations_to_json(annotations, 250.0));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number_or("bucket_ms", -1), 250.0);
  const util::JsonValue* items = doc->find("annotations");
  ASSERT_NE(items, nullptr);
  ASSERT_TRUE(items->is_array());
  ASSERT_EQ(items->as_array().size(), 1u);
  EXPECT_EQ(items->as_array()[0].string_or("scenario", ""), "kill");
  EXPECT_EQ(items->as_array()[0].number_or("mttr_ms", -1), 250.0);
  EXPECT_EQ(items->as_array()[0].number_or("degraded_windows", -1), 1.0);
}

// --- Chrome-trace export ---------------------------------------------------

TEST(Perfetto, ChromeTraceExportCarriesPagesAndSpans) {
  Waterfall w;
  w.site = "example.com";
  w.vantage = "eu/p0/h3";
  w.h3_enabled = true;
  w.page_load_time_ms = 800.0;
  WaterfallEntry e;
  e.url = "https://example.com/";
  e.domain = "example.com";
  e.type = "document";
  e.protocol = "h3";
  e.connection_id = 7;
  e.wait_ms = 100.0;
  e.receive_ms = 50.0;
  e.response_bytes = 2048;
  w.entries.push_back(e);

  const std::string trace = to_chrome_trace_json({w}, nullptr);
  const auto doc = util::parse_json(trace);
  ASSERT_TRUE(doc.has_value()) << trace;
  EXPECT_EQ(doc->string_or("displayTimeUnit", ""), "ms");
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_page_span = false;
  bool saw_entry_span = false;
  for (const auto& ev : events->as_array()) {
    if (ev.string_or("ph", "") != "X") continue;
    if (ev.string_or("name", "") == "page-load: example.com") {
      saw_page_span = true;
      // Microsecond timestamps: 800 ms page load = 800000 us duration.
      EXPECT_EQ(ev.number_or("dur", -1), 800000.0);
    }
    if (ev.string_or("name", "") == "https://example.com/") {
      saw_entry_span = true;
      EXPECT_EQ(ev.number_or("tid", -1), 8.0);  // connection_id + 1
    }
  }
  EXPECT_TRUE(saw_page_span);
  EXPECT_TRUE(saw_entry_span);
}

}  // namespace
}  // namespace h3cdn::obs
