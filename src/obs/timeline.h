// Time-resolved telemetry: TimelineRecorder buckets counters, gauges, and
// histogram samples into fixed sim-time windows, so a chaos or load run can
// show WHEN a breaker opened, how long recovery took, and whether the PLT
// tail stayed inside budget during a fault window — not just the end-state
// aggregates the MetricsRegistry exports.
//
// Design rules (mirroring obs/metrics.h):
//   * The recorder has no hooks or install of its own: each MetricsRegistry
//     owns one, and the timed obs::count/observe/observe_ms/sample overloads
//     in obs/metrics.h write the run total and the window in one call. Zero
//     cost when disabled, like every hook there; when enabled, the hooks'
//     MetricId resolves to its series through a by-id index (obs/metric_id.h).
//   * One recorder per shard (inside the shard's registry); the study/chaos
//     driver merges shard registries in canonical shard order afterwards.
//     Merge is BUCKET-WISE: counter windows add, gauge windows take the
//     merged-in value (last-writer in merge order), histogram windows merge
//     exactly like run-level histograms — so timeline.json is byte-identical
//     at any --jobs value.
//   * Bucketing is integral: window index = at.count() / bucket.count(), so
//     a sample lands in the same window on every platform.
//   * Export convention (PR 4): an empty window exports `count: 0` ONLY —
//     quantiles or values fabricated from zero samples never appear.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.h"
#include "obs/metric_id.h"
#include "util/types.h"

namespace h3cdn::obs {

/// Buckets named series into fixed simulated-time windows.
class TimelineRecorder {
 public:
  /// Default window: fine enough to localize a 700 ms outage, coarse enough
  /// that a multi-second chaos cell stays a few dozen windows.
  static constexpr Duration kDefaultBucket = msec(250);

  explicit TimelineRecorder(Duration bucket = kDefaultBucket);
  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  [[nodiscard]] Duration bucket_width() const { return bucket_; }

  /// Window index of a simulated instant (integral floor division; negative
  /// instants clamp to window 0 — sim time starts at zero).
  [[nodiscard]] std::int64_t bucket_of(TimePoint at) const {
    return at.count() <= 0 ? 0 : at.count() / bucket_.count();
  }

  /// Last gauge value written in a window, plus how many writes landed there
  /// (`sets` == 0 never occurs in a stored bucket; empty windows are absent).
  struct GaugeBucket {
    std::uint64_t sets = 0;
    double last = 0.0;
  };

  // Sparse storage: only touched windows exist; exporters densify.
  using CounterSeries = std::map<std::int64_t, std::uint64_t>;
  using GaugeSeries = std::map<std::int64_t, GaugeBucket>;
  using HistogramSeries = std::map<std::int64_t, Histogram>;

  /// By-name recording: merges, tests and cold paths.
  void count(const std::string& name, TimePoint at, std::uint64_t n = 1) {
    add_count(counters_[name], at, n);
  }
  void gauge_set(const std::string& name, TimePoint at, double v) {
    set_gauge(gauges_[name], at, v);
  }
  void observe(const std::string& name, TimePoint at, double v) {
    histograms_[name][bucket_of(at)].observe(v);
  }

  /// By-id recording: the hooks' path. The first call per id resolves by name.
  void count(MetricId id, TimePoint at, std::uint64_t n = 1) {
    add_count(resolve(counter_index_, counters_, id), at, n);
  }
  void gauge_set(MetricId id, TimePoint at, double v) {
    set_gauge(resolve(gauge_index_, gauges_, id), at, v);
  }
  void observe(MetricId id, TimePoint at, double v) {
    resolve(histogram_index_, histograms_, id)[bucket_of(at)].observe(v);
  }

  [[nodiscard]] const std::map<std::string, CounterSeries>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, GaugeSeries>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, HistogramSeries>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Highest touched window index + 1 across every series (0 when nothing
  /// was recorded) — the dense export span.
  [[nodiscard]] std::int64_t span_buckets() const;

  /// Sum of a counter series over a window range [first, last] inclusive.
  [[nodiscard]] std::uint64_t counter_in_range(const std::string& name, std::int64_t first,
                                               std::int64_t last) const;

  void clear();

  /// Bucket-wise fold of `other` into this recorder. Counter windows add
  /// (exact), histogram windows merge via Histogram::merge_from, gauge
  /// windows take `other`'s value when `other` touched the window — callers
  /// merge shards in canonical shard order, which makes the result (and its
  /// byte exports) independent of thread scheduling. Bucket widths must
  /// match (H3CDN_EXPECTS).
  void merge_from(const TimelineRecorder& other);

 private:
  template <typename Series>
  static Series& resolve(MetricIndex<Series>& index, std::map<std::string, Series>& storage,
                         MetricId id) {
    if (Series* series = index.find(id)) return *series;
    return index.remember(id, storage[id.name()]);
  }
  void add_count(CounterSeries& series, TimePoint at, std::uint64_t n) {
    series[bucket_of(at)] += n;
  }
  void set_gauge(GaugeSeries& series, TimePoint at, double v) {
    GaugeBucket& b = series[bucket_of(at)];
    ++b.sets;
    b.last = v;
  }

  Duration bucket_;
  std::map<std::string, CounterSeries> counters_;
  std::map<std::string, GaugeSeries> gauges_;
  std::map<std::string, HistogramSeries> histograms_;
  MetricIndex<CounterSeries> counter_index_;
  MetricIndex<GaugeSeries> gauge_index_;
  MetricIndex<HistogramSeries> histogram_index_;
};

// --- Exporters --------------------------------------------------------------

/// {"bucket_ms", "span_buckets", "series": {name: {kind, points: [...]}}}.
/// Points are DENSE over [0, span_buckets): every series exports one point
/// per window with `t_ms` (window start) and `count`; windows the series
/// never touched export `count: 0` only. Non-empty points add `value` (the
/// window's counter total / last gauge value) and, for histograms, the
/// sum/min/max/mean/p50/p90/p99 summary.
[[nodiscard]] std::string timeline_to_json(const TimelineRecorder& recorder);

/// One row per (series, window): `series,kind,t_ms,count,value,p50,p90,p99,max`
/// — dense like the JSON export; empty windows leave everything past `count`
/// blank.
[[nodiscard]] std::string timeline_to_csv(const TimelineRecorder& recorder);

}  // namespace h3cdn::obs
