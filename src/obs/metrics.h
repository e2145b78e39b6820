// Run-wide metrics registry: named counters, gauges, and log-bucketed
// HDR-style histograms that every simulator layer (net, transport, tls, dns,
// http, cdn, browser, sim) registers into. The registry is a shard's only
// recording sink: it also owns the shard's sim-time TimelineRecorder
// (obs/timeline.h) and wall-clock PhaseProfiler (obs/profiler.h), so one
// installed pointer routes every hook below.
//
// Design rules:
//   * Instrumentation is zero-cost when disabled. No registry is installed by
//     default; the obs::count/observe/sample hooks and ProfileScope compile
//     to a single pointer null-check in that case. Benchmarks hold the hot
//     paths to < 2% overhead versus un-instrumented code.
//   * One hook call per event. The untimed hooks feed the run totals only;
//     the timed overloads take the simulated instant `at` and feed the run
//     totals and the timeline window holding `at`.
//   * Each simulator shard is single-threaded and records into its own
//     registry, so metrics are plain integers — no atomics, no locks,
//     bit-reproducible given a deterministic run. The installed-registry
//     pointer is thread_local: a shard task installs its private registry on
//     the worker thread it runs on, and the study merges shard registries in
//     canonical shard order afterwards (merge_from), which keeps parallel
//     runs byte-identical to sequential ones. See docs/PARALLELISM.md.
//   * Naming convention: `<layer>.<subsystem>.<metric>` with the layer
//     prefix taken from the source directory (net., transport., tls., dns.,
//     http., cdn., browser., sim.). docs/OBSERVABILITY.md lists every series.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/histogram.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "util/types.h"

namespace h3cdn::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

  /// Shard merge: counts add. Exact (integer), so merge order is irrelevant.
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

  /// Shard merge: last-writer-wins in merge order. Callers merge shards in
  /// canonical shard order, so the merged value is the last shard's — the
  /// same value a sequential run would have ended with.
  void merge_from(const Gauge& other) { value_ = other.value_; }

 private:
  double value_ = 0.0;
};

/// One run's named metrics, its timeline and its phase profile. Metric
/// objects are owned by the registry and their addresses are stable for its
/// lifetime; lookups create on first use. Iteration order is the
/// lexicographic name order (deterministic exports).
class MetricsRegistry {
 public:
  /// `timeline_bucket` is the window width of the owned timeline.
  explicit MetricsRegistry(Duration timeline_bucket = TimelineRecorder::kDefaultBucket)
      : timeline_(timeline_bucket) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] TimelineRecorder& timeline() { return timeline_; }
  [[nodiscard]] const TimelineRecorder& timeline() const { return timeline_; }
  [[nodiscard]] PhaseProfiler& profiler() { return profiler_; }
  [[nodiscard]] const PhaseProfiler& profiler() const { return profiler_; }

  /// Number of distinct named series (counters + gauges + histograms).
  [[nodiscard]] std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Empties the run totals, the timeline and the profile.
  void clear();

  /// Folds `other` into this registry: counters and histogram buckets add,
  /// gauges take `other`'s value (last-writer in merge order), series missing
  /// here are created; the timelines merge bucket-wise
  /// (TimelineRecorder::merge_from) and the profiles phase-wise. Merging
  /// every shard in canonical shard order reproduces, series for series,
  /// what one shared registry would have recorded sequentially (histogram
  /// `sum` is reproducible per merge order; see Histogram::merge_from).
  void merge_from(const MetricsRegistry& other);

  /// The registry installed on the *current thread* that instrumentation
  /// hooks report into, or nullptr when observability is disabled (the
  /// default). Thread-local so concurrent shard tasks each record into their
  /// own sink.
  [[nodiscard]] static MetricsRegistry* global();

  /// Installs `registry` (may be nullptr to disable); returns the previous
  /// one. Prefer ScopedMetrics for exception-safe install/restore.
  static MetricsRegistry* set_global(MetricsRegistry* registry);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  TimelineRecorder timeline_;
  PhaseProfiler profiler_;
};

namespace detail {
/// Per-thread registry pointer. Lives in the header as an inline variable so
/// global() inlines into the instrumentation hooks — the disabled path must
/// be one thread-local load + one branch, not a function call. thread_local
/// (rather than a single process-wide pointer) is what lets shard tasks on a
/// ThreadPool each install their own registry without locking.
inline thread_local MetricsRegistry* g_metrics_registry = nullptr;
}  // namespace detail

inline MetricsRegistry* MetricsRegistry::global() { return detail::g_metrics_registry; }

inline MetricsRegistry* MetricsRegistry::set_global(MetricsRegistry* registry) {
  MetricsRegistry* previous = detail::g_metrics_registry;
  detail::g_metrics_registry = registry;
  return previous;
}

/// RAII install/restore of the current thread's registry. Install and
/// restore happen on the constructing thread; a shard task running on a pool
/// worker scopes its own registry without affecting other threads.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry)
      : previous_(MetricsRegistry::set_global(registry)) {}
  ~ScopedMetrics() { MetricsRegistry::set_global(previous_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// True when a registry is installed (observability enabled).
[[nodiscard]] inline bool enabled() { return MetricsRegistry::global() != nullptr; }

// --- Instrumentation hooks: one null-check when observability is off. -------
// One call per event. The timed overloads carry the simulated instant `at`
// explicitly: every call site already holds its Simulator clock, and passing
// it keeps the registry free of any simulator dependency.

inline void count(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->counter(name).inc(n);
}

/// Counts into the run total and the timeline window holding `at`.
inline void count(const char* name, TimePoint at, std::uint64_t n = 1) {
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->counter(name).inc(n);
    r->timeline().count(name, at, n);
  }
}

inline void observe(const char* name, double v) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->histogram(name).observe(v);
}

/// Observes into the run histogram and the timeline window holding `at`.
inline void observe(const char* name, TimePoint at, double v) {
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->histogram(name).observe(v);
    r->timeline().observe(name, at, v);
  }
}

/// Records a simulated duration in fractional milliseconds.
inline void observe_ms(const char* name, Duration d) { observe(name, to_ms(d)); }

/// Records a simulated duration in fractional milliseconds, windowed at `at`.
inline void observe_ms(const char* name, TimePoint at, Duration d) { observe(name, at, to_ms(d)); }

/// Records a sampled level (queue depth, busy cores): a histogram of every
/// sample in the run totals, and the window's last value as a timeline gauge.
inline void sample(const char* name, TimePoint at, double v) {
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->histogram(name).observe(v);
    r->timeline().gauge_set(name, at, v);
  }
}

/// RAII wall-clock scope timer into the installed registry's profiler.
/// `name` must outlive the scope (use string literals). Costs one branch
/// when no registry is installed.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) : registry_(MetricsRegistry::global()), name_(name) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->profiler().record(
        name_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

// --- Exporters --------------------------------------------------------------

/// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
[[nodiscard]] std::string metrics_to_json(const MetricsRegistry& registry);

/// One row per series: `name,kind,field,value` (histograms expand to
/// count/sum/min/max/mean/p50/p90/p99/p999 rows).
[[nodiscard]] std::string metrics_to_csv(const MetricsRegistry& registry);

/// Prometheus text exposition format ('.'s become '_'s; histograms export as
/// summaries with quantile labels).
[[nodiscard]] std::string metrics_to_prometheus(const MetricsRegistry& registry);

}  // namespace h3cdn::obs
