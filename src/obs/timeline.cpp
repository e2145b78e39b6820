#include "obs/timeline.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/json.h"

namespace h3cdn::obs {

TimelineRecorder::TimelineRecorder(Duration bucket) : bucket_(bucket) {
  H3CDN_EXPECTS(bucket_.count() > 0);
}

std::int64_t TimelineRecorder::span_buckets() const {
  std::int64_t last = -1;
  for (const auto& [name, series] : counters_) {
    if (!series.empty()) last = std::max(last, series.rbegin()->first);
  }
  for (const auto& [name, series] : gauges_) {
    if (!series.empty()) last = std::max(last, series.rbegin()->first);
  }
  for (const auto& [name, series] : histograms_) {
    if (!series.empty()) last = std::max(last, series.rbegin()->first);
  }
  return last + 1;
}

std::uint64_t TimelineRecorder::counter_in_range(const std::string& name, std::int64_t first,
                                                 std::int64_t last) const {
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  std::uint64_t total = 0;
  for (auto b = it->second.lower_bound(first); b != it->second.end() && b->first <= last; ++b) {
    total += b->second;
  }
  return total;
}

void TimelineRecorder::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  counter_index_.clear();
  gauge_index_.clear();
  histogram_index_.clear();
}

void TimelineRecorder::merge_from(const TimelineRecorder& other) {
  H3CDN_EXPECTS(bucket_ == other.bucket_);
  for (const auto& [name, series] : other.counters_) {
    CounterSeries& mine = counters_[name];
    for (const auto& [window, n] : series) mine[window] += n;
  }
  for (const auto& [name, series] : other.gauges_) {
    GaugeSeries& mine = gauges_[name];
    for (const auto& [window, b] : series) {
      GaugeBucket& slot = mine[window];
      slot.sets += b.sets;
      slot.last = b.last;  // merged-in shard wins the window (canonical order)
    }
  }
  for (const auto& [name, series] : other.histograms_) {
    HistogramSeries& mine = histograms_[name];
    for (const auto& [window, h] : series) mine[window].merge_from(h);
  }
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void write_histogram_point(util::JsonWriter& w, double t_ms, const Histogram* h) {
  w.begin_object();
  w.kv("t_ms", t_ms);
  w.kv("count", h ? h->count() : 0);
  if (h != nullptr && h->count() > 0) {
    w.kv("sum", h->sum());
    w.kv("min", h->min());
    w.kv("max", h->max());
    w.kv("mean", h->mean());
    w.kv("p50", h->p50());
    w.kv("p90", h->p90());
    w.kv("p99", h->p99());
  }
  w.end_object();
}

}  // namespace

std::string timeline_to_json(const TimelineRecorder& recorder) {
  const std::int64_t span = recorder.span_buckets();
  const double bucket_ms = to_ms(recorder.bucket_width());
  util::JsonWriter w;
  w.begin_object();
  w.kv("bucket_ms", bucket_ms);
  w.kv("span_buckets", span);
  w.kv("series_count", static_cast<std::uint64_t>(recorder.series_count()));
  w.key("series").begin_object();
  // One merged name space, lexicographic like metrics.json. Kinds never
  // collide on a name (counter() / gauge_set() / observe() address disjoint
  // maps and call sites keep one kind per series).
  for (const auto& [name, series] : recorder.counters()) {
    w.key(name).begin_object();
    w.kv("kind", "counter");
    w.key("points").begin_array();
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      const std::uint64_t n = it == series.end() ? 0 : it->second;
      w.begin_object();
      w.kv("t_ms", static_cast<double>(window) * bucket_ms);
      w.kv("count", n);
      if (n != 0) w.kv("value", static_cast<double>(n));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  for (const auto& [name, series] : recorder.gauges()) {
    w.key(name).begin_object();
    w.kv("kind", "gauge");
    w.key("points").begin_array();
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      w.begin_object();
      w.kv("t_ms", static_cast<double>(window) * bucket_ms);
      w.kv("count", it == series.end() ? 0 : it->second.sets);
      if (it != series.end()) w.kv("value", it->second.last);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  for (const auto& [name, series] : recorder.histograms()) {
    w.key(name).begin_object();
    w.kv("kind", "histogram");
    w.key("points").begin_array();
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      write_histogram_point(w, static_cast<double>(window) * bucket_ms,
                            it == series.end() ? nullptr : &it->second);
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string timeline_to_csv(const TimelineRecorder& recorder) {
  const std::int64_t span = recorder.span_buckets();
  const double bucket_ms = to_ms(recorder.bucket_width());
  std::string out = "series,kind,t_ms,count,value,p50,p90,p99,max\n";
  const auto row_head = [&](const std::string& name, const char* kind, std::int64_t window) {
    out += name;
    out += ',';
    out += kind;
    out += ',';
    out += format_double(static_cast<double>(window) * bucket_ms);
    out += ',';
  };
  for (const auto& [name, series] : recorder.counters()) {
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      const std::uint64_t n = it == series.end() ? 0 : it->second;
      row_head(name, "counter", window);
      out += std::to_string(n);
      if (n != 0) {
        out += ',';
        out += std::to_string(n);
        out += ",,,,\n";
      } else {
        out += ",,,,,\n";
      }
    }
  }
  for (const auto& [name, series] : recorder.gauges()) {
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      row_head(name, "gauge", window);
      if (it == series.end()) {
        out += "0,,,,,\n";
      } else {
        out += std::to_string(it->second.sets) + ',' + format_double(it->second.last) + ",,,,\n";
      }
    }
  }
  for (const auto& [name, series] : recorder.histograms()) {
    for (std::int64_t window = 0; window < span; ++window) {
      const auto it = series.find(window);
      row_head(name, "histogram", window);
      if (it == series.end() || it->second.count() == 0) {
        out += "0,,,,,\n";
      } else {
        const Histogram& h = it->second;
        out += std::to_string(h.count()) + ',' + format_double(h.mean()) + ',' +
               format_double(h.p50()) + ',' + format_double(h.p90()) + ',' +
               format_double(h.p99()) + ',' + format_double(h.max()) + '\n';
      }
    }
  }
  return out;
}

}  // namespace h3cdn::obs
