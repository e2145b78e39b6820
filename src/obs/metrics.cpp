#include "obs/metrics.h"

#include <cstdio>
#include <utility>

#include "util/json.h"

namespace h3cdn::obs {

namespace {

/// One map search: the slot is created empty and filled only when new.
template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& series, const std::string& name) {
  const auto [it, inserted] = series.try_emplace(name);
  if (inserted) it->second = std::make_unique<T>();
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return find_or_create(gauges_, name); }

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return find_or_create(histograms_, name);
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  counter_index_.clear();
  histogram_index_.clear();
  timeline_.clear();
  profiler_.clear();
  traces_.clear();
}

void MetricsRegistry::merge_series(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).merge_from(*c);
  for (const auto& [name, g] : other.gauges_) gauge(name).merge_from(*g);
  for (const auto& [name, h] : other.histograms_) histogram(name).merge_from(*h);
  timeline_.merge_from(other.timeline_);
  profiler_.merge_from(other.profiler_);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  merge_series(other);
  traces_.merge_from(other.traces_);
}

void MetricsRegistry::merge_from(MetricsRegistry&& other) {
  merge_series(other);
  traces_.merge_from(std::move(other.traces_));
}

namespace {

void write_histogram_summary(util::JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  if (h.count() == 0) {
    // No samples means no distribution: exporting zero-filled quantiles would
    // fabricate data (a 0 ms p99 reads as "fast", not "never happened").
    w.end_object();
    return;
  }
  w.kv("sum", h.sum());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("mean", h.mean());
  w.kv("p50", h.p50());
  w.kv("p90", h.p90());
  w.kv("p99", h.p99());
  w.kv("p999", h.p999());
  w.end_object();
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  // Metric names must not start with a digit ([a-zA-Z_:] first), which an
  // arbitrary registry key can violate after sanitization.
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  if (out.empty()) out = "_";
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline only.
std::string prometheus_help_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Label VALUE escaping: backslash, newline, and double quote.
std::string prometheus_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& registry) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("series_count", static_cast<std::uint64_t>(registry.series_count()));
  w.key("counters").begin_object();
  for (const auto& [name, c] : registry.counters()) w.kv(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : registry.gauges()) w.kv(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : registry.histograms()) {
    w.key(name);
    write_histogram_summary(w, *h);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string metrics_to_csv(const MetricsRegistry& registry) {
  std::string out = "name,kind,field,value\n";
  for (const auto& [name, c] : registry.counters()) {
    out += name + ",counter,value," + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : registry.gauges()) {
    out += name + ",gauge,value," + format_double(g->value()) + '\n';
  }
  for (const auto& [name, h] : registry.histograms()) {
    const auto row = [&](const char* field, double v) {
      out += name + ",histogram," + field + ',' + format_double(v) + '\n';
    };
    out += name + ",histogram,count," + std::to_string(h->count()) + '\n';
    if (h->count() == 0) continue;  // count only: no samples, no quantiles
    row("sum", h->sum());
    row("min", h->min());
    row("max", h->max());
    row("mean", h->mean());
    row("p50", h->p50());
    row("p90", h->p90());
    row("p99", h->p99());
    row("p999", h->p999());
  }
  return out;
}

std::string metrics_to_prometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, c] : registry.counters()) {
    const std::string pname = prometheus_name(name);
    out += "# HELP " + pname + " Simulated-run counter " + prometheus_help_escape(name) + ".\n";
    out += "# TYPE " + pname + " counter\n";
    out += pname + ' ' + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string pname = prometheus_name(name);
    out += "# HELP " + pname + " Simulated-run gauge " + prometheus_help_escape(name) + ".\n";
    out += "# TYPE " + pname + " gauge\n";
    out += pname + ' ' + format_double(g->value()) + '\n';
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string pname = prometheus_name(name);
    out += "# HELP " + pname + " Simulated-run distribution " + prometheus_help_escape(name) +
           ".\n";
    out += "# TYPE " + pname + " summary\n";
    if (h->count() > 0) {  // quantiles of an empty summary would be fabricated
      const auto quantile = [&](const char* q, double v) {
        out += pname + "{quantile=\"" + prometheus_label_escape(q) + "\"} " +
               format_double(v) + '\n';
      };
      quantile("0.5", h->p50());
      quantile("0.9", h->p90());
      quantile("0.99", h->p99());
      quantile("0.999", h->p999());
      out += pname + "_sum " + format_double(h->sum()) + '\n';
    }
    out += pname + "_count " + std::to_string(h->count()) + '\n';
  }
  return out;
}

}  // namespace h3cdn::obs
