#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace h3cdn::obs {

void PhaseProfiler::merge_from(const PhaseProfiler& other) {
  for (const auto& [name, p] : other.phases_) {
    Phase& phase = phases_[name];
    phase.calls += p.calls;
    phase.total_ns += p.total_ns;
    phase.max_ns = std::max(phase.max_ns, p.max_ns);
  }
}

std::string PhaseProfiler::report() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %10s %12s %10s %10s\n", "phase", "calls", "total ms",
                "mean us", "max us");
  out += line;
  for (const auto& [name, p] : phases_) {
    const double total_ms = static_cast<double>(p.total_ns) / 1e6;
    const double mean_us =
        p.calls ? static_cast<double>(p.total_ns) / (1e3 * static_cast<double>(p.calls)) : 0.0;
    const double max_us = static_cast<double>(p.max_ns) / 1e3;
    std::snprintf(line, sizeof line, "%-28s %10llu %12.2f %10.2f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(p.calls), total_ms, mean_us, max_us);
    out += line;
  }
  return out;
}

std::string PhaseProfiler::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("phases").begin_object();
  for (const auto& [name, p] : phases_) {
    w.key(name).begin_object();
    w.kv("calls", p.calls);
    w.kv("total_ms", static_cast<double>(p.total_ns) / 1e6);
    w.kv("mean_us",
         p.calls ? static_cast<double>(p.total_ns) / (1e3 * static_cast<double>(p.calls)) : 0.0);
    w.kv("max_us", static_cast<double>(p.max_ns) / 1e3);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace h3cdn::obs
