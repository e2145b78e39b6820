// MetricId: an interned handle to a metric name, resolved once per call site.
//
// Every instrumentation hook in obs/metrics.h takes a MetricId rather than a
// name. Declaring the id interns its name into a process-wide, append-only
// table (mutex-guarded, once per declaration) and gives it a dense index; a
// registry, timeline or profiler then finds its series through a vector slot
// at that index instead of building a std::string and searching a map on
// every event. A call site declares its ids once, at namespace scope:
//
//   const obs::MetricId kPacketsOffered{"net.link.packets_offered"};
//   ...
//   obs::count(kPacketsOffered);
//
// Two declarations of one name share one index, so they address one series.
// The name stays the storage and export key: exports, merges and by-name
// readers never see the index, which depends on declaration order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace h3cdn::obs {

class MetricId {
 public:
  /// Interns `name` (thread-safe). Explicit so no hook can take a bare string
  /// and intern it on every call.
  explicit MetricId(std::string_view name);

  /// Dense index into the intern table: 0, 1, 2, ... in first-intern order.
  [[nodiscard]] std::uint32_t index() const { return index_; }
  /// The interned name; lives for the rest of the process.
  [[nodiscard]] const std::string& name() const { return *name_; }

  friend bool operator==(MetricId a, MetricId b) { return a.index_ == b.index_; }

 private:
  std::uint32_t index_;
  const std::string* name_;
};

/// A per-sink index from MetricId to the sink's series for that name. The
/// sink keeps the series in its own name-ordered storage; the index caches a
/// pointer to it, filled on first use and emptied by the sink's clear().
template <typename T>
class MetricIndex {
 public:
  /// The cached series of `id`, or nullptr when this sink has not resolved it.
  [[nodiscard]] T* find(MetricId id) const {
    return id.index() < slots_.size() ? slots_[id.index()] : nullptr;
  }
  T& remember(MetricId id, T& series) {
    if (id.index() >= slots_.size()) slots_.resize(id.index() + 1, nullptr);
    slots_[id.index()] = &series;
    return series;
  }
  void clear() { slots_.clear(); }

 private:
  std::vector<T*> slots_;
};

}  // namespace h3cdn::obs
