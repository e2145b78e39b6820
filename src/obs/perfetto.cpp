#include "obs/perfetto.h"

#include <algorithm>

#include "util/json.h"

namespace h3cdn::obs {

namespace {

constexpr double kUsPerMs = 1000.0;

/// Metadata event naming a process or thread track.
void write_metadata(util::JsonWriter& w, const char* what, std::int64_t pid, std::int64_t tid,
                    const std::string& name) {
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", what);
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.key("args").begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

/// Complete span ("X"): ts/dur in microseconds.
void begin_span(util::JsonWriter& w, const std::string& name, const char* category,
                std::int64_t pid, std::int64_t tid, double start_ms, double duration_ms) {
  w.begin_object();
  w.kv("ph", "X");
  w.kv("name", name);
  w.kv("cat", category);
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.kv("ts", start_ms * kUsPerMs);
  w.kv("dur", duration_ms * kUsPerMs);
}

void write_page(util::JsonWriter& w, const Waterfall& page, std::int64_t pid) {
  std::string process_name = page.site;
  if (!page.vantage.empty()) process_name += " [" + page.vantage + "]";
  write_metadata(w, "process_name", pid, 0, process_name);
  write_metadata(w, "thread_name", pid, 0, "page");

  begin_span(w, "page-load: " + page.site, "page", pid, 0, 0.0, page.page_load_time_ms);
  w.key("args").begin_object();
  w.kv("h3_enabled", page.h3_enabled);
  w.kv("resources", static_cast<std::uint64_t>(page.entries.size()));
  w.kv("connections_created", page.connections_created);
  w.kv("connection_deaths", page.connection_deaths);
  w.kv("h3_fallbacks", page.h3_fallbacks);
  w.end_object();
  w.end_object();

  for (const WaterfallEntry& e : page.entries) {
    const std::int64_t tid = static_cast<std::int64_t>(e.connection_id) + 1;
    write_metadata(w, "thread_name", pid, tid, "conn " + std::to_string(e.connection_id));
    begin_span(w, e.url, e.failed ? "request.failed" : "request", pid, tid, e.start_ms,
               e.total_ms());
    w.key("args").begin_object();
    w.kv("protocol", e.protocol);
    w.kv("type", e.type);
    w.kv("domain", e.domain);
    w.kv("dns_ms", e.dns_ms);
    w.kv("blocked_ms", e.blocked_ms);
    w.kv("connect_ms", e.connect_ms);
    w.kv("wait_ms", e.wait_ms);
    w.kv("receive_ms", e.receive_ms);
    w.kv("response_bytes", e.response_bytes);
    w.kv("reused_connection", e.reused_connection);
    w.kv("from_cache", e.from_cache);
    if (!e.annotation.empty()) w.kv("annotation", e.annotation);
    w.end_object();
    w.end_object();
  }
}

bool is_fault_bus_event(TraceEventType t) {
  return t == TraceEventType::ConnectionAborted || t == TraceEventType::FallbackTriggered ||
         t == TraceEventType::H3BrokenMarked || t == TraceEventType::H3ReProbe;
}

struct FaultInstant {
  const std::string* label;
  const TraceEvent* event;
};

void write_fault_track(util::JsonWriter& w, const TraceLog& traces) {
  // Select first, then order: ties at one instant keep track order, then
  // record order, as a stable sort of the whole stream would.
  std::vector<FaultInstant> faults;
  for (const TraceTrack& track : traces.tracks()) {
    for (const TraceEvent& e : track.events) {
      if (is_fault_bus_event(e.type)) faults.push_back(FaultInstant{&track.label, &e});
    }
  }
  if (faults.empty()) return;
  std::stable_sort(faults.begin(), faults.end(), [](const FaultInstant& a, const FaultInstant& b) {
    return a.event->at < b.event->at;
  });
  write_metadata(w, "process_name", 0, 0, "faults");
  write_metadata(w, "thread_name", 0, 0, "fault bus");
  for (const FaultInstant& fault : faults) {
    const TraceEvent& e = *fault.event;
    w.begin_object();
    w.kv("ph", "i");
    w.kv("name", to_string(e.type));
    w.kv("cat", "fault");
    w.kv("s", "g");  // global-scope instant: draws a full-height marker
    w.kv("pid", 0);
    w.kv("tid", 0);
    w.kv("ts", to_ms(e.at - TimePoint{0}) * kUsPerMs);
    w.key("args").begin_object();
    w.kv("trace", *fault.label);
    if (e.fault != FaultKind::None) w.kv("fault_kind", to_string(e.fault));
    w.end_object();
    w.end_object();
  }
}

}  // namespace

std::string to_chrome_trace_json(const std::vector<Waterfall>& waterfalls,
                                 const TraceLog* traces) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < waterfalls.size(); ++i) {
    write_page(w, waterfalls[i], static_cast<std::int64_t>(i) + 1);
  }
  if (traces != nullptr) write_fault_track(w, *traces);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace h3cdn::obs
