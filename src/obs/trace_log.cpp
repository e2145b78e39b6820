#include "obs/trace_log.h"

#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace h3cdn::obs {

const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::HandshakeStarted: return "handshake_started";
    case TraceEventType::HandshakeFinished: return "handshake_finished";
    case TraceEventType::StreamOpened: return "stream_opened";
    case TraceEventType::StreamFinished: return "stream_finished";
    case TraceEventType::PacketSent: return "packet_sent";
    case TraceEventType::PacketReceived: return "packet_received";
    case TraceEventType::PacketAcked: return "packet_acked";
    case TraceEventType::PacketLost: return "packet_lost";
    case TraceEventType::Retransmission: return "packet_retransmitted";
    case TraceEventType::RtoFired: return "loss_timer_fired";
    case TraceEventType::CwndUpdated: return "congestion_window_updated";
    case TraceEventType::HandshakeRetry: return "handshake_retry";
    case TraceEventType::ConnectionAborted: return "connection_aborted";
    case TraceEventType::FallbackTriggered: return "fallback_triggered";
    case TraceEventType::H3BrokenMarked: return "h3_broken_marked";
    case TraceEventType::H3ReProbe: return "h3_reprobe";
    case TraceEventType::StreamStallSpan: return "stream_stall_span";
    case TraceEventType::FlowControlStallSpan: return "flow_control_stall_span";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::Outage: return "outage";
    case FaultKind::HandshakeTimeout: return "handshake_timeout";
    case FaultKind::Blackhole: return "blackhole";
    case FaultKind::Refused: return "server_refused";
  }
  return "?";
}

std::size_t TraceTrack::count(TraceEventType type) const {
  std::size_t n = 0;
  for (const TraceEvent& e : events) n += e.type == type;
  return n;
}

void TraceHandle::record(const TraceEvent& event) const {
  if (track_ == nullptr) return;
  std::deque<TraceEvent>& events = track_->events;
  H3CDN_EXPECTS(events.empty() || event.at >= events.back().at);
  if (events.size() >= TraceLog::kTrackCapacity) {
    events.pop_front();
    ++track_->dropped_events;
  }
  events.push_back(event);
}

TraceHandle TraceLog::open(std::string label) {
  tracks_.push_back(TraceTrack{std::move(label), {}, 0});
  return TraceHandle(&tracks_.back());
}

TraceHandle TraceLog::open_connection(const std::string& label) {
  ++connection_requests_;
  if (connection_tracks_ >= max_connection_tracks_) return {};
  ++connection_tracks_;
  return open(label + "#" + std::to_string(connection_requests_));
}

void TraceLog::set_shard_count(std::size_t shards) {
  H3CDN_EXPECTS(shards >= 1);
  max_connection_tracks_ = (kMaxConnectionTracks + shards - 1) / shards;
}

void TraceLog::merge_from(const TraceLog& other) {
  for (const TraceTrack& t : other.tracks_) tracks_.push_back(t);
  connection_tracks_ += other.connection_tracks_;
  connection_requests_ += other.connection_requests_;
}

void TraceLog::merge_from(TraceLog&& other) {
  for (TraceTrack& t : other.tracks_) tracks_.push_back(std::move(t));
  connection_tracks_ += other.connection_tracks_;
  connection_requests_ += other.connection_requests_;
  other.clear();
}

void TraceLog::clear() {
  tracks_.clear();
  connection_tracks_ = 0;
  connection_requests_ = 0;
}

std::size_t TraceLog::event_count() const {
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) n += t.events.size();
  return n;
}

std::uint64_t TraceLog::dropped_events() const {
  std::uint64_t n = 0;
  for (const TraceTrack& t : tracks_) n += t.dropped_events;
  return n;
}

namespace {

const char* category_of(TraceEventType t) {
  switch (t) {
    case TraceEventType::HandshakeStarted:
    case TraceEventType::HandshakeFinished: return "security";
    case TraceEventType::StreamOpened:
    case TraceEventType::StreamFinished: return "http";
    case TraceEventType::PacketSent:
    case TraceEventType::PacketReceived:
    case TraceEventType::PacketAcked: return "transport";
    default: return "recovery";
  }
}

const char* direction_of(const TraceEvent& e) {
  return e.is_client_to_server ? "client_to_server" : "server_to_client";
}

void write_event_data(util::JsonWriter& w, const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::PacketSent:
    case TraceEventType::PacketReceived:
    case TraceEventType::PacketAcked:
    case TraceEventType::PacketLost:
    case TraceEventType::Retransmission:
      w.kv("packet_number", e.packet_number);
      w.kv("stream_id", e.stream_id);
      w.kv("payload_length", e.bytes);
      w.kv("direction", direction_of(e));
      break;
    case TraceEventType::CwndUpdated:
      w.kv("congestion_window_packets", e.cwnd);
      w.kv("direction", direction_of(e));
      break;
    case TraceEventType::StreamOpened:
    case TraceEventType::StreamFinished:
      w.kv("stream_id", e.stream_id);
      w.kv("length", e.bytes);
      break;
    case TraceEventType::HandshakeStarted:
    case TraceEventType::HandshakeFinished:
      break;
    case TraceEventType::RtoFired:
      w.kv("direction", direction_of(e));
      break;
    case TraceEventType::HandshakeRetry:
    case TraceEventType::ConnectionAborted:
    case TraceEventType::FallbackTriggered:
    case TraceEventType::H3BrokenMarked:
    case TraceEventType::H3ReProbe:
      w.kv("trigger", to_string(e.fault));
      break;
    case TraceEventType::StreamStallSpan:
      w.kv("stream_id", e.stream_id);
      w.kv("blocked_bytes", e.bytes);
      w.kv("duration_ms", e.duration_ms);
      w.kv("kind", e.cross_stream ? "hol_blocking" : "retransmission_wait");
      break;
    case TraceEventType::FlowControlStallSpan:
      w.kv("duration_ms", e.duration_ms);
      w.kv("direction", direction_of(e));
      w.kv("kind", "connection_flow_control");
      break;
  }
}

void write_track(util::JsonWriter& w, const TraceTrack& track) {
  w.begin_object();
  w.key("common_fields").begin_object();
  w.kv("ODCID", track.label);
  w.kv("time_format", "relative");
  if (track.dropped_events != 0) w.kv("dropped_events", track.dropped_events);
  w.end_object();
  w.key("events").begin_array();
  for (const TraceEvent& e : track.events) {
    w.begin_object();
    w.kv("time", to_ms(e.at));
    w.kv("category", category_of(e.type));
    w.kv("name", to_string(e.type));
    w.key("data").begin_object();
    write_event_data(w, e);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string to_qlog_json(const TraceLog& log) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("qlog_format", "JSON");
  w.kv("qlog_version", "0.4");
  w.key("traces").begin_array();
  for (const TraceTrack& t : log.tracks()) write_track(w, t);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace h3cdn::obs
