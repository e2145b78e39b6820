// TraceLog: a run's one stream of qlog-style events (draft-ietf-quic-qlog).
//
// Transport events (packets sent/received/acked/lost, recovery timers, cwnd
// updates, handshake and stream milestones) and pool fault events
// (fallbacks, H3-broken marks, re-probes) are recorded with their simulated
// timestamps into labelled tracks: one per traced connection and one
// "<run>/pool" bus track per traced run. Each obs::MetricsRegistry owns one
// log beside its timeline and profiler, so a shard's tracks share its
// Simulator clock and merge with the rest of the shard.
//
// Recording goes through a TraceHandle, a non-owning pointer to one track; a
// default handle records nothing. Tracks are rings of at most kTrackCapacity
// events that grow on demand. qlog.json (to_qlog_json below) and the fault
// track of trace.perfetto.json (obs/perfetto.h) are the two exporters.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "util/types.h"

namespace h3cdn::obs {

enum class TraceEventType {
  HandshakeStarted,
  HandshakeFinished,
  StreamOpened,
  StreamFinished,
  PacketSent,
  PacketReceived,
  PacketAcked,
  PacketLost,
  Retransmission,
  RtoFired,
  CwndUpdated,
  // Fault injection & recovery (see docs/FAULTS.md).
  HandshakeRetry,     // handshake timer fired; attempt retransmitted
  ConnectionAborted,  // connection declared dead with a typed reason
  FallbackTriggered,  // pool re-submitted an orphaned request elsewhere
  H3BrokenMarked,     // host marked "H3 broken" after an H3 death
  H3ReProbe,          // broken mark expired; H3 re-attempted
  // Closed intervals, recorded when they end; `duration_ms` spans them.
  // StreamStallSpan: response bytes buffered behind a gap, either another
  // stream's (`cross_stream`: TCP head-of-line blocking) or the stream's own
  // retransmission (docs/OBSERVABILITY.md, critical-path attribution).
  // FlowControlStallSpan: data and cwnd ready but the connection-level
  // flow-control window exhausted (QUIC MAX_DATA starvation; nothing lost).
  StreamStallSpan,
  FlowControlStallSpan,
};

const char* to_string(TraceEventType t);

/// Which fault mechanism an event is attributed to. None for ordinary events.
enum class FaultKind {
  None,
  Outage,            // scheduled blackout / UDP blackhole
  HandshakeTimeout,  // handshake retries exhausted
  Blackhole,         // consecutive-RTO deadness detector
  Refused,           // server admission refused the connection (edge at capacity)
};

const char* to_string(FaultKind k);

struct TraceEvent {
  TimePoint at{0};
  TraceEventType type = TraceEventType::PacketSent;
  std::uint64_t packet_number = 0;  // when applicable
  std::uint64_t stream_id = 0;      // when applicable
  std::size_t bytes = 0;            // payload size, when applicable
  double cwnd = 0.0;                // packets, for CwndUpdated
  double duration_ms = 0.0;         // span length, for the stall spans
  bool cross_stream = false;        // StreamStallSpan: blocked by ANOTHER stream's gap
  bool is_client_to_server = true;  // direction of the packet/stream data
  FaultKind fault = FaultKind::None;  // for fault/recovery events
};

/// One labelled track: the most recent kTrackCapacity events of a connection
/// or of a run's pool bus, in non-decreasing time order.
struct TraceTrack {
  std::string label;
  std::deque<TraceEvent> events;
  std::uint64_t dropped_events = 0;  // evicted by the ring bound

  [[nodiscard]] std::size_t count(TraceEventType type) const;
};

/// Non-owning recording handle to one track of a TraceLog; a default handle
/// is null and records nothing. Valid until the log is cleared or destroyed.
class TraceHandle {
 public:
  TraceHandle() = default;

  [[nodiscard]] explicit operator bool() const { return track_ != nullptr; }

  /// Appends `event` (no-op on a null handle). Timestamps must not decrease;
  /// past kTrackCapacity the oldest event is dropped and counted.
  void record(const TraceEvent& event) const;

 private:
  friend class TraceLog;
  explicit TraceHandle(TraceTrack* track) : track_(track) {}

  TraceTrack* track_ = nullptr;
};

class TraceLog {
 public:
  /// Ring bound of every track: long fault runs keep each connection's
  /// packet tail without growing without limit.
  static constexpr std::size_t kTrackCapacity = 4096;
  /// Connection tracks a run keeps; later connections run untraced. Bus
  /// tracks are never refused.
  static constexpr std::size_t kMaxConnectionTracks = 256;

  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Opens a track that is never refused (a run's pool bus).
  TraceHandle open(std::string label);

  /// Opens the connection track "<label>#<n>", where n numbers this log's
  /// connection requests from 1 — refused ones too, so a label never depends
  /// on the cap. A shard records one run, so n numbers the run's
  /// connections. Returns a null handle once this log holds its share of
  /// kMaxConnectionTracks.
  TraceHandle open_connection(const std::string& label);

  /// Gives this log its share of kMaxConnectionTracks in a run split across
  /// `shards` shards (rounded up), so which connections get traced never
  /// depends on thread scheduling.
  void set_shard_count(std::size_t shards);

  /// Appends every track of `other` after the tracks here; merging shards in
  /// canonical order keeps the exports independent of thread scheduling.
  /// The rvalue form moves the events and leaves `other` empty.
  void merge_from(const TraceLog& other);
  void merge_from(TraceLog&& other);

  /// Drops every track and resets the connection numbering and cap usage.
  void clear();

  [[nodiscard]] const std::deque<TraceTrack>& tracks() const { return tracks_; }
  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }
  /// Events currently held across all tracks.
  [[nodiscard]] std::size_t event_count() const;
  /// Events evicted by the ring bound across all tracks.
  [[nodiscard]] std::uint64_t dropped_events() const;

 private:
  std::deque<TraceTrack> tracks_;  // a deque keeps handles valid as it grows
  std::size_t max_connection_tracks_ = kMaxConnectionTracks;
  std::size_t connection_tracks_ = 0;       // opened (counts against the cap)
  std::uint64_t connection_requests_ = 0;   // opened or refused (numbers labels)
};

/// One qlog document holding every track of `log` in track order:
/// {"qlog_format":"JSON","qlog_version":"0.4","traces":[...]}. Each track is
/// one trace whose common_fields.ODCID is its label.
[[nodiscard]] std::string to_qlog_json(const TraceLog& log);

}  // namespace h3cdn::obs
